#ifndef OIPA_GRAPH_GENERATORS_H_
#define OIPA_GRAPH_GENERATORS_H_

#include <cstdint>

#include "graph/graph.h"

namespace oipa {

/// Random graph generators. All are deterministic given `seed` and return
/// directed graphs (undirected models emit both edge directions).

/// G(n, p) Erdős–Rényi digraph: each ordered pair (u, v), u != v, is an
/// edge independently with probability p. Uses geometric skipping, so
/// sparse graphs cost O(m) not O(n^2).
Graph GenerateErdosRenyi(VertexId n, double p, uint64_t seed);

/// Barabási–Albert preferential attachment: starts from a small clique and
/// attaches each new vertex to `m_per_node` existing vertices chosen
/// proportionally to degree. Produces a power-law degree distribution
/// (exponent ~3). Undirected; both directions emitted.
Graph GenerateBarabasiAlbert(VertexId n, int m_per_node, uint64_t seed);

/// Holme–Kim clustered power-law graph: Barabási–Albert with a triad-
/// closure step taken with probability `triad_p` after each preferential
/// attachment, yielding the high clustering typical of co-authorship and
/// social graphs. Undirected; both directions emitted.
Graph GenerateHolmeKim(VertexId n, int m_per_node, double triad_p,
                       uint64_t seed);

/// Most directed edges GenerateHolmeKim(n, m_per_node, ...) can return:
/// the seed clique's links plus m_per_node links per later vertex, each
/// in both directions.
EdgeId HolmeKimMaxEdges(VertexId n, int m_per_node);

/// Watts–Strogatz small world: ring lattice with `k_ring` neighbors per
/// side, each edge rewired with probability `rewire_p`. Undirected.
Graph GenerateWattsStrogatz(VertexId n, int k_ring, double rewire_p,
                            uint64_t seed);

/// Sparse "retweet forest" in the spirit of the paper's tweet dataset:
/// average out-degree `avg_degree` (typically ~1.2), heavy-tailed in-degree
/// concentrated on a small celebrity set. Directed.
Graph GenerateRetweetForest(VertexId n, double avg_degree, uint64_t seed);

/// Deterministic shapes for tests.
Graph MakePath(VertexId n);                 // 0 -> 1 -> ... -> n-1
Graph MakeCycle(VertexId n);                // n >= 2
Graph MakeStar(VertexId leaves);            // 0 -> {1..leaves}
Graph MakeCompleteDigraph(VertexId n);      // all ordered pairs
Graph MakeGrid(VertexId rows, VertexId cols);  // 4-neighbor, both dirs

}  // namespace oipa

#endif  // OIPA_GRAPH_GENERATORS_H_
