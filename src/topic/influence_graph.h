#ifndef OIPA_TOPIC_INFLUENCE_GRAPH_H_
#define OIPA_TOPIC_INFLUENCE_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "topic/campaign.h"
#include "topic/edge_topic_probs.h"

namespace oipa {

/// A homogeneous influence graph: the social graph plus one activation
/// probability per edge. This is what a single viral piece "sees": the
/// topic-aware model collapses to p(t, e) = t . p(e) for a piece t
/// (Section III-A of the paper).
///
/// Construction also builds the live in-adjacency: for each vertex, its
/// in-edges with p > 0 as (source, probability) pairs, in InNeighbors
/// order. Edges with p = 0 can never fire, so reverse-reachability
/// sampling walks only this list and never touches them.
class InfluenceGraph {
 public:
  /// One in-edge that can fire: its source and activation probability,
  /// stored side by side so the reverse BFS reads one array.
  struct LiveInEdge {
    VertexId src;
    float prob;
  };

  InfluenceGraph(const Graph* graph, std::vector<float> edge_probs);

  /// Collapses the topic-aware probabilities for one piece.
  static InfluenceGraph ForPiece(const Graph& graph,
                                 const EdgeTopicProbs& probs,
                                 const TopicVector& piece);

  /// Topic-blind collapse: mean probability across all topics (what the
  /// classical-IM baseline runs on).
  static InfluenceGraph TopicBlind(const Graph& graph,
                                   const EdgeTopicProbs& probs);

  /// Uniform probability p on every edge (classic IC benchmarks).
  static InfluenceGraph Uniform(const Graph& graph, float p);

  /// Weighted-cascade: probability 1/in-degree(dst) on each edge.
  static InfluenceGraph WeightedCascade(const Graph& graph);

  const Graph& graph() const { return *graph_; }
  float EdgeProb(EdgeId e) const { return edge_probs_[e]; }
  const std::vector<float>& edge_probs() const { return edge_probs_; }

  /// In-edges of v with p > 0, in graph().InNeighbors(v) order.
  std::span<const LiveInEdge> LiveInEdges(VertexId v) const {
    return {live_in_.data() + live_in_offsets_[v],
            live_in_.data() + live_in_offsets_[v + 1]};
  }

 private:
  const Graph* graph_;  // not owned
  std::vector<float> edge_probs_;
  // n + 1 entries. 32 bits suffice (at most 2^32 - 1 live edges, CHECKed
  // at construction) and halve the offsets, which on a sparse graph
  // such as tweet outweigh the live edges themselves.
  std::vector<uint32_t> live_in_offsets_;
  std::vector<LiveInEdge> live_in_;
};

/// Builds one InfluenceGraph per campaign piece. The returned graphs alias
/// `graph`, which must outlive them. Up to `num_threads` workers
/// (ResolveThreadCount convention: 0 = GetNumThreads()) compute every
/// piece's edge probabilities over edge ranges, then build the pieces'
/// live in-adjacencies; the result is the same at any count.
std::vector<InfluenceGraph> BuildPieceGraphs(const Graph& graph,
                                             const EdgeTopicProbs& probs,
                                             const Campaign& campaign,
                                             int num_threads = 1);

}  // namespace oipa

#endif  // OIPA_TOPIC_INFLUENCE_GRAPH_H_
