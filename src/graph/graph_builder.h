#ifndef OIPA_GRAPH_GRAPH_BUILDER_H_
#define OIPA_GRAPH_GRAPH_BUILDER_H_

#include <vector>

#include "graph/graph.h"

namespace oipa {

/// Mutable edge accumulator that produces an immutable Graph.
/// Deduplicates edges and drops self-loops at Build() time; grows the
/// vertex count to cover every endpoint seen.
class GraphBuilder {
 public:
  explicit GraphBuilder(VertexId num_vertices = 0)
      : num_vertices_(num_vertices) {}

  /// Appends a directed edge u -> v. Endpoints may exceed the current
  /// vertex count; the count expands to fit.
  void AddEdge(VertexId u, VertexId v);

  /// Appends u -> v and v -> u.
  void AddUndirectedEdge(VertexId u, VertexId v);

  /// Ensures the graph has at least `n` vertices.
  void ReserveVertices(VertexId n);

  /// Reserves room for `m` pending directed edges.
  void ReserveEdges(size_t m) { edges_.reserve(m); }

  VertexId num_vertices() const { return num_vertices_; }
  size_t num_pending_edges() const { return edges_.size(); }

  /// Sorts, deduplicates, removes self-loops, and builds the CSR graph.
  /// Edges are bucketed by source in linear time and each source's
  /// targets sorted on their own. The builder is left empty afterwards.
  Graph Build();

 private:
  VertexId num_vertices_;
  std::vector<Edge> edges_;
};

}  // namespace oipa

#endif  // OIPA_GRAPH_GRAPH_BUILDER_H_
