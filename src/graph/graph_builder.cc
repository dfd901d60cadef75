#include "graph/graph_builder.h"

#include <algorithm>

#include "util/logging.h"

namespace oipa {

void GraphBuilder::AddEdge(VertexId u, VertexId v) {
  OIPA_CHECK_GE(u, 0);
  OIPA_CHECK_GE(v, 0);
  edges_.push_back({u, v});
  num_vertices_ = std::max(num_vertices_, std::max(u, v) + 1);
}

void GraphBuilder::AddUndirectedEdge(VertexId u, VertexId v) {
  AddEdge(u, v);
  AddEdge(v, u);
}

void GraphBuilder::ReserveVertices(VertexId n) {
  num_vertices_ = std::max(num_vertices_, n);
}

Graph GraphBuilder::Build() {
  // Counting sort by source, then sort, dedupe and drop self-loops
  // within each source's targets: the (src, dst) order of a full sort
  // in O(m + n) plus the per-source sorts.
  const VertexId n = num_vertices_;
  std::vector<int64_t> starts(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : edges_) ++starts[e.src + 1];
  for (VertexId v = 0; v < n; ++v) starts[v + 1] += starts[v];
  std::vector<VertexId> targets(edges_.size());
  std::vector<int64_t> cursor(starts.begin(), starts.end() - 1);
  for (const Edge& e : edges_) targets[cursor[e.src]++] = e.dst;

  size_t kept = 0;  // edges_ is rewritten in place: kept <= read position
  for (VertexId u = 0; u < n; ++u) {
    const auto first = targets.begin() + starts[u];
    const auto last = targets.begin() + starts[u + 1];
    std::sort(first, last);
    VertexId prev = -1;
    for (auto it = first; it != last; ++it) {
      if (*it != prev && *it != u) edges_[kept++] = {u, *it};
      prev = *it;
    }
  }
  edges_.resize(kept);
  Graph g(n, std::move(edges_));
  edges_.clear();
  num_vertices_ = 0;
  return g;
}

}  // namespace oipa
