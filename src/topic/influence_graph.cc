#include "topic/influence_graph.h"

#include <limits>
#include <optional>

#include "util/logging.h"
#include "util/threading.h"

namespace oipa {

InfluenceGraph::InfluenceGraph(const Graph* graph,
                               std::vector<float> edge_probs)
    : graph_(graph), edge_probs_(std::move(edge_probs)) {
  OIPA_CHECK(graph_ != nullptr);
  OIPA_CHECK_EQ(static_cast<EdgeId>(edge_probs_.size()),
                graph_->num_edges());
  int64_t live = 0;
  for (float p : edge_probs_) {
    OIPA_CHECK_GE(p, 0.0f);
    OIPA_CHECK_LE(p, 1.0f);
    live += p > 0.0f;
  }
  OIPA_CHECK_LE(live, int64_t{std::numeric_limits<uint32_t>::max()});
  const VertexId n = graph_->num_vertices();
  live_in_offsets_.reserve(static_cast<size_t>(n) + 1);
  live_in_offsets_.push_back(0);
  live_in_.reserve(static_cast<size_t>(live));
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = graph_->InNeighbors(v);
    const auto eids = graph_->InEdgeIds(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const float p = edge_probs_[eids[i]];
      if (p > 0.0f) live_in_.push_back({nbrs[i], p});
    }
    live_in_offsets_.push_back(static_cast<uint32_t>(live_in_.size()));
  }
}

InfluenceGraph InfluenceGraph::ForPiece(const Graph& graph,
                                        const EdgeTopicProbs& probs,
                                        const TopicVector& piece) {
  OIPA_CHECK_EQ(probs.num_edges(), graph.num_edges());
  return InfluenceGraph(&graph, probs.PieceProbs(piece));
}

InfluenceGraph InfluenceGraph::TopicBlind(const Graph& graph,
                                          const EdgeTopicProbs& probs) {
  OIPA_CHECK_EQ(probs.num_edges(), graph.num_edges());
  std::vector<float> edge_probs(graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    edge_probs[e] = static_cast<float>(probs.MeanProb(e));
  }
  return InfluenceGraph(&graph, std::move(edge_probs));
}

InfluenceGraph InfluenceGraph::Uniform(const Graph& graph, float p) {
  return InfluenceGraph(
      &graph, std::vector<float>(graph.num_edges(), p));
}

InfluenceGraph InfluenceGraph::WeightedCascade(const Graph& graph) {
  std::vector<float> edge_probs(graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const int64_t indeg = graph.InDegree(graph.edge(e).dst);
    edge_probs[e] = indeg > 0 ? 1.0f / static_cast<float>(indeg) : 0.0f;
  }
  return InfluenceGraph(&graph, std::move(edge_probs));
}

std::vector<InfluenceGraph> BuildPieceGraphs(const Graph& graph,
                                             const EdgeTopicProbs& probs,
                                             const Campaign& campaign,
                                             int num_threads) {
  OIPA_CHECK_EQ(probs.num_edges(), graph.num_edges());
  const int ell = campaign.num_pieces();
  std::vector<const TopicVector*> pieces(ell);
  std::vector<std::vector<float>> edge_probs(ell);
  std::vector<float*> outs(ell);
  for (int j = 0; j < ell; ++j) {
    pieces[j] = &campaign.piece(j).topics;
    edge_probs[j].resize(graph.num_edges());
    outs[j] = edge_probs[j].data();
  }
  // Every piece's edge probabilities, by edge range; then each piece
  // builds its live in-adjacency.
  ParallelFor(graph.num_edges(), num_threads,
              [&](int, int64_t begin, int64_t end) {
                probs.PieceProbs(pieces, begin, end, outs);
              });
  std::vector<std::optional<InfluenceGraph>> built(ell);
  ParallelFor(ell, num_threads, [&](int, int64_t lo, int64_t hi) {
    for (int64_t j = lo; j < hi; ++j) {
      built[j].emplace(&graph, std::move(edge_probs[j]));
    }
  });
  std::vector<InfluenceGraph> out;
  out.reserve(ell);
  for (std::optional<InfluenceGraph>& piece : built) {
    out.push_back(std::move(*piece));
  }
  return out;
}

}  // namespace oipa
