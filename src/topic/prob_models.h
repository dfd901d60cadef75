#ifndef OIPA_TOPIC_PROB_MODELS_H_
#define OIPA_TOPIC_PROB_MODELS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"
#include "topic/edge_topic_probs.h"
#include "topic/topic_vector.h"

namespace oipa {

/// Synthetic topic-aware probability assignments. These stand in for the
/// TIC-learned probabilities of the paper's datasets (see DESIGN.md §4);
/// all give each edge a small set of non-zero topics so that different
/// pieces have genuinely different influence graphs — the heterogeneity
/// OIPA exploits.

/// Weighted-cascade flavored: the total mass on edge (u,v) is
/// 1/in-degree(v), split across `avg_nonzeros` (on average, >= 1) randomly
/// chosen topics with Dirichlet weights, each then jittered by a uniform
/// factor in [0.5, 1.5] and clamped to [0, 1].
EdgeTopicProbs AssignWeightedCascadeTopics(const Graph& graph,
                                           int num_topics,
                                           double avg_nonzeros,
                                           uint64_t seed);

/// How a topic stream finds a graph that another task is still
/// building: asked before edge `next_edge` is drawn, it returns the
/// graph once it exists and null before. By the time `next_edge`
/// reaches the most edges the graph can have, it must return the graph,
/// waiting for it if need be.
using GraphPoll = std::function<const Graph*(EdgeId next_edge)>;

/// Hands a graph from the task that generates it to a topic stream
/// drawing beside it: Poll is the stream's GraphPoll. It answers at once
/// until the stream has drawn `max_edges` edges, the most the graph can
/// have, and then waits for Publish. Lock-free: one atomic pointer.
class GraphHandoff {
 public:
  explicit GraphHandoff(EdgeId max_edges) : max_edges_(max_edges) {}
  GraphHandoff(const GraphHandoff&) = delete;
  GraphHandoff& operator=(const GraphHandoff&) = delete;

  /// Makes `graph` visible to Poll; call once. `graph` must outlive
  /// every Poll.
  void Publish(const Graph* graph) {
    graph_.store(graph, std::memory_order_release);
    graph_.notify_all();
  }

  const Graph* Poll(EdgeId next_edge) const {
    if (next_edge >= max_edges_) {
      graph_.wait(nullptr, std::memory_order_acquire);
    }
    return graph_.load(std::memory_order_acquire);
  }

 private:
  const EdgeId max_edges_;
  std::atomic<const Graph*> graph_{nullptr};
};

/// The same probabilities, drawn while the graph is still being built.
/// The stream draws every edge's topic count, topics, Dirichlet weights
/// and jitters from one `seed` stream in edge order, as above. It keeps
/// the draws of the edges it reaches before `graph` returns the graph,
/// writes every later edge's entries at once, and then finishes the
/// kept edges on `num_threads` workers (ResolveThreadCount). Draws past
/// the graph's edge count are dropped. The result is bit-identical to
/// the overload above, wherever the graph arrives and at any worker
/// count.
EdgeTopicProbs AssignWeightedCascadeTopics(const GraphPoll& graph,
                                           int num_topics,
                                           double avg_nonzeros,
                                           uint64_t seed, int num_threads);

/// Trivalency flavored: each selected (edge, topic) pair draws its
/// probability uniformly from {0.1, 0.01, 0.001}.
EdgeTopicProbs AssignTrivalencyTopics(const Graph& graph, int num_topics,
                                      double avg_nonzeros, uint64_t seed);

/// Affinity-based: given one topic distribution per node (e.g. research
/// fields, or LDA output over a user's hashtags), edge (u,v) carries
/// topic z with affinity (theta_u[z] + theta_v[z]) / 2; the `top_k`
/// strongest topics whose affinity is at least `min_rel` times the
/// strongest are kept, scaled so the total edge mass is
/// `scale`/in-degree(v). This mirrors how the paper derives dblp
/// probabilities from conference fields and tweet probabilities from
/// LDA; raising `min_rel` thins secondary topics (the paper's tweet
/// table averages ~1.5 non-zero probabilities per edge). It draws
/// nothing, so `num_threads` workers (ResolveThreadCount) each fill one
/// edge range, with the same result at any worker count.
EdgeTopicProbs AssignAffinityTopics(
    const Graph& graph, const std::vector<TopicVector>& node_topics,
    int top_k, double scale, double min_rel = 0.0, int num_threads = 1);

/// Per-node topic profiles drawn from a sparse Dirichlet: every node gets
/// Dirichlet(alpha) over `num_topics` truncated to its `keep` largest
/// entries (renormalized).
std::vector<TopicVector> SampleNodeTopicProfiles(VertexId n, int num_topics,
                                                 double alpha, int keep,
                                                 uint64_t seed);

}  // namespace oipa

#endif  // OIPA_TOPIC_PROB_MODELS_H_
