#ifndef OIPA_TOPIC_PROB_MODELS_H_
#define OIPA_TOPIC_PROB_MODELS_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "topic/edge_topic_probs.h"
#include "topic/topic_vector.h"
#include "util/thread_annotations.h"
#include "util/threading.h"

namespace oipa {

/// Synthetic topic-aware probability assignments. These stand in for the
/// TIC-learned probabilities of the paper's datasets, whose action logs
/// the repo does not ship (learn/ recovers such probabilities from a
/// generated log); all give each edge a small set of non-zero topics so
/// that different pieces have genuinely different influence graphs —
/// the heterogeneity OIPA exploits.

/// Weighted-cascade flavored: the total mass on edge (u,v) is
/// 1/in-degree(v), split across `avg_nonzeros` (on average, >= 1) randomly
/// chosen topics with Dirichlet weights, each then jittered by a uniform
/// factor in [0.5, 1.5] and clamped to [0, 1].
EdgeTopicProbs AssignWeightedCascadeTopics(const Graph& graph,
                                           int num_topics,
                                           double avg_nonzeros,
                                           uint64_t seed);

/// Hands a graph from the task that generates it to a weighted-cascade
/// topic stream drawing beside it (the overload below), and writes the
/// stream's draws once both exist. The stream draws at most `max_edges`
/// edges, the most the graph can have, before it waits for the graph.
/// It collects its draws into fixed-size batches and hands each full
/// batch over. The graph task calls Publish, which makes the graph
/// visible and then writes the queued batches until the stream ends;
/// if the stream has not started, Publish returns at once and the
/// stream writes every batch itself (one worker, graph first). Either
/// way one thread writes every batch, in stream order, so each entry
/// lands where the stream's running count puts it. Written batches are
/// recycled: beyond the backlog drawn before the graph exists, at most
/// two more batches are ever allocated.
class GraphHandoff {
 public:
  /// Edges per batch.
  static constexpr EdgeId kBatchEdges = 1024;

  explicit GraphHandoff(EdgeId max_edges);
  ~GraphHandoff();
  GraphHandoff(const GraphHandoff&) = delete;
  GraphHandoff& operator=(const GraphHandoff&) = delete;

  /// Makes `graph` visible to the stream and writes its batches until
  /// it ends (see above); call once. `graph` must outlive the stream.
  void Publish(const Graph* graph) OIPA_EXCLUDES(mu_);

  /// True while the stream, having drawn `max_edges` edges, waits for
  /// the graph.
  bool stream_waiting() const OIPA_EXCLUDES(mu_);

 private:
  friend EdgeTopicProbs AssignWeightedCascadeTopics(GraphHandoff* handoff,
                                                    int num_topics,
                                                    double avg_nonzeros,
                                                    uint64_t seed,
                                                    int num_threads);
  struct Batch;

  /// The stream's side. Start returns the graph if it is already there.
  const Graph* Start(int max_topics_per_edge) OIPA_EXCLUDES(mu_);
  /// A free batch whose first edge is `first_edge`: a recycled one, a
  /// new one while the graph is missing or spares remain, or else the
  /// next one the writer recycles.
  std::unique_ptr<Batch> NextBatch(EdgeId first_edge) OIPA_EXCLUDES(mu_);
  /// Hands `batch` over (`last`: the stream's final one) and returns the
  /// graph if it is there. Writes it at once when the graph is there
  /// and no worker writes; after the last batch, returns once every
  /// batch is written.
  const Graph* Hand(std::unique_ptr<Batch> batch, bool last)
      OIPA_EXCLUDES(mu_);
  const Graph* AwaitGraph() OIPA_EXCLUDES(mu_);

  /// The writer's side: sizes the output once, then appends each
  /// batch's edges below the graph's edge count to it.
  void ReserveOutput(EdgeId num_edges, int max_topics_per_edge);
  void Write(const Graph& graph, const Batch& batch);

  const EdgeId max_edges_;
  mutable Mutex mu_;
  /// Signals every change below: the graph, a queued, recycled or
  /// last-written batch, and the stream's state.
  CondVar changed_;
  const Graph* graph_ OIPA_GUARDED_BY(mu_) = nullptr;
  bool started_ OIPA_GUARDED_BY(mu_) = false;
  bool waiting_ OIPA_GUARDED_BY(mu_) = false;
  bool ended_ OIPA_GUARDED_BY(mu_) = false;
  /// The graph's worker is in Publish, writing until the stream ends.
  bool worker_writes_ OIPA_GUARDED_BY(mu_) = false;
  bool written_ OIPA_GUARDED_BY(mu_) = false;
  int max_topics_per_edge_ OIPA_GUARDED_BY(mu_) = 0;
  /// New batches the stream may still take once the graph is there.
  int spares_ OIPA_GUARDED_BY(mu_);
  std::deque<std::unique_ptr<Batch>> queued_ OIPA_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Batch>> free_ OIPA_GUARDED_BY(mu_);
  /// The CSR output. Only the one writer touches it, outside mu_; the
  /// stream takes it after the last batch is written.
  std::vector<int64_t> offsets_;
  std::vector<TopicProb> entries_;
};

/// The same probabilities, drawn while the graph is still being built:
/// the stream draws every edge's topic count, topics, Dirichlet weights
/// and jitters from one `seed` stream in edge order, as above, and
/// hands them to `handoff`, which writes them (see GraphHandoff). Draws
/// past the graph's edge count are dropped. The entries are checked on
/// `num_threads` workers (ResolveThreadCount). The result is
/// bit-identical to the overload above, wherever the graph arrives and
/// at any worker count.
EdgeTopicProbs AssignWeightedCascadeTopics(GraphHandoff* handoff,
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
/// nothing, so `num_threads` workers (ResolveThreadCount) each fill and
/// check one edge range, with the same result at any worker count.
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
