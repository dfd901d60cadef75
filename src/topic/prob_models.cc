#include "topic/prob_models.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <utility>

#include "util/logging.h"
#include "util/random.h"
#include "util/threading.h"

namespace oipa {

namespace {

/// Samples a topic-count for one edge so that the mean across edges is
/// `avg_nonzeros`, with at least one topic per edge.
int SampleNonZeroCount(double avg_nonzeros, int num_topics, Rng* rng) {
  OIPA_CHECK_GE(avg_nonzeros, 1.0);
  const int base = static_cast<int>(avg_nonzeros);
  const double frac = avg_nonzeros - base;
  int count = base + (rng->NextBernoulli(frac) ? 1 : 0);
  return std::clamp(count, 1, num_topics);
}

/// Most topics SampleNonZeroCount gives one edge.
int MaxNonZeroCount(double avg_nonzeros, int num_topics) {
  OIPA_CHECK_GE(avg_nonzeros, 1.0);
  return static_cast<int>(
      std::min<double>(std::ceil(avg_nonzeros), num_topics));
}

/// Picks `count` distinct topics uniformly into `chosen` (cleared
/// first).
void SampleTopics(int num_topics, int count, Rng* rng,
                  std::vector<int>* chosen) {
  chosen->clear();
  while (static_cast<int>(chosen->size()) < count) {
    const int z = static_cast<int>(rng->NextBounded(num_topics));
    if (std::find(chosen->begin(), chosen->end(), z) == chosen->end()) {
      chosen->push_back(z);
    }
  }
}

bool ByTopic(const TopicProb& a, const TopicProb& b) {
  return a.topic < b.topic;
}

/// The weighted-cascade mass of edge e: 1 / in-degree of its target.
double WeightedCascadeBase(const Graph& graph, EdgeId e) {
  const int64_t indeg = graph.InDegree(graph.edge(e).dst);
  return indeg > 0 ? 1.0 / static_cast<double>(indeg) : 0.0;
}

/// One topic drawn for an edge, with its Dirichlet weight and jitter.
struct TopicDraw {
  int topic;
  double weight;
  double jitter;
};

/// Writes one edge's weighted-cascade entries from its draws to
/// out[0, draws.size()), sorted by topic.
void WriteWeightedCascadeEdge(double base, std::span<const TopicDraw> draws,
                              TopicProb* out) {
  const int count = static_cast<int>(draws.size());
  for (int i = 0; i < count; ++i) {
    const double p =
        std::clamp(base * draws[i].weight * count * draws[i].jitter, 0.0, 1.0);
    out[i] = {draws[i].topic, static_cast<float>(p)};
  }
  std::sort(out, out + count, ByTopic);
}

/// New batches the stream may take once the graph is there; past them
/// it waits for the writer to recycle one.
constexpr int kSpareBatches = 2;

}  // namespace

/// Consecutive edges' draws: counts[i] topics for edge first_edge + i,
/// their draws in edge order.
struct GraphHandoff::Batch {
  EdgeId first_edge = 0;
  std::vector<int> counts;
  std::vector<TopicDraw> draws;
};

GraphHandoff::GraphHandoff(EdgeId max_edges)
    : max_edges_(max_edges), spares_(kSpareBatches) {}

GraphHandoff::~GraphHandoff() = default;

void GraphHandoff::Publish(const Graph* graph) {
  int max_topics_per_edge = 0;
  {
    MutexLock lock(&mu_);
    graph_ = graph;
    changed_.NotifyAll();
    if (!started_) return;
    worker_writes_ = true;
    max_topics_per_edge = max_topics_per_edge_;
  }
  ReserveOutput(graph->num_edges(), max_topics_per_edge);
  ReleasableMutexLock lock(&mu_);
  while (true) {
    while (queued_.empty() && !ended_) changed_.Wait(&mu_);
    if (queued_.empty()) break;
    std::unique_ptr<Batch> batch = std::move(queued_.front());
    queued_.pop_front();
    lock.Unlock();
    Write(*graph, *batch);
    lock.Lock();
    free_.push_back(std::move(batch));
    changed_.NotifyAll();
  }
  written_ = true;
  changed_.NotifyAll();
}

bool GraphHandoff::stream_waiting() const {
  MutexLock lock(&mu_);
  return waiting_;
}

const Graph* GraphHandoff::Start(int max_topics_per_edge) {
  const Graph* graph = nullptr;
  {
    MutexLock lock(&mu_);
    started_ = true;
    max_topics_per_edge_ = max_topics_per_edge;
    graph = graph_;
  }
  // With the graph already there, the stream writes every batch.
  if (graph != nullptr) ReserveOutput(graph->num_edges(), max_topics_per_edge);
  return graph;
}

std::unique_ptr<GraphHandoff::Batch> GraphHandoff::NextBatch(
    EdgeId first_edge) {
  MutexLock lock(&mu_);
  while (free_.empty() && graph_ != nullptr && spares_ == 0) {
    changed_.Wait(&mu_);
  }
  std::unique_ptr<Batch> batch;
  if (!free_.empty()) {
    batch = std::move(free_.back());
    free_.pop_back();
  } else {
    if (graph_ != nullptr) --spares_;
    batch = std::make_unique<Batch>();
    batch->counts.reserve(kBatchEdges);
    batch->draws.reserve(kBatchEdges * max_topics_per_edge_);
  }
  batch->first_edge = first_edge;
  batch->counts.clear();
  batch->draws.clear();
  return batch;
}

const Graph* GraphHandoff::Hand(std::unique_ptr<Batch> batch, bool last) {
  ReleasableMutexLock lock(&mu_);
  if (graph_ != nullptr && !worker_writes_) {
    const Graph* graph = graph_;
    lock.Unlock();
    Write(*graph, *batch);
    lock.Lock();
    free_.push_back(std::move(batch));
    return graph;
  }
  queued_.push_back(std::move(batch));
  ended_ = last;
  changed_.NotifyAll();
  while (last && !written_) changed_.Wait(&mu_);
  return graph_;
}

const Graph* GraphHandoff::AwaitGraph() {
  MutexLock lock(&mu_);
  waiting_ = true;
  while (graph_ == nullptr) changed_.Wait(&mu_);
  waiting_ = false;
  return graph_;
}

void GraphHandoff::ReserveOutput(EdgeId num_edges, int max_topics_per_edge) {
  offsets_.reserve(num_edges + 1);
  offsets_.push_back(0);
  entries_.reserve(num_edges * max_topics_per_edge);
}

void GraphHandoff::Write(const Graph& graph, const Batch& batch) {
  // Draws past the graph's edge count are dropped.
  const EdgeId count = std::clamp<EdgeId>(
      graph.num_edges() - batch.first_edge, 0,
      static_cast<EdgeId>(batch.counts.size()));
  size_t kept = 0;
  for (EdgeId i = 0; i < count; ++i) kept += batch.counts[i];
  size_t at = entries_.size();
  entries_.resize(at + kept);
  const TopicDraw* draws = batch.draws.data();
  for (EdgeId i = 0; i < count; ++i) {
    const int topics = batch.counts[i];
    WriteWeightedCascadeEdge(
        WeightedCascadeBase(graph, batch.first_edge + i),
        std::span<const TopicDraw>(draws, topics), entries_.data() + at);
    draws += topics;
    at += topics;
    offsets_.push_back(static_cast<int64_t>(at));
  }
}

EdgeTopicProbs AssignWeightedCascadeTopics(const Graph& graph,
                                           int num_topics,
                                           double avg_nonzeros,
                                           uint64_t seed) {
  GraphHandoff handoff(graph.num_edges());
  handoff.Publish(&graph);
  return AssignWeightedCascadeTopics(&handoff, num_topics, avg_nonzeros,
                                     seed, /*num_threads=*/1);
}

EdgeTopicProbs AssignWeightedCascadeTopics(GraphHandoff* handoff,
                                           int num_topics,
                                           double avg_nonzeros,
                                           uint64_t seed, int num_threads) {
  Rng rng(seed);
  // Per-edge scratch, reused: it grows to the largest topic count.
  std::vector<int> topics;
  std::vector<double> weights;
  const Graph* graph =
      handoff->Start(MaxNonZeroCount(avg_nonzeros, num_topics));
  std::unique_ptr<GraphHandoff::Batch> batch = handoff->NextBatch(0);
  for (EdgeId e = 0;; ++e) {
    if (graph == nullptr && e == handoff->max_edges_) {
      graph = handoff->AwaitGraph();
    }
    if (graph != nullptr && e >= graph->num_edges()) break;
    if (static_cast<EdgeId>(batch->counts.size()) ==
        GraphHandoff::kBatchEdges) {
      graph = handoff->Hand(std::move(batch), /*last=*/false);
      batch = handoff->NextBatch(e);
      if (graph != nullptr && e >= graph->num_edges()) break;
    }
    const int count = SampleNonZeroCount(avg_nonzeros, num_topics, &rng);
    SampleTopics(num_topics, count, &rng, &topics);
    weights.resize(count);
    rng.NextDirichlet(1.0, weights);
    for (int i = 0; i < count; ++i) {
      // The jitter keeps per-topic probabilities heterogeneous even for
      // edges with equal in-degree.
      batch->draws.push_back({topics[i], weights[i], 0.5 + rng.NextDouble()});
    }
    batch->counts.push_back(count);
  }
  handoff->Hand(std::move(batch), /*last=*/true);
  return EdgeTopicProbs(num_topics, std::move(handoff->offsets_),
                        std::move(handoff->entries_), num_threads);
}

EdgeTopicProbs AssignTrivalencyTopics(const Graph& graph, int num_topics,
                                      double avg_nonzeros, uint64_t seed) {
  Rng rng(seed);
  static constexpr float kLevels[3] = {0.1f, 0.01f, 0.001f};
  EdgeTopicProbs probs(graph.num_edges(), num_topics);
  probs.Reserve(graph.num_edges() *
                MaxNonZeroCount(avg_nonzeros, num_topics));
  std::vector<int> topics;
  std::vector<TopicProb> entries;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const int count = SampleNonZeroCount(avg_nonzeros, num_topics, &rng);
    SampleTopics(num_topics, count, &rng, &topics);
    entries.clear();
    for (int z : topics) {
      entries.push_back({z, kLevels[rng.NextBounded(3)]});
    }
    probs.SetEdge(e, entries);
  }
  return probs;
}

EdgeTopicProbs AssignAffinityTopics(
    const Graph& graph, const std::vector<TopicVector>& node_topics,
    int top_k, double scale, double min_rel, int num_threads) {
  OIPA_CHECK_EQ(static_cast<VertexId>(node_topics.size()),
                graph.num_vertices());
  OIPA_CHECK_GE(top_k, 1);
  OIPA_CHECK_GT(scale, 0.0);
  OIPA_CHECK_GE(min_rel, 0.0);
  OIPA_CHECK_LE(min_rel, 1.0);
  const int num_topics =
      node_topics.empty() ? 1 : node_topics[0].num_topics();
  const EdgeId num_edges = graph.num_edges();
  // Each worker appends its edge range's entries to a part of its own,
  // with offsets counted from the part's start; the parts are then
  // joined in edge order.
  const int workers = ResolveThreadCount(num_threads);
  std::vector<int64_t> offsets(num_edges + 1, 0);
  std::vector<std::vector<TopicProb>> parts(workers);
  std::vector<EdgeId> part_end(workers, 0);
  ParallelFor(num_edges, workers, [&](int part, int64_t begin,
                                      int64_t end) {
    std::vector<TopicProb>& entries = parts[part];
    entries.reserve((end - begin) * std::min(top_k, num_topics));
    std::vector<std::pair<double, int>> affinity;
    for (EdgeId e = begin; e < end; ++e) {
      const Edge& edge = graph.edge(e);
      const TopicVector& tu = node_topics[edge.src];
      const TopicVector& tv = node_topics[edge.dst];
      affinity.clear();
      for (int z = 0; z < num_topics; ++z) {
        // Arithmetic mean: an edge carries a topic if either endpoint
        // cares about it (a pure geometric mean would leave edges
        // between users with disjoint interests topicless and thus
        // unusable).
        const double a = 0.5 * (tu[z] + tv[z]);
        if (a > 0.0) affinity.emplace_back(a, z);
      }
      std::sort(affinity.begin(), affinity.end(),
                [](const auto& a, const auto& b) {
                  return a.first > b.first;
                });
      if (static_cast<int>(affinity.size()) > top_k) affinity.resize(top_k);
      while (affinity.size() > 1 &&
             affinity.back().first < min_rel * affinity.front().first) {
        affinity.pop_back();
      }

      double total = 0.0;
      for (const auto& [a, z] : affinity) total += a;
      const int64_t indeg = graph.InDegree(edge.dst);
      const double mass =
          indeg > 0 ? scale / static_cast<double>(indeg) : scale;
      const size_t first = entries.size();
      for (const auto& [a, z] : affinity) {
        const double p =
            total > 0.0 ? std::clamp(mass * a / total * affinity.size(),
                                     0.0, 1.0)
                        : 0.0;
        entries.push_back({z, static_cast<float>(p)});
      }
      std::sort(entries.begin() + first, entries.end(), ByTopic);
      offsets[e + 1] = static_cast<int64_t>(entries.size());
    }
    part_end[part] = end;
  });
  std::vector<TopicProb> entries = std::move(parts[0]);
  for (size_t part = 1; part < parts.size() && part_end[part] > 0; ++part) {
    const int64_t shift = static_cast<int64_t>(entries.size());
    for (EdgeId e = part_end[part - 1]; e < part_end[part]; ++e) {
      offsets[e + 1] += shift;
    }
    entries.insert(entries.end(), parts[part].begin(), parts[part].end());
  }
  return EdgeTopicProbs(num_topics, std::move(offsets), std::move(entries),
                        workers);
}

std::vector<TopicVector> SampleNodeTopicProfiles(VertexId n, int num_topics,
                                                 double alpha, int keep,
                                                 uint64_t seed) {
  OIPA_CHECK_GE(keep, 1);
  Rng rng(seed);
  std::vector<TopicVector> out;
  out.reserve(n);
  std::vector<std::pair<double, int>> sorted(num_topics);
  for (VertexId v = 0; v < n; ++v) {
    TopicVector full = TopicVector::SampleDirichlet(num_topics, alpha, &rng);
    for (int z = 0; z < num_topics; ++z) sorted[z] = {full[z], z};
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    TopicVector truncated(num_topics);
    const int limit = std::min(keep, num_topics);
    for (int i = 0; i < limit; ++i) {
      truncated[sorted[i].second] = sorted[i].first;
    }
    truncated.Normalize();
    out.push_back(std::move(truncated));
  }
  return out;
}

}  // namespace oipa
