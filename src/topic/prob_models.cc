#include "topic/prob_models.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"
#include "util/random.h"

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

}  // namespace

EdgeTopicProbs AssignWeightedCascadeTopics(const Graph& graph,
                                           int num_topics,
                                           double avg_nonzeros,
                                           uint64_t seed) {
  Rng rng(seed);
  EdgeTopicProbs probs(graph.num_edges(), num_topics);
  probs.Reserve(graph.num_edges() *
                MaxNonZeroCount(avg_nonzeros, num_topics));
  // Per-edge scratch, reused: it grows to the largest topic count.
  std::vector<int> topics;
  std::vector<double> weights;
  std::vector<TopicProb> entries;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const int64_t indeg = graph.InDegree(graph.edge(e).dst);
    const double base = indeg > 0 ? 1.0 / static_cast<double>(indeg) : 0.0;
    const int count = SampleNonZeroCount(avg_nonzeros, num_topics, &rng);
    SampleTopics(num_topics, count, &rng, &topics);
    weights.resize(count);
    rng.NextDirichlet(1.0, weights);
    entries.clear();
    for (int i = 0; i < count; ++i) {
      // The jitter keeps per-topic probabilities heterogeneous even for
      // edges with equal in-degree.
      const double jitter = 0.5 + rng.NextDouble();
      const double p =
          std::clamp(base * weights[i] * count * jitter, 0.0, 1.0);
      entries.push_back({topics[i], static_cast<float>(p)});
    }
    probs.SetEdge(e, entries);
  }
  return probs;
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
    int top_k, double scale, double min_rel) {
  OIPA_CHECK_EQ(static_cast<VertexId>(node_topics.size()),
                graph.num_vertices());
  OIPA_CHECK_GE(top_k, 1);
  OIPA_CHECK_GT(scale, 0.0);
  OIPA_CHECK_GE(min_rel, 0.0);
  OIPA_CHECK_LE(min_rel, 1.0);
  const int num_topics =
      node_topics.empty() ? 1 : node_topics[0].num_topics();
  EdgeTopicProbs probs(graph.num_edges(), num_topics);
  probs.Reserve(graph.num_edges() * std::min(top_k, num_topics));
  std::vector<std::pair<double, int>> affinity;
  std::vector<TopicProb> entries;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const Edge& edge = graph.edge(e);
    const TopicVector& tu = node_topics[edge.src];
    const TopicVector& tv = node_topics[edge.dst];
    affinity.clear();
    for (int z = 0; z < num_topics; ++z) {
      // Arithmetic mean: an edge carries a topic if either endpoint
      // cares about it (a pure geometric mean would leave edges between
      // users with disjoint interests topicless and thus unusable).
      const double a = 0.5 * (tu[z] + tv[z]);
      if (a > 0.0) affinity.emplace_back(a, z);
    }
    std::sort(affinity.begin(), affinity.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
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
    entries.clear();
    for (const auto& [a, z] : affinity) {
      const double p =
          total > 0.0 ? std::clamp(mass * a / total * affinity.size(), 0.0,
                                   1.0)
                      : 0.0;
      entries.push_back({z, static_cast<float>(p)});
    }
    probs.SetEdge(e, entries);
  }
  return probs;
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
