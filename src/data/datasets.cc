#include "data/datasets.h"

#include <algorithm>
#include <functional>

#include "graph/generators.h"
#include "topic/prob_models.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/threading.h"

namespace oipa {

std::vector<VertexId> SamplePromoterPool(VertexId n, double fraction,
                                         uint64_t seed) {
  OIPA_CHECK_GT(fraction, 0.0);
  OIPA_CHECK_LE(fraction, 1.0);
  Rng rng(seed);
  const VertexId target = std::max<VertexId>(
      1, static_cast<VertexId>(fraction * static_cast<double>(n)));
  std::vector<VertexId> all(n);
  for (VertexId v = 0; v < n; ++v) all[v] = v;
  rng.Shuffle(&all);
  all.resize(std::min<VertexId>(target, n));
  std::sort(all.begin(), all.end());
  return all;
}

namespace {

/// Runs `graph_task` and `topic_task` as the two tasks of one
/// ParallelFor: side by side on two or more workers (the graph on the
/// calling thread), the graph first on one.
void GraphBesideTopics(int num_threads,
                       const std::function<void()>& graph_task,
                       const std::function<void()>& topic_task) {
  ParallelFor(2, num_threads, [&](int, int64_t begin, int64_t end) {
    for (int64_t task = begin; task < end; ++task) {
      (task == 0 ? graph_task : topic_task)();
    }
  });
}

/// Fills `ds` (name and num_topics set) with a Holme-Kim graph,
/// weighted-cascade topics streamed beside it, and a promoter pool.
void BuildHolmeKimWeightedCascade(VertexId n, int m_per_node, double triad_p,
                                  double avg_nonzeros, double pool_fraction,
                                  uint64_t seed, int num_threads,
                                  Dataset* ds) {
  GraphHandoff handoff(HolmeKimMaxEdges(n, m_per_node));
  GraphBesideTopics(
      num_threads,
      [&] {
        ds->graph = std::make_unique<Graph>(
            GenerateHolmeKim(n, m_per_node, triad_p, seed));
        handoff.Publish(ds->graph.get());
      },
      [&] {
        ds->probs = std::make_unique<EdgeTopicProbs>(
            AssignWeightedCascadeTopics(&handoff, ds->num_topics,
                                        avg_nonzeros, seed + 1, num_threads));
      });
  ds->promoter_pool =
      SamplePromoterPool(ds->graph->num_vertices(), pool_fraction, seed + 2);
}

}  // namespace

Dataset MakeSynthetic(VertexId n, int num_topics, double pool_fraction,
                      uint64_t seed, int num_threads) {
  OIPA_CHECK_GE(n, kMinSyntheticVertices);
  OIPA_CHECK_GE(num_topics, 1);
  Dataset ds;
  ds.name = "synthetic";
  ds.num_topics = num_topics;
  BuildHolmeKimWeightedCascade(n, kMinSyntheticVertices - 1, 0.4,
                               /*avg_nonzeros=*/2.5, pool_fraction, seed,
                               num_threads, &ds);
  return ds;
}

Dataset MakeLastFmLike(uint64_t seed, int num_threads) {
  Dataset ds;
  ds.name = "lastfm";
  ds.num_topics = 20;
  // 1.3K users; Holme-Kim with m=6 gives ~ 2*6*1300 = 15.6K directed
  // edges and lastfm-like clustering.
  BuildHolmeKimWeightedCascade(1300, 6, 0.4, /*avg_nonzeros=*/3.0, 0.10,
                               seed, num_threads, &ds);
  return ds;
}

Dataset MakeDblpLike(double scale, uint64_t seed, int num_threads) {
  OIPA_CHECK_GT(scale, 0.0);
  OIPA_CHECK_LE(scale, 1.0);
  Dataset ds;
  ds.name = "dblp";
  ds.num_topics = 9;
  const VertexId n = std::max<VertexId>(
      64, static_cast<VertexId>(500'000.0 * scale));
  std::vector<TopicVector> fields;
  GraphBesideTopics(
      num_threads,
      [&] {
        // Average total degree ~12 in the paper => m_per_node = 6
        // undirected.
        ds.graph = std::make_unique<Graph>(GenerateHolmeKim(n, 6, 0.6, seed));
      },
      [&] {
        // Research-field profiles: concentrated (authors stick to few
        // fields).
        fields = SampleNodeTopicProfiles(n, ds.num_topics, /*alpha=*/0.25,
                                         /*keep=*/3, seed + 1);
      });
  ds.probs = std::make_unique<EdgeTopicProbs>(
      AssignAffinityTopics(*ds.graph, fields, /*top_k=*/3, /*scale=*/1.0,
                           /*min_rel=*/0.0, num_threads));
  ds.promoter_pool =
      SamplePromoterPool(ds.graph->num_vertices(), 0.10, seed + 2);
  return ds;
}

Dataset MakeTweetLike(double scale, uint64_t seed, int num_threads) {
  OIPA_CHECK_GT(scale, 0.0);
  OIPA_CHECK_LE(scale, 1.0);
  Dataset ds;
  ds.name = "tweet";
  ds.num_topics = 50;
  const VertexId n = std::max<VertexId>(
      128, static_cast<VertexId>(10'000'000.0 * scale));
  std::vector<TopicVector> interests;
  GraphBesideTopics(
      num_threads,
      [&] {
        ds.graph = std::make_unique<Graph>(
            GenerateRetweetForest(n, /*avg_degree=*/1.2, seed));
      },
      [&] {
        // Hashtag-derived topic profiles (the paper runs LDA on hashtag
        // documents; examples/learning_pipeline.cc demonstrates that
        // path). Very sparse per-node interests yield ~1.5 non-zero
        // probs per edge.
        interests = SampleNodeTopicProfiles(n, ds.num_topics,
                                            /*alpha=*/0.08, /*keep=*/2,
                                            seed + 1);
      });
  // min_rel thins weak secondary topics so edges average ~1.5 non-zero
  // probabilities, matching the paper's tweet statistics.
  ds.probs = std::make_unique<EdgeTopicProbs>(AssignAffinityTopics(
      *ds.graph, interests, /*top_k=*/2, /*scale=*/1.0, /*min_rel=*/0.4,
      num_threads));
  ds.promoter_pool =
      SamplePromoterPool(ds.graph->num_vertices(), 0.10, seed + 2);
  return ds;
}

Dataset MakeDatasetByName(const std::string& name, double scale,
                          uint64_t seed, int num_threads) {
  if (name == "lastfm") return MakeLastFmLike(seed, num_threads);
  if (name == "dblp") return MakeDblpLike(scale, seed, num_threads);
  if (name == "tweet") return MakeTweetLike(scale, seed, num_threads);
  OIPA_CHECK(false) << "unknown dataset: " << name;
  return {};
}

}  // namespace oipa
