#include "data/datasets.h"

#include <algorithm>

#include "graph/generators.h"
#include "topic/prob_models.h"
#include "util/logging.h"
#include "util/random.h"

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

Dataset MakeSynthetic(VertexId n, int num_topics, double pool_fraction,
                      uint64_t seed) {
  OIPA_CHECK_GE(n, kMinSyntheticVertices);
  OIPA_CHECK_GE(num_topics, 1);
  Dataset ds;
  ds.name = "synthetic";
  ds.num_topics = num_topics;
  ds.graph = std::make_unique<Graph>(
      GenerateHolmeKim(n, kMinSyntheticVertices - 1, 0.4, seed));
  ds.probs = std::make_unique<EdgeTopicProbs>(AssignWeightedCascadeTopics(
      *ds.graph, num_topics, /*avg_nonzeros=*/2.5, seed + 1));
  ds.promoter_pool =
      SamplePromoterPool(ds.graph->num_vertices(), pool_fraction, seed + 2);
  return ds;
}

Dataset MakeLastFmLike(uint64_t seed) {
  Dataset ds;
  ds.name = "lastfm";
  ds.num_topics = 20;
  // 1.3K users; Holme-Kim with m=6 gives ~ 2*6*1300 = 15.6K directed
  // edges and lastfm-like clustering.
  ds.graph = std::make_unique<Graph>(GenerateHolmeKim(1300, 6, 0.4, seed));
  ds.probs = std::make_unique<EdgeTopicProbs>(AssignWeightedCascadeTopics(
      *ds.graph, ds.num_topics, /*avg_nonzeros=*/3.0, seed + 1));
  ds.promoter_pool =
      SamplePromoterPool(ds.graph->num_vertices(), 0.10, seed + 2);
  return ds;
}

Dataset MakeDblpLike(double scale, uint64_t seed) {
  OIPA_CHECK_GT(scale, 0.0);
  OIPA_CHECK_LE(scale, 1.0);
  Dataset ds;
  ds.name = "dblp";
  ds.num_topics = 9;
  const VertexId n = std::max<VertexId>(
      64, static_cast<VertexId>(500'000.0 * scale));
  // Average total degree ~12 in the paper => m_per_node = 6 undirected.
  ds.graph = std::make_unique<Graph>(GenerateHolmeKim(n, 6, 0.6, seed));
  // Research-field profiles: concentrated (authors stick to few fields).
  const std::vector<TopicVector> fields = SampleNodeTopicProfiles(
      n, ds.num_topics, /*alpha=*/0.25, /*keep=*/3, seed + 1);
  ds.probs = std::make_unique<EdgeTopicProbs>(AssignAffinityTopics(
      *ds.graph, fields, /*top_k=*/3, /*scale=*/1.0));
  ds.promoter_pool =
      SamplePromoterPool(ds.graph->num_vertices(), 0.10, seed + 2);
  return ds;
}

Dataset MakeTweetLike(double scale, uint64_t seed) {
  OIPA_CHECK_GT(scale, 0.0);
  OIPA_CHECK_LE(scale, 1.0);
  Dataset ds;
  ds.name = "tweet";
  ds.num_topics = 50;
  const VertexId n = std::max<VertexId>(
      128, static_cast<VertexId>(10'000'000.0 * scale));
  ds.graph = std::make_unique<Graph>(
      GenerateRetweetForest(n, /*avg_degree=*/1.2, seed));
  // Hashtag-derived topic profiles (the paper runs LDA on hashtag
  // documents; examples/learning_pipeline.cc demonstrates that path).
  // Very sparse per-node interests yield ~1.5 non-zero probs per edge.
  const std::vector<TopicVector> interests = SampleNodeTopicProfiles(
      n, ds.num_topics, /*alpha=*/0.08, /*keep=*/2, seed + 1);
  // min_rel thins weak secondary topics so edges average ~1.5 non-zero
  // probabilities, matching the paper's tweet statistics.
  ds.probs = std::make_unique<EdgeTopicProbs>(AssignAffinityTopics(
      *ds.graph, interests, /*top_k=*/2, /*scale=*/1.0, /*min_rel=*/0.4));
  ds.promoter_pool =
      SamplePromoterPool(ds.graph->num_vertices(), 0.10, seed + 2);
  return ds;
}

Dataset MakeDatasetByName(const std::string& name, double scale,
                          uint64_t seed) {
  if (name == "lastfm") return MakeLastFmLike(seed);
  if (name == "dblp") return MakeDblpLike(scale, seed);
  if (name == "tweet") return MakeTweetLike(scale, seed);
  OIPA_CHECK(false) << "unknown dataset: " << name;
  return {};
}

}  // namespace oipa
