#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>

#include "data/datasets.h"
#include "data/serialization.h"
#include "util/stats.h"

namespace oipa {
namespace {

TEST(PromoterPoolTest, SizeAndRange) {
  const auto pool = SamplePromoterPool(1000, 0.10, 3);
  EXPECT_EQ(pool.size(), 100u);
  for (VertexId v : pool) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 1000);
  }
  // Sorted and unique.
  for (size_t i = 1; i < pool.size(); ++i) {
    EXPECT_LT(pool[i - 1], pool[i]);
  }
}

TEST(PromoterPoolTest, Deterministic) {
  EXPECT_EQ(SamplePromoterPool(500, 0.1, 9),
            SamplePromoterPool(500, 0.1, 9));
}

TEST(DatasetTest, LastFmLikeMatchesTableIII) {
  const Dataset ds = MakeLastFmLike(7);
  EXPECT_EQ(ds.name, "lastfm");
  EXPECT_EQ(ds.num_topics, 20);
  EXPECT_EQ(ds.graph->num_vertices(), 1300);
  // ~15K directed edges, average degree ~8.7-12.
  EXPECT_GT(ds.graph->num_edges(), 12'000);
  EXPECT_LT(ds.graph->num_edges(), 18'000);
  EXPECT_EQ(ds.promoter_pool.size(), 130u);
  EXPECT_EQ(ds.probs->num_edges(), ds.graph->num_edges());
}

TEST(DatasetTest, DblpLikeScalesAndHasNineTopics) {
  const Dataset ds = MakeDblpLike(0.01, 11);  // 5K vertices
  EXPECT_EQ(ds.num_topics, 9);
  EXPECT_EQ(ds.graph->num_vertices(), 5000);
  // Average total degree near the paper's 11.9.
  EXPECT_NEAR(ds.graph->AverageDegree(), 11.9, 2.5);
  // Power-law-ish tail.
  const double alpha =
      PowerLawExponentMle(ds.graph->OutDegreeSequence(), 12.0);
  EXPECT_GT(alpha, 1.8);
  EXPECT_LT(alpha, 4.5);
}

TEST(DatasetTest, TweetLikeIsSparseWithSparseTopics) {
  const Dataset ds = MakeTweetLike(0.002, 13);  // 20K vertices
  EXPECT_EQ(ds.num_topics, 50);
  EXPECT_EQ(ds.graph->num_vertices(), 20'000);
  EXPECT_NEAR(ds.graph->AverageDegree(), 1.2, 0.2);
  // Paper: ~1.5 non-zero topic probabilities per edge.
  EXPECT_LT(ds.probs->AverageNonZeros(), 2.01);
  EXPECT_GE(ds.probs->AverageNonZeros(), 1.0);
}

TEST(DatasetTest, ByNameDispatch) {
  const Dataset ds = MakeDatasetByName("lastfm", 1.0, 3);
  EXPECT_EQ(ds.name, "lastfm");
  const Dataset ds2 = MakeDatasetByName("tweet", 0.001, 3);
  EXPECT_EQ(ds2.name, "tweet");
}

/// Order-sensitive FNV-1a over a dataset's edges, its topic-probability
/// entries (topic and the float's bits) and its promoter pool.
uint64_t DatasetHash(const Dataset& ds) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  const Graph& g = *ds.graph;
  mix(static_cast<uint64_t>(g.num_vertices()));
  mix(static_cast<uint64_t>(g.num_edges()));
  for (const Edge& e : g.edges()) {
    mix(static_cast<uint64_t>(e.src));
    mix(static_cast<uint64_t>(e.dst));
  }
  mix(static_cast<uint64_t>(ds.probs->num_topics()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto entries = ds.probs->EdgeEntries(e);
    mix(entries.size());
    for (const TopicProb& tp : entries) {
      mix(static_cast<uint64_t>(tp.topic));
      mix(std::bit_cast<uint32_t>(tp.prob));
    }
  }
  mix(ds.promoter_pool.size());
  for (const VertexId v : ds.promoter_pool) mix(static_cast<uint64_t>(v));
  return h;
}

/// Hashes of the datasets as built before the linear graph assembly and
/// the allocation-free topic models: any change to a generator's draw
/// stream, the edge order, or an entry's bits moves them. Every worker
/// count builds the same bits.
TEST(DatasetTest, BuildsMatchThePinnedHashes) {
  for (const int workers : {1, 2, 3, 8}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    EXPECT_EQ(DatasetHash(MakeLastFmLike(1, workers)),
              17316850983909218046ull);
    EXPECT_EQ(DatasetHash(MakeLastFmLike(2, workers)),
              10974890596837018878ull);
    EXPECT_EQ(DatasetHash(MakeLastFmLike(99, workers)),
              15462318040020937245ull);
    EXPECT_EQ(DatasetHash(MakeSynthetic(10'000, 10, 0.1, 1, workers)),
              6222182370504032631ull);
    EXPECT_EQ(DatasetHash(MakeSynthetic(20'000, 10, 0.1, 1000, workers)),
              7646643224224133755ull);
    EXPECT_EQ(DatasetHash(MakeDblpLike(0.01, 11, workers)),
              11326695040064876059ull);
    EXPECT_EQ(DatasetHash(MakeTweetLike(0.001, 13, workers)),
              4292899155303823257ull);
  }
}

TEST(SerializationTest, RoundtripPreservesEverything) {
  const Dataset ds = MakeLastFmLike(17);
  const std::string path = testing::TempDir() + "/ds_roundtrip.bin";
  ASSERT_TRUE(SaveDataset(ds, path).ok());
  auto loaded = LoadDataset(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->name, ds.name);
  EXPECT_EQ(loaded->num_topics, ds.num_topics);
  EXPECT_EQ(loaded->graph->num_vertices(), ds.graph->num_vertices());
  EXPECT_EQ(loaded->graph->num_edges(), ds.graph->num_edges());
  EXPECT_EQ(loaded->promoter_pool, ds.promoter_pool);
  for (EdgeId e = 0; e < ds.graph->num_edges(); ++e) {
    EXPECT_EQ(loaded->graph->edge(e).src, ds.graph->edge(e).src);
    EXPECT_EQ(loaded->graph->edge(e).dst, ds.graph->edge(e).dst);
    const auto a = ds.probs->EdgeEntries(e);
    const auto b = loaded->probs->EdgeEntries(e);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].topic, b[i].topic);
      EXPECT_EQ(a[i].prob, b[i].prob);
    }
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, MissingFileFails) {
  EXPECT_FALSE(LoadDataset("/no/such/file.bin").ok());
}

TEST(SerializationTest, CorruptMagicRejected) {
  const std::string path = testing::TempDir() + "/ds_corrupt.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "definitely not a dataset";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  auto loaded = LoadDataset(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializationTest, TruncatedFileRejected) {
  const Dataset ds = MakeLastFmLike(19);
  const std::string path = testing::TempDir() + "/ds_trunc.bin";
  ASSERT_TRUE(SaveDataset(ds, path).ok());
  // Truncate to half size.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  }
  EXPECT_FALSE(LoadDataset(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace oipa
