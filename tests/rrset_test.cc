#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "data/datasets.h"
#include "diffusion/cascade.h"
#include "rrset/coverage_kernels.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "rrset/coverage_state.h"
#include "rrset/mrr_collection.h"
#include "rrset/rr_sampler.h"
#include "topic/campaign.h"
#include "topic/influence_graph.h"
#include "topic/prob_models.h"
#include "util/random.h"
#include "util/threading.h"

namespace oipa {
namespace {

// ------------------------------------------------------------- Sampler

TEST(RrSamplerTest, DeterministicGraphYieldsAncestors) {
  const Graph g = MakePath(5);
  const InfluenceGraph ig = InfluenceGraph::Uniform(g, 1.0f);
  RrSampler sampler(g.num_vertices());
  std::vector<VertexId> set;
  sampler.Sample(ig, 3, 1, &set);
  std::sort(set.begin(), set.end());
  EXPECT_EQ(set, (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(RrSamplerTest, ZeroProbabilityYieldsRootOnly) {
  const Graph g = MakeCompleteDigraph(5);
  const InfluenceGraph ig = InfluenceGraph::Uniform(g, 0.0f);
  RrSampler sampler(g.num_vertices());
  std::vector<VertexId> set;
  sampler.Sample(ig, 2, 1, &set);
  EXPECT_EQ(set, (std::vector<VertexId>{2}));
}

TEST(RrSamplerTest, ReusableAcrossCalls) {
  const Graph g = MakeCycle(6);
  const InfluenceGraph ig = InfluenceGraph::Uniform(g, 1.0f);
  RrSampler sampler(g.num_vertices());
  std::vector<VertexId> set;
  for (int i = 0; i < 10; ++i) {
    set.clear();
    sampler.Sample(ig, i % 6, static_cast<uint64_t>(i), &set);
    EXPECT_EQ(set.size(), 6u);  // cycle: everything reaches everything
  }
}

TEST(RrSamplerTest, AppendsAfterExistingMembers) {
  const Graph g = MakePath(5);
  const InfluenceGraph ig = InfluenceGraph::Uniform(g, 1.0f);
  RrSampler sampler(g.num_vertices());
  std::vector<VertexId> out = {4, 4};
  sampler.Sample(ig, 2, 1, &out);
  sampler.Sample(ig, 0, 1, &out);  // vertex 0 has no in-edge
  EXPECT_EQ(out, (std::vector<VertexId>{4, 4, 2, 1, 0, 0}));
}

TEST(PerSampleSeedTest, DistinctAcrossSamplesAndPieces) {
  std::set<uint64_t> seen;
  for (int64_t s = 0; s < 100; ++s) {
    for (int j = -1; j < 4; ++j) {
      seen.insert(PerSampleSeed(42, s, j));
    }
  }
  EXPECT_EQ(seen.size(), 500u);
}

// ----------------------------------------------------------------- MRR

class MrrFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = std::make_unique<Graph>(GenerateErdosRenyi(30, 0.1, 17));
    probs_ = std::make_unique<EdgeTopicProbs>(
        AssignWeightedCascadeTopics(*graph_, 6, 2.0, 19));
    Rng rng(21);
    campaign_ = Campaign::SampleUniformPieces(3, 6, &rng);
    pieces_ = BuildPieceGraphs(*graph_, *probs_, campaign_);
    mrr_ = std::make_unique<MrrCollection>(
        MrrCollection::Generate(pieces_, 2000, 23));
  }

  std::unique_ptr<Graph> graph_;
  std::unique_ptr<EdgeTopicProbs> probs_;
  Campaign campaign_;
  std::vector<InfluenceGraph> pieces_;
  std::unique_ptr<MrrCollection> mrr_;
};

TEST_F(MrrFixture, StructureBasics) {
  EXPECT_EQ(mrr_->theta(), 2000);
  EXPECT_EQ(mrr_->num_pieces(), 3);
  EXPECT_EQ(mrr_->num_vertices(), 30);
  EXPECT_NEAR(mrr_->UtilityScale(), 30.0 / 2000.0, 1e-15);
}

TEST_F(MrrFixture, EverySetContainsItsRoot) {
  for (int64_t i = 0; i < mrr_->theta(); ++i) {
    for (int j = 0; j < mrr_->num_pieces(); ++j) {
      const auto set = mrr_->Set(i, j);
      EXPECT_TRUE(std::find(set.begin(), set.end(), mrr_->root(i)) !=
                  set.end());
    }
  }
}

TEST_F(MrrFixture, InvertedIndexConsistent) {
  int64_t total = 0;
  for (int j = 0; j < mrr_->num_pieces(); ++j) {
    for (VertexId v = 0; v < mrr_->num_vertices(); ++v) {
      for (int64_t i : mrr_->SamplesContaining(j, v)) {
        const auto set = mrr_->Set(i, j);
        EXPECT_TRUE(std::find(set.begin(), set.end(), v) != set.end());
        ++total;
      }
    }
  }
  EXPECT_EQ(total, mrr_->TotalSize());
}

TEST_F(MrrFixture, RootsUniformlyDistributed) {
  std::vector<int> counts(mrr_->num_vertices(), 0);
  for (int64_t i = 0; i < mrr_->theta(); ++i) ++counts[mrr_->root(i)];
  const double expected =
      static_cast<double>(mrr_->theta()) / mrr_->num_vertices();
  for (int c : counts) {
    EXPECT_NEAR(c, expected, 6.0 * std::sqrt(expected));
  }
}

/// Asserts a == b on every observable surface: roots, per-set contents
/// (offsets + nodes), and inverted-index queries — regardless of how
/// many index segments either side holds.
void ExpectMrrBitIdentical(const MrrCollection& a, const MrrCollection& b) {
  ASSERT_EQ(a.theta(), b.theta());
  ASSERT_EQ(a.num_pieces(), b.num_pieces());
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.TotalSize(), b.TotalSize());
  for (int64_t i = 0; i < a.theta(); ++i) {
    EXPECT_EQ(a.root(i), b.root(i)) << i;
    for (int j = 0; j < a.num_pieces(); ++j) {
      const auto sa = a.Set(i, j);
      const auto sb = b.Set(i, j);
      ASSERT_EQ(sa.size(), sb.size()) << i << "," << j;
      EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin()))
          << i << "," << j;
    }
  }
  for (int j = 0; j < a.num_pieces(); ++j) {
    for (VertexId v = 0; v < a.num_vertices(); ++v) {
      EXPECT_EQ(a.SamplesContaining(j, v), b.SamplesContaining(j, v))
          << j << "," << v;
    }
  }
}

class MrrExtendTest
    : public ::testing::TestWithParam<std::tuple<DiffusionModel, int>> {};

TEST_P(MrrExtendTest, ExtendIsBitIdenticalToSingleShot) {
  const auto [model, threads] = GetParam();
  const Graph g = GenerateErdosRenyi(30, 0.1, 17);
  const EdgeTopicProbs probs = AssignWeightedCascadeTopics(g, 6, 2.0, 19);
  Rng rng(21);
  const Campaign campaign = Campaign::SampleUniformPieces(3, 6, &rng);
  const auto pieces = BuildPieceGraphs(g, probs, campaign);

  SetNumThreads(threads);
  MrrCollection grown = MrrCollection::Generate(pieces, 400, 23, model);
  grown.Extend(pieces, 1000);
  grown.Extend(pieces, 1500);
  SetNumThreads(1);
  const MrrCollection oneshot =
      MrrCollection::Generate(pieces, 1500, 23, model);
  SetNumThreads(0);

  EXPECT_EQ(grown.num_index_segments(), 3);
  EXPECT_EQ(oneshot.num_index_segments(), 1);
  ExpectMrrBitIdentical(grown, oneshot);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndThreads, MrrExtendTest,
    ::testing::Combine(
        ::testing::Values(DiffusionModel::kIndependentCascade,
                          DiffusionModel::kLinearThreshold),
        ::testing::Values(1, 4)));

TEST(MrrCollectionTest, ExtendBelowThetaIsNoOp) {
  const Graph g = GenerateErdosRenyi(20, 0.1, 3);
  const EdgeTopicProbs probs = AssignWeightedCascadeTopics(g, 4, 2.0, 5);
  Rng rng(7);
  const Campaign campaign = Campaign::SampleUniformPieces(2, 4, &rng);
  const auto pieces = BuildPieceGraphs(g, probs, campaign);
  MrrCollection mc = MrrCollection::Generate(pieces, 200, 9);
  const int64_t generated = MrrCollection::GeneratedSampleCount();
  mc.Extend(pieces, 100);
  mc.Extend(pieces, 200);
  EXPECT_EQ(mc.theta(), 200);
  EXPECT_EQ(mc.num_index_segments(), 1);
  EXPECT_EQ(MrrCollection::GeneratedSampleCount(), generated);
}

TEST(MrrCollectionTest, ProvenanceAccessors) {
  const Graph g = GenerateErdosRenyi(20, 0.1, 3);
  const EdgeTopicProbs probs = AssignWeightedCascadeTopics(g, 4, 2.0, 5);
  Rng rng(7);
  const Campaign campaign = Campaign::SampleUniformPieces(2, 4, &rng);
  const auto pieces = BuildPieceGraphs(g, probs, campaign);
  const MrrCollection mc = MrrCollection::Generate(
      pieces, 50, 99, DiffusionModel::kLinearThreshold);
  EXPECT_TRUE(mc.extendable());
  EXPECT_EQ(mc.base_seed(), 99u);
  EXPECT_EQ(mc.model(), DiffusionModel::kLinearThreshold);

  // Legacy FromParts has no provenance and must refuse to extend.
  const MrrCollection parts = MrrCollection::FromParts(
      1, 1, 3, /*offsets=*/{0, 1}, /*nodes=*/{0});
  EXPECT_FALSE(parts.extendable());
}

TEST(MrrCollectionTest, ThreadCountInvariance) {
  const Graph g = GenerateErdosRenyi(25, 0.1, 29);
  const EdgeTopicProbs probs =
      AssignWeightedCascadeTopics(g, 4, 1.5, 31);
  Rng rng(33);
  const Campaign c = Campaign::SampleUniformPieces(2, 4, &rng);
  const auto pieces = BuildPieceGraphs(g, probs, c);
  SetNumThreads(1);
  const MrrCollection serial = MrrCollection::Generate(pieces, 400, 35);
  SetNumThreads(5);
  const MrrCollection parallel = MrrCollection::Generate(pieces, 400, 35);
  SetNumThreads(0);
  for (int64_t i = 0; i < 400; ++i) {
    EXPECT_EQ(serial.root(i), parallel.root(i));
    for (int j = 0; j < 2; ++j) {
      const auto a = serial.Set(i, j);
      const auto b = parallel.Set(i, j);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
  }
}

// ------------------------------------------------- Pinned bit-identity

/// Order-sensitive FNV-1a over everything a collection exposes: each
/// root, each RR set's size (the offsets) and members (the nodes), and
/// every posting list as ForEachSampleSpan yields it. Span boundaries
/// are not hashed, so a grown (multi-segment) collection hashes equal to
/// a fresh one exactly when every concatenated posting list agrees.
uint64_t CollectionHash(const MrrCollection& mrr) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  mix(static_cast<uint64_t>(mrr.theta()));
  for (int64_t i = 0; i < mrr.theta(); ++i) {
    mix(static_cast<uint64_t>(mrr.root(i)));
    for (int j = 0; j < mrr.num_pieces(); ++j) {
      const auto set = mrr.Set(i, j);
      mix(set.size());
      for (const VertexId v : set) mix(static_cast<uint64_t>(v));
    }
  }
  for (int j = 0; j < mrr.num_pieces(); ++j) {
    for (VertexId v = 0; v < mrr.num_vertices(); ++v) {
      uint64_t postings = 0;
      mrr.ForEachSampleSpan(j, v, [&](std::span<const uint32_t> ids) {
        for (const uint32_t i : ids) mix(static_cast<uint64_t>(i));
        postings += ids.size();
      });
      mix(postings);
    }
  }
  return h;
}

/// lastfm (dataset seed 1), l = 3 pieces, sampling seed 1: the pinned
/// workload of the bit-identity suite.
struct PinnedWorkload {
  static constexpr int64_t kTheta = 20'000;
  PinnedWorkload() : dataset(MakeLastFmLike(1)) {
    Rng rng(1);
    campaign = Campaign::SampleUniformPieces(3, dataset.num_topics, &rng);
    pieces = BuildPieceGraphs(*dataset.graph, *dataset.probs, campaign);
  }
  Dataset dataset;
  Campaign campaign;
  std::vector<InfluenceGraph> pieces;
};

const PinnedWorkload& Pinned() {
  static const PinnedWorkload* workload = new PinnedWorkload();
  return *workload;
}

/// Hashes of the pinned workload's collection as sampled before the
/// live in-adjacency and the sharded index build: any change to the
/// draw stream, the stitch order, or posting order moves them.
constexpr uint64_t kPinnedHashIc = 11625510916604521372ull;
constexpr uint64_t kPinnedHashLt = 9641396495602583457ull;

class PinnedHashTest
    : public ::testing::TestWithParam<std::tuple<DiffusionModel, int>> {};

TEST_P(PinnedHashTest, FreshAndGrownCollectionsMatchThePinnedHash) {
  const auto [model, threads] = GetParam();
  const PinnedWorkload& w = Pinned();
  const uint64_t pinned = model == DiffusionModel::kIndependentCascade
                              ? kPinnedHashIc
                              : kPinnedHashLt;
  const int64_t theta = PinnedWorkload::kTheta;
  const MrrCollection fresh =
      MrrCollection::Generate(w.pieces, theta, 1, model, threads);
  EXPECT_EQ(CollectionHash(fresh), pinned);

  MrrCollection grown =
      MrrCollection::Generate(w.pieces, theta / 3, 1, model, threads);
  grown.Extend(w.pieces, 2 * theta / 3, threads);
  grown.Extend(w.pieces, theta, threads);
  EXPECT_EQ(grown.num_index_segments(), 3);
  EXPECT_EQ(CollectionHash(grown), pinned);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndThreads, PinnedHashTest,
    ::testing::Combine(::testing::Values(DiffusionModel::kIndependentCascade,
                                         DiffusionModel::kLinearThreshold),
                       ::testing::Values(1, 2, 3, 7, 16)));

TEST(MrrShardingTest, FewerNewSamplesThanShards) {
  const PinnedWorkload& w = Pinned();
  const MrrCollection reference = MrrCollection::Generate(
      w.pieces, 12, 1, DiffusionModel::kIndependentCascade, 1);
  // 5 samples over 16 requested workers, then grows of 1 and 6.
  MrrCollection grown = MrrCollection::Generate(
      w.pieces, 5, 1, DiffusionModel::kIndependentCascade, 16);
  grown.Extend(w.pieces, 6, 16);
  grown.Extend(w.pieces, 12, 16);
  EXPECT_EQ(grown.num_index_segments(), 3);
  ExpectMrrBitIdentical(grown, reference);
  EXPECT_EQ(CollectionHash(grown), CollectionHash(reference));
}

TEST(MrrShardingTest, AllZeroProbabilityPieceYieldsRootOnlySets) {
  const PinnedWorkload& w = Pinned();
  const Graph& g = *w.dataset.graph;
  std::vector<InfluenceGraph> pieces = {
      w.pieces[0], InfluenceGraph::Uniform(g, 0.0f), w.pieces[2]};
  const MrrCollection serial = MrrCollection::Generate(
      pieces, 3'000, 1, DiffusionModel::kIndependentCascade, 1);
  const MrrCollection sharded = MrrCollection::Generate(
      pieces, 3'000, 1, DiffusionModel::kIndependentCascade, 7);
  ExpectMrrBitIdentical(serial, sharded);
  std::vector<std::vector<int64_t>> rooted_at(g.num_vertices());
  for (int64_t i = 0; i < serial.theta(); ++i) {
    const auto set = serial.Set(i, 1);
    ASSERT_EQ(set.size(), 1u) << i;
    EXPECT_EQ(set[0], serial.root(i)) << i;
    rooted_at[serial.root(i)].push_back(i);
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(serial.SamplesContaining(1, v), rooted_at[v]) << v;
  }
  // The other pieces draw exactly what they draw beside a live piece 1.
  const MrrCollection normal = MrrCollection::Generate(
      w.pieces, 3'000, 1, DiffusionModel::kIndependentCascade, 1);
  for (int64_t i = 0; i < serial.theta(); ++i) {
    for (const int j : {0, 2}) {
      const auto a = serial.Set(i, j);
      const auto b = normal.Set(i, j);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << i << "," << j;
    }
  }
}

TEST(MrrShardingTest, FromPartsRebuildsTheGeneratedIndex) {
  const PinnedWorkload& w = Pinned();
  MrrCollection generated = MrrCollection::Generate(
      w.pieces, 4'000, 1, DiffusionModel::kIndependentCascade, 3);
  generated.Extend(w.pieces, 9'000, 3);
  DefaultInitVector<uint32_t> offsets = {0};
  DefaultInitVector<VertexId> nodes;
  for (int64_t i = 0; i < generated.theta(); ++i) {
    for (int j = 0; j < generated.num_pieces(); ++j) {
      const auto set = generated.Set(i, j);
      nodes.insert(nodes.end(), set.begin(), set.end());
      offsets.push_back(static_cast<uint32_t>(nodes.size()));
    }
  }
  const MrrCollection rebuilt = MrrCollection::FromParts(
      generated.theta(), generated.num_pieces(), generated.num_vertices(),
      std::move(offsets), std::move(nodes), generated.base_seed(),
      generated.model(), /*extendable=*/true);
  EXPECT_EQ(rebuilt.num_index_segments(), 1);
  ExpectMrrBitIdentical(rebuilt, generated);
  EXPECT_EQ(CollectionHash(rebuilt), CollectionHash(generated));
}

// ------------------------------------------------- Layout and growth

TEST(MrrLayoutTest, RootIsTheFirstMemberOfEverySet) {
  const PinnedWorkload& w = Pinned();
  for (const DiffusionModel model : {DiffusionModel::kIndependentCascade,
                                     DiffusionModel::kLinearThreshold}) {
    const MrrCollection mrr =
        MrrCollection::Generate(w.pieces, 2'000, 5, model, 2);
    for (int64_t i = 0; i < mrr.theta(); ++i) {
      for (int j = 0; j < mrr.num_pieces(); ++j) {
        ASSERT_FALSE(mrr.Set(i, j).empty()) << i << "," << j;
        EXPECT_EQ(mrr.Set(i, j)[0], mrr.root(i)) << i << "," << j;
      }
    }
  }
}

TEST(MrrLayoutTest, UnindexedCollectionHoldsTheSameSamples) {
  const PinnedWorkload& w = Pinned();
  for (const int threads : {1, 3}) {
    MrrCollection unindexed = MrrCollection::Generate(
        w.pieces, 3'000, 1, DiffusionModel::kIndependentCascade, threads,
        /*indexed=*/false);
    unindexed.Extend(w.pieces, 5'000, threads);
    const MrrCollection indexed = MrrCollection::Generate(
        w.pieces, 5'000, 1, DiffusionModel::kIndependentCascade, threads);
    EXPECT_FALSE(unindexed.indexed());
    EXPECT_EQ(unindexed.num_index_segments(), 0);
    EXPECT_TRUE(unindexed.SamplesContaining(0, indexed.root(0)).empty());
    ASSERT_EQ(unindexed.theta(), indexed.theta());
    ASSERT_EQ(unindexed.TotalSize(), indexed.TotalSize());
    EXPECT_TRUE(std::equal(unindexed.members().begin(),
                           unindexed.members().end(),
                           indexed.members().begin()));
    EXPECT_TRUE(std::equal(unindexed.set_offsets().begin(),
                           unindexed.set_offsets().end(),
                           indexed.set_offsets().begin()));
    EXPECT_LT(unindexed.MemoryBytes(), indexed.MemoryBytes());
  }
}

TEST(MrrLayoutTest, PoolIndexHoldsExactlyThePoolsPostings) {
  // An index over the dataset's pool answers every pool vertex as the
  // full index does, through Extend and ExtendedCopy, and holds nothing
  // for the other vertices; the samples themselves are unchanged.
  const PinnedWorkload& w = Pinned();
  const std::vector<VertexId>& pool = w.dataset.promoter_pool;
  const VertexId n = w.dataset.graph->num_vertices();
  std::vector<bool> in_pool(n, false);
  for (const VertexId v : pool) in_pool[v] = true;
  for (const int threads : {1, 3}) {
    MrrCollection pooled = MrrCollection::Generate(
        w.pieces, 3'000, 1, DiffusionModel::kIndependentCascade, threads,
        /*indexed=*/true, pool);
    pooled.Extend(w.pieces, 5'000, threads);
    const MrrCollection copy = pooled.ExtendedCopy(w.pieces, 6'000, threads);
    const MrrCollection full = MrrCollection::Generate(
        w.pieces, 6'000, 1, DiffusionModel::kIndependentCascade, threads);
    EXPECT_EQ(copy.num_index_segments(), 3);
    EXPECT_TRUE(std::equal(copy.members().begin(), copy.members().end(),
                           full.members().begin(), full.members().end()));
    for (int j = 0; j < copy.num_pieces(); ++j) {
      for (VertexId v = 0; v < n; ++v) {
        EXPECT_EQ(copy.IndexesVertex(v), in_pool[v]) << v;
        const std::vector<int64_t> want =
            in_pool[v] ? full.SamplesContaining(j, v)
                       : std::vector<int64_t>();
        ASSERT_EQ(copy.SamplesContaining(j, v), want) << j << "/" << v;
      }
    }
    EXPECT_LT(copy.MemoryBytes(), full.MemoryBytes());
  }
}

TEST(MrrLayoutTest, ExtendedCopyMatchesExtendAndLeavesTheSourceAlone) {
  const PinnedWorkload& w = Pinned();
  for (const int threads : {1, 2, 7}) {
    const MrrCollection base = MrrCollection::Generate(
        w.pieces, 12'000, 1, DiffusionModel::kIndependentCascade, threads);
    const uint64_t base_hash = CollectionHash(base);
    const MrrCollection copy =
        base.ExtendedCopy(w.pieces, PinnedWorkload::kTheta, threads);
    EXPECT_EQ(copy.num_index_segments(), 2);
    EXPECT_EQ(CollectionHash(copy), kPinnedHashIc) << threads;
    EXPECT_EQ(base.theta(), 12'000);
    EXPECT_EQ(CollectionHash(base), base_hash);
    // Copied once, into storage sized for the grown collection: no more
    // than a fresh collection of that size plus the shared first
    // segment's key offsets and the member margin. (Growing an
    // exact-size copy in place would at least double its 12k samples'
    // capacity.)
    const MrrCollection fresh = MrrCollection::Generate(
        w.pieces, PinnedWorkload::kTheta, 1,
        DiffusionModel::kIndependentCascade, threads);
    const int64_t key_offsets =
        (static_cast<int64_t>(w.pieces.size()) *
             (w.dataset.graph->num_vertices() + 1) +
         1) *
        static_cast<int64_t>(sizeof(uint32_t));
    EXPECT_LE(copy.MemoryBytes(),
              fresh.MemoryBytes() + key_offsets + fresh.MemoryBytes() / 20)
        << threads;
    // Unindexed collections grow the same way, without segments.
    const MrrCollection unindexed = MrrCollection::Generate(
        w.pieces, 12'000, 1, DiffusionModel::kIndependentCascade, threads,
        /*indexed=*/false);
    const MrrCollection unindexed_copy =
        unindexed.ExtendedCopy(w.pieces, PinnedWorkload::kTheta, threads);
    EXPECT_EQ(unindexed_copy.num_index_segments(), 0);
    EXPECT_TRUE(std::equal(unindexed_copy.members().begin(),
                           unindexed_copy.members().end(),
                           fresh.members().begin(), fresh.members().end()));
  }
}

// ------------------------------------------------ One-piece collections

/// Plain RR sets: `theta` one-piece MRR samples over `ig`.
MrrCollection RrSets(const InfluenceGraph& ig, int64_t theta, uint64_t seed,
                     int threads = 0) {
  return MrrCollection::Generate(std::span<const InfluenceGraph>(&ig, 1),
                                 theta, seed,
                                 DiffusionModel::kIndependentCascade,
                                 threads);
}

/// The RIS spread estimate of `seeds`: n times the fraction of RR sets
/// holding a seed.
double RisSpread(const MrrCollection& rr,
                 const std::vector<VertexId>& seeds) {
  std::vector<uint8_t> covered(rr.theta(), 0);
  for (const VertexId s : seeds) {
    rr.ForEachSampleContaining(0, s, [&](int64_t i) { covered[i] = 1; });
  }
  int64_t count = 0;
  for (const uint8_t c : covered) count += c;
  return static_cast<double>(count) * rr.UtilityScale();
}

TEST(OnePieceMrrTest, SpreadEstimateMatchesExactOnSmallGraphs) {
  const Graph g = GenerateErdosRenyi(10, 0.2, 7);
  ASSERT_LE(g.num_edges(), 24);
  const InfluenceGraph ig = InfluenceGraph::Uniform(g, 0.35f);
  const MrrCollection rr = RrSets(ig, 150'000, 3);
  for (const std::vector<VertexId>& seeds :
       {std::vector<VertexId>{0}, {1, 2}, {0, 5, 9}}) {
    const double exact = ExactSpread(ig, seeds);
    EXPECT_NEAR(RisSpread(rr, seeds), exact, 0.03 * std::max(1.0, exact));
  }
}

/// Hashes of RR sets sampled over single influence graphs, recorded on
/// the former dedicated RR-set collection (64-bit CSR arrays, a full
/// inverted index rebuilt after every growth): a one-piece collection,
/// fresh or grown, must hold the same roots, sets and posting lists at
/// any worker count.
TEST(OnePieceMrrTest, RrSetsMatchThePinnedHashes) {
  const PinnedWorkload& w = Pinned();
  const InfluenceGraph blind =
      InfluenceGraph::TopicBlind(*w.dataset.graph, *w.dataset.probs);
  const Graph ba = GenerateBarabasiAlbert(300, 3, 23);
  const InfluenceGraph ba_ig = InfluenceGraph::WeightedCascade(ba);
  const Graph er = GenerateErdosRenyi(60, 0.05, 11);
  const InfluenceGraph er_ig = InfluenceGraph::Uniform(er, 0.4f);
  struct Case {
    const InfluenceGraph* ig;
    int64_t generated;  // theta at Generate
    int64_t grown;      // theta after Extend
    uint64_t seed;
    uint64_t pinned;
  };
  const Case cases[] = {
      {&blind, 20'000, 20'000, 1, 5535393817758142200ull},
      {&blind, 5'000, 12'000, 2, 1898030209853945595ull},
      {&ba_ig, 3'000, 9'000, 5, 660398399949532283ull},
      {&er_ig, 500, 500, 5, 8801547518471235960ull},
      {&er_ig, 0, 250, 7, 12887628221034420635ull},
  };
  for (const Case& c : cases) {
    for (const int threads : {1, 4}) {
      MrrCollection rr = RrSets(*c.ig, c.generated, c.seed, threads);
      rr.Extend(std::span<const InfluenceGraph>(c.ig, 1), c.grown, threads);
      EXPECT_EQ(rr.theta(), c.grown);
      EXPECT_EQ(CollectionHash(rr), c.pinned)
          << "seed " << c.seed << ", theta " << c.grown << ", " << threads
          << " threads";
    }
  }
}

// -------------------------------------------------------- CoverageState

class CoverageFixture : public MrrFixture {
 protected:
  void SetUp() override {
    MrrFixture::SetUp();
    // Step-function f: counts pieces (makes sums easy to verify).
    f_ = {0.0, 1.0, 1.5, 1.75};
    state_ = std::make_unique<CoverageState>(mrr_.get(), f_);
  }

  std::vector<double> f_;
  std::unique_ptr<CoverageState> state_;
};

TEST_F(CoverageFixture, EmptyStateIsZero) {
  EXPECT_EQ(state_->Utility(), 0.0);
  EXPECT_EQ(state_->RawSum(), 0.0);
  EXPECT_EQ(state_->CountHistogram()[0], mrr_->theta());
}

TEST_F(CoverageFixture, AddRemoveIsInvolution) {
  state_->AddSeed(3, 0);
  state_->AddSeed(7, 1);
  const double after_two = state_->RawSum();
  state_->AddSeed(3, 2);
  state_->RemoveSeed(3, 2);
  EXPECT_DOUBLE_EQ(state_->RawSum(), after_two);
  state_->RemoveSeed(7, 1);
  state_->RemoveSeed(3, 0);
  EXPECT_DOUBLE_EQ(state_->RawSum(), 0.0);
  EXPECT_EQ(state_->CountHistogram()[0], mrr_->theta());
}

TEST_F(CoverageFixture, MultiplicityHandlesOverlappingSeeds) {
  // Two different seeds may cover the same (sample, piece); removing one
  // must keep the sample covered.
  state_->AddSeed(1, 0);
  state_->AddSeed(2, 0);
  const double both = state_->RawSum();
  state_->RemoveSeed(1, 0);
  state_->AddSeed(1, 0);
  EXPECT_DOUBLE_EQ(state_->RawSum(), both);
}

TEST_F(CoverageFixture, RawSumMatchesDirectComputation) {
  state_->AddSeed(5, 0);
  state_->AddSeed(5, 1);
  state_->AddSeed(12, 2);
  double direct = 0.0;
  for (int64_t i = 0; i < mrr_->theta(); ++i) {
    int count = 0;
    for (int j = 0; j < 3; ++j) {
      const VertexId seed = (j == 2) ? 12 : 5;
      const auto set = mrr_->Set(i, j);
      count += std::find(set.begin(), set.end(), seed) != set.end();
    }
    direct += f_[count];
  }
  EXPECT_NEAR(state_->RawSum(), direct, 1e-9);
}

TEST_F(CoverageFixture, HistogramTracksCounts) {
  state_->AddSeed(5, 0);
  const auto& hist = state_->CountHistogram();
  int64_t total = 0;
  for (int64_t h : hist) total += h;
  EXPECT_EQ(total, mrr_->theta());
  EXPECT_EQ(hist[1],
            static_cast<int64_t>(mrr_->SamplesContaining(0, 5).size()));
}

TEST_F(CoverageFixture, GainOfAddingMatchesActualAdd) {
  state_->AddSeed(9, 1);
  const double predicted = state_->GainOfAdding(4, 1);
  const double before = state_->Utility();
  state_->AddSeed(4, 1);
  EXPECT_NEAR(state_->Utility() - before, predicted, 1e-9);
}

TEST_F(CoverageFixture, ClearResetsEverything) {
  state_->AddSeed(5, 0);
  state_->AddSeed(6, 1);
  state_->Clear();
  EXPECT_EQ(state_->RawSum(), 0.0);
  EXPECT_EQ(state_->CountHistogram()[0], mrr_->theta());
  // State is reusable after Clear.
  state_->AddSeed(5, 0);
  EXPECT_GT(state_->RawSum(), 0.0);
}

TEST_F(CoverageFixture, SnapshotRestoreRoundTrips) {
  state_->AddSeed(3, 0);
  state_->AddSeed(7, 1);
  const double sum_before = state_->RawSum();
  const std::vector<int64_t> hist_before = state_->CountHistogram();
  std::vector<int> counts_before(mrr_->theta());
  for (int64_t i = 0; i < mrr_->theta(); ++i) {
    counts_before[i] = state_->CoverCount(i);
  }

  state_->Snapshot();
  EXPECT_EQ(state_->snapshot_depth(), 1);
  state_->AddSeed(5, 0);
  state_->AddSeed(5, 2);
  state_->RemoveSeed(7, 1);  // mixed adds and removes inside the scope
  state_->AddSeed(12, 1);
  state_->RemoveSeed(12, 1);  // add-then-remove of the same seed
  EXPECT_NE(state_->RawSum(), sum_before);
  state_->Restore();
  EXPECT_EQ(state_->snapshot_depth(), 0);

  EXPECT_DOUBLE_EQ(state_->RawSum(), sum_before);
  EXPECT_EQ(state_->CountHistogram(), hist_before);
  for (int64_t i = 0; i < mrr_->theta(); ++i) {
    EXPECT_EQ(state_->CoverCount(i), counts_before[i]) << "sample " << i;
  }
  // The state stays fully usable: the pre-snapshot seeds remove cleanly.
  state_->RemoveSeed(7, 1);
  state_->RemoveSeed(3, 0);
  EXPECT_DOUBLE_EQ(state_->RawSum(), 0.0);
}

TEST_F(CoverageFixture, SnapshotsNestLifo) {
  state_->AddSeed(3, 0);
  const double level0 = state_->RawSum();
  state_->Snapshot();
  state_->AddSeed(5, 1);
  const double level1 = state_->RawSum();
  state_->Snapshot();
  state_->AddSeed(9, 2);
  EXPECT_EQ(state_->snapshot_depth(), 2);
  state_->Restore();
  EXPECT_DOUBLE_EQ(state_->RawSum(), level1);
  state_->Restore();
  EXPECT_DOUBLE_EQ(state_->RawSum(), level0);
}

TEST_F(CoverageFixture, GainAndBoundDominatesGainAndShrinks) {
  // f = {0, 1, 1.5, 1.75} has decreasing marginals, so initially the
  // bound equals the gain; after adds the bound stays >= the fresh gain.
  const auto [gain0, bound0] = state_->GainAndBoundOfAdding(4, 1);
  EXPECT_DOUBLE_EQ(gain0, state_->GainOfAdding(4, 1));
  EXPECT_GE(bound0 + 1e-12, gain0);
  state_->AddSeed(9, 1);
  state_->AddSeed(3, 0);
  const auto [gain1, bound1] = state_->GainAndBoundOfAdding(4, 1);
  EXPECT_DOUBLE_EQ(gain1, state_->GainOfAdding(4, 1));
  EXPECT_GE(bound1 + 1e-12, gain1);
  // Forward validity: the old bound still dominates the fresh gain.
  EXPECT_GE(bound0 + 1e-12, gain1);
}

TEST_F(CoverageFixture, ExtendToCollectionMatchesFreshState) {
  // Apply a plan, grow the collection, rebind incrementally; everything
  // observable must match a freshly constructed state over the grown
  // collection with the same seeds re-added.
  const std::vector<std::pair<int, VertexId>> plan = {
      {0, 3}, {1, 7}, {2, 3}, {0, 12}};
  for (const auto& [piece, v] : plan) state_->AddSeed(v, piece);

  mrr_->Extend(pieces_, 5000);
  state_->ExtendToCollection(plan);

  CoverageState fresh(mrr_.get(), f_);
  for (const auto& [piece, v] : plan) fresh.AddSeed(v, piece);

  EXPECT_DOUBLE_EQ(state_->RawSum(), fresh.RawSum());
  EXPECT_EQ(state_->CountHistogram(), fresh.CountHistogram());
  for (int64_t i = 0; i < mrr_->theta(); ++i) {
    ASSERT_EQ(state_->CoverCount(i), fresh.CoverCount(i)) << i;
    for (int j = 0; j < mrr_->num_pieces(); ++j) {
      ASSERT_EQ(state_->IsCovered(i, j), fresh.IsCovered(i, j))
          << i << "," << j;
    }
  }
  // The rebound state keeps full functionality: gains agree and seeds
  // remove cleanly down to zero.
  EXPECT_DOUBLE_EQ(state_->GainOfAdding(5, 1), fresh.GainOfAdding(5, 1));
  for (const auto& [piece, v] : plan) state_->RemoveSeed(v, piece);
  EXPECT_DOUBLE_EQ(state_->RawSum(), 0.0);
  EXPECT_EQ(state_->CountHistogram()[0], mrr_->theta());
}

TEST_F(CoverageFixture, ExtendToCollectionWithEmptyPlan) {
  state_->AddSeed(3, 0);
  state_->RemoveSeed(3, 0);
  state_->Clear();
  mrr_->Extend(pieces_, 4000);
  state_->ExtendToCollection();
  EXPECT_EQ(state_->CountHistogram()[0], mrr_->theta());
  EXPECT_DOUBLE_EQ(state_->RawSum(), 0.0);
  // Utility scale now reflects the grown theta.
  state_->AddSeed(3, 0);
  CoverageState fresh(mrr_.get(), f_);
  fresh.AddSeed(3, 0);
  EXPECT_DOUBLE_EQ(state_->Utility(), fresh.Utility());
}

TEST_F(CoverageFixture, GainBoundIsForwardValidUnderIncreasingMarginals) {
  // Convex-then-flat f: the second piece is worth more than the first,
  // so plain stale gains would UNDER-estimate later gains. The suffix-max
  // bound must still dominate every future gain of an add-only run.
  CoverageState state(mrr_.get(), {0.0, 0.1, 1.0, 1.2});
  const auto [gain0, bound0] = state.GainAndBoundOfAdding(4, 1);
  state.AddSeed(9, 0);
  state.AddSeed(3, 2);
  state.AddSeed(11, 0);
  const double fresh = state.GainOfAdding(4, 1);
  EXPECT_GE(bound0 + 1e-12, fresh);
  (void)gain0;
}

// ----------------------------------------------------- CoverageKernels

// Randomized posting arrays for the kernel suite: arbitrary tables,
// not a reachable CoverageState (a posting may be uncovered at
// cover_count == l), so the kernels must read exactly the entries the
// reference reads.
struct KernelArrays {
  std::vector<uint32_t> ids;
  std::vector<uint16_t> mult;
  std::vector<uint8_t> cover_count;
  std::vector<uint32_t> greedy_epoch;
  std::vector<uint32_t> line_epoch;
  std::vector<double> line_value;
  std::vector<double> delta_f;
  std::vector<double> delta_f_sufmax;
  std::vector<double> anchor_by_count;
  std::vector<double> slope_by_count;

  KernelArrays(int64_t theta, int ell, uint64_t seed) {
    Rng rng(seed);
    mult.resize(theta);
    cover_count.resize(theta);
    greedy_epoch.resize(theta);
    line_epoch.resize(theta);
    line_value.resize(theta);
    for (int64_t i = 0; i < theta; ++i) {
      mult[i] = static_cast<uint16_t>(rng.Next() % 3);  // ~1/3 uncovered
      cover_count[i] = static_cast<uint8_t>(rng.Next() % (ell + 1));
      greedy_epoch[i] = static_cast<uint32_t>(rng.Next() % 3);
      line_epoch[i] = static_cast<uint32_t>(rng.Next() % 3);
      line_value[i] =
          static_cast<double>(rng.Next() % 2048) / 1000.0;  // may exceed 1
    }
    // Non-uniform postings with duplicates and arbitrary order — the
    // kernels must not assume sorted or unique sample ids.
    for (int64_t i = 0; i < theta / 2; ++i) {
      ids.push_back(static_cast<uint32_t>(rng.Next() % theta));
    }
    delta_f.resize(ell + 1);
    delta_f_sufmax.resize(ell + 1);
    anchor_by_count.resize(ell + 1);
    slope_by_count.resize(ell + 1);
    for (int c = 0; c <= ell; ++c) {
      delta_f[c] = static_cast<double>(rng.Next() % 1000) / 997.0;
      anchor_by_count[c] = static_cast<double>(rng.Next() % 1500) / 1000.0;
      slope_by_count[c] = static_cast<double>(rng.Next() % 1000) / 1000.0;
    }
    double run = 0.0;
    for (int c = ell; c >= 0; --c) {
      run = std::max(run, delta_f[c]);
      delta_f_sufmax[c] = run;
    }
  }

  // References for the kernels: one branchless term per posting, an
  // exact 0.0 for a skipped one, summed in posting order. The kernels
  // skip those postings instead, which must give the same bits.
  double GainSum(std::span<const uint32_t> span, double acc) const {
    for (const uint32_t id : span) {
      const double d = delta_f[cover_count[id]];
      acc += mult[id] == 0 ? d : 0.0;
    }
    return acc;
  }

  std::pair<double, double> GainBoundSum(std::span<const uint32_t> span,
                                         double gain, double bound) const {
    for (const uint32_t id : span) {
      const int c = cover_count[id];
      const bool uncovered = mult[id] == 0;
      gain += uncovered ? delta_f[c] : 0.0;
      bound += uncovered ? delta_f_sufmax[c] : 0.0;
    }
    return {gain, bound};
  }

  double TangentSum(std::span<const uint32_t> span, uint32_t epoch,
                    double acc) const {
    for (const uint32_t id : span) {
      const int c = cover_count[id];
      const bool skip = mult[id] != 0 || greedy_epoch[id] == epoch;
      const double lv =
          line_epoch[id] == epoch ? line_value[id] : anchor_by_count[c];
      const double headroom = 1.0 - lv;
      const double slope = slope_by_count[c];
      const double g = slope < headroom ? slope : headroom;
      acc += (skip || headroom <= 0.0) ? 0.0 : g;
    }
    return acc;
  }
};

// Bitwise equality: EXPECT_EQ on doubles would already be exact, but
// comparing the bit patterns also distinguishes -0.0 from +0.0 — the
// accumulators must never produce a negative zero.
uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(CoverageKernelsTest, KernelsMatchBranchlessReferenceBitForBit) {
  // Spans: empty, singleton, and several lengths up to 1000 postings.
  for (const int64_t span : {0, 1, 37, 128, 131, 1000}) {
    for (const uint64_t seed : {7u, 21u, 63u}) {
      KernelArrays a(std::max<int64_t>(span, 1), 3, seed ^ span);
      const std::span<const uint32_t> ids(
          a.ids.data(), std::min<size_t>(span, a.ids.size()));
      const double acc = 0.625;  // nonzero carried-in accumulator

      const double gain = CoverageGainSum(
          ids, a.mult.data(), a.cover_count.data(), a.delta_f.data(), acc);
      EXPECT_EQ(Bits(gain), Bits(a.GainSum(ids, acc)))
          << span << "/" << seed;

      double g = acc, b = acc;
      CoverageGainBoundSum(ids, a.mult.data(), a.cover_count.data(),
                           a.delta_f.data(), a.delta_f_sufmax.data(), &g,
                           &b);
      const auto [g_ref, b_ref] = a.GainBoundSum(ids, acc, acc);
      EXPECT_EQ(Bits(g), Bits(g_ref)) << span << "/" << seed;
      EXPECT_EQ(Bits(b), Bits(b_ref)) << span << "/" << seed;
      EXPECT_EQ(Bits(g), Bits(gain)) << "gain paths diverged";

      for (const uint32_t epoch : {0u, 1u, 2u}) {
        const double t = TangentGainSum(
            ids, a.mult.data(), a.greedy_epoch.data(), epoch,
            a.line_epoch.data(), a.line_value.data(), a.cover_count.data(),
            a.anchor_by_count.data(), a.slope_by_count.data(), acc);
        EXPECT_EQ(Bits(t), Bits(a.TangentSum(ids, epoch, acc)))
            << span << "/" << seed << "@" << epoch;
      }
    }
  }
}

TEST(CoverageKernelsTest, AccumulatorCarriesAcrossSplitSpans) {
  // Splitting one posting span at an arbitrary point and chaining the
  // accumulators must reproduce the unsplit sums exactly — the property
  // that makes grown (segmented) collections bit-identical to fresh
  // ones.
  KernelArrays a(500, 3, 11);
  const std::span<const uint32_t> all(a.ids);
  const double whole = CoverageGainSum(all, a.mult.data(),
                                       a.cover_count.data(),
                                       a.delta_f.data(), 0.0);
  double whole_gain = 0.0, whole_bound = 0.0;
  CoverageGainBoundSum(all, a.mult.data(), a.cover_count.data(),
                       a.delta_f.data(), a.delta_f_sufmax.data(),
                       &whole_gain, &whole_bound);
  const auto tangent = [&](std::span<const uint32_t> ids, uint32_t epoch,
                           double acc) {
    return TangentGainSum(ids, a.mult.data(), a.greedy_epoch.data(), epoch,
                          a.line_epoch.data(), a.line_value.data(),
                          a.cover_count.data(), a.anchor_by_count.data(),
                          a.slope_by_count.data(), acc);
  };
  for (const size_t cut : {size_t{1}, size_t{100}, size_t{128}, size_t{200}}) {
    const std::span<const uint32_t> head_ids = all.subspan(0, cut);
    const std::span<const uint32_t> tail_ids = all.subspan(cut);
    const double head = CoverageGainSum(head_ids, a.mult.data(),
                                        a.cover_count.data(),
                                        a.delta_f.data(), 0.0);
    const double chained = CoverageGainSum(tail_ids, a.mult.data(),
                                           a.cover_count.data(),
                                           a.delta_f.data(), head);
    EXPECT_EQ(Bits(chained), Bits(whole)) << "cut at " << cut;

    double gain = 0.0, bound = 0.0;
    for (const std::span<const uint32_t> part : {head_ids, tail_ids}) {
      CoverageGainBoundSum(part, a.mult.data(), a.cover_count.data(),
                           a.delta_f.data(), a.delta_f_sufmax.data(), &gain,
                           &bound);
    }
    EXPECT_EQ(Bits(gain), Bits(whole_gain)) << "cut at " << cut;
    EXPECT_EQ(Bits(bound), Bits(whole_bound)) << "cut at " << cut;

    for (const uint32_t epoch : {0u, 1u, 2u}) {
      EXPECT_EQ(Bits(tangent(tail_ids, epoch, tangent(head_ids, epoch, 0.0))),
                Bits(tangent(all, epoch, 0.0)))
          << "cut at " << cut << "@" << epoch;
    }
  }
}

}  // namespace
}  // namespace oipa
