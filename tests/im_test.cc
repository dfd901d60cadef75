#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

#include "data/datasets.h"
#include "diffusion/cascade.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "im/imm.h"
#include "im/max_cover.h"
#include "rrset/mrr_collection.h"
#include "topic/influence_graph.h"

namespace oipa {
namespace {

/// `theta` RR sets over `ig`: a one-piece MRR collection.
MrrCollection RrSets(const InfluenceGraph& ig, int64_t theta,
                     uint64_t seed) {
  return MrrCollection::Generate(std::span<const InfluenceGraph>(&ig, 1),
                                 theta, seed);
}

TEST(MaxCoverTest, PicksObviousHub) {
  // Star: vertex 0 reaches all leaves with certainty; any RR set of a
  // leaf contains {leaf, 0}, so greedy must pick 0 first.
  const Graph g = MakeStar(10);
  const InfluenceGraph ig = InfluenceGraph::Uniform(g, 1.0f);
  const MrrCollection rr = RrSets(ig, 2000, 3);
  const MaxCoverResult res = GreedyMaxCover(rr, 1);
  ASSERT_EQ(res.seeds.size(), 1u);
  EXPECT_EQ(res.seeds[0], 0);
  EXPECT_EQ(res.covered, rr.theta());  // 0 is in every RR set
}

TEST(MaxCoverTest, KZeroReturnsEmpty) {
  const Graph g = MakeStar(5);
  const InfluenceGraph ig = InfluenceGraph::Uniform(g, 1.0f);
  const MrrCollection rr = RrSets(ig, 100, 3);
  EXPECT_TRUE(GreedyMaxCover(rr, 0).seeds.empty());
  EXPECT_TRUE(CelfMaxCover(rr, 0).seeds.empty());
}

TEST(MaxCoverTest, StopsWhenNoPositiveGain) {
  // Two-vertex graph with no edges: two seeds cover everything.
  const Graph g = Graph::Empty(2);
  const InfluenceGraph ig(&g, {});
  const MrrCollection rr = RrSets(ig, 500, 5);
  const MaxCoverResult res = GreedyMaxCover(rr, 10);
  EXPECT_EQ(res.seeds.size(), 2u);
  EXPECT_EQ(res.covered, rr.theta());
}

TEST(MaxCoverTest, CandidateRestrictionHonored) {
  const Graph g = MakeStar(10);
  const InfluenceGraph ig = InfluenceGraph::Uniform(g, 1.0f);
  const MrrCollection rr = RrSets(ig, 1000, 7);
  // Exclude the hub; only leaves allowed.
  std::vector<VertexId> pool;
  for (VertexId v = 1; v <= 10; ++v) pool.push_back(v);
  const MaxCoverResult res = GreedyMaxCover(rr, 3, pool);
  for (VertexId s : res.seeds) EXPECT_NE(s, 0);
}

class GreedyCelfEquivalence
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(GreedyCelfEquivalence, IdenticalSeedsAndCoverage) {
  const auto [n, p, k] = GetParam();
  const Graph g = GenerateErdosRenyi(n, p, 11 + n);
  const InfluenceGraph ig = InfluenceGraph::WeightedCascade(g);
  const MrrCollection rr = RrSets(ig, 3000, 13);
  const MaxCoverResult greedy = GreedyMaxCover(rr, k);
  const MaxCoverResult celf = CelfMaxCover(rr, k);
  EXPECT_EQ(greedy.seeds, celf.seeds);
  EXPECT_EQ(greedy.covered, celf.covered);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GreedyCelfEquivalence,
    ::testing::Values(std::make_tuple(30, 0.1, 3),
                      std::make_tuple(60, 0.05, 5),
                      std::make_tuple(100, 0.03, 8),
                      std::make_tuple(150, 0.02, 10),
                      std::make_tuple(80, 0.08, 6)));

TEST(MaxCoverTest, GreedyApproximationOnBruteForceableInstance) {
  // Small instance: compare greedy coverage against exhaustive best pair.
  const Graph g = GenerateErdosRenyi(12, 0.2, 17);
  const InfluenceGraph ig = InfluenceGraph::Uniform(g, 0.4f);
  const MrrCollection rr = RrSets(ig, 4000, 19);

  int64_t best = 0;
  std::vector<uint8_t> covered(rr.theta());
  for (VertexId a = 0; a < 12; ++a) {
    for (VertexId b = a + 1; b < 12; ++b) {
      std::fill(covered.begin(), covered.end(), 0);
      for (int64_t i : rr.SamplesContaining(0, a)) covered[i] = 1;
      for (int64_t i : rr.SamplesContaining(0, b)) covered[i] = 1;
      int64_t c = 0;
      for (uint8_t x : covered) c += x;
      best = std::max(best, c);
    }
  }
  const MaxCoverResult greedy = GreedyMaxCover(rr, 2);
  EXPECT_GE(static_cast<double>(greedy.covered),
            (1.0 - 1.0 / M_E) * static_cast<double>(best));
}

// ------------------------------------------------------------------ IMM

TEST(ImmTest, ReturnsRequestedSeedCount) {
  const Graph g = GenerateBarabasiAlbert(300, 3, 23);
  const InfluenceGraph ig = InfluenceGraph::WeightedCascade(g);
  ImmOptions opts;
  opts.epsilon = 0.3;
  opts.seed = 29;
  const ImmResult res = Imm(ig, 5, opts);
  EXPECT_EQ(res.seeds.size(), 5u);
  EXPECT_GT(res.theta_used, 0);
  EXPECT_GE(res.opt_lower_bound, 1.0);
  // No duplicate seeds.
  std::vector<VertexId> sorted = res.seeds;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
}

TEST(ImmTest, SpreadEstimateCloseToSimulation) {
  const Graph g = GenerateBarabasiAlbert(200, 3, 31);
  const InfluenceGraph ig = InfluenceGraph::WeightedCascade(g);
  ImmOptions opts;
  opts.epsilon = 0.2;
  opts.seed = 37;
  const ImmResult res = Imm(ig, 4, opts);
  const double sim = EstimateSpread(ig, res.seeds, 20'000, 41);
  EXPECT_NEAR(res.spread_estimate, sim, 0.1 * sim);
}

TEST(ImmTest, LowerBoundBelowGreedySpread) {
  const Graph g = GenerateBarabasiAlbert(400, 3, 43);
  const InfluenceGraph ig = InfluenceGraph::WeightedCascade(g);
  ImmOptions opts;
  opts.epsilon = 0.4;
  opts.seed = 47;
  const ImmResult res = Imm(ig, 6, opts);
  // LB is a lower bound on OPT >= achieved spread estimate up to noise.
  EXPECT_LE(res.opt_lower_bound, res.spread_estimate * 1.25);
}

TEST(FixedThetaRisTest, MatchesImmQualityRoughly) {
  const Graph g = GenerateBarabasiAlbert(300, 3, 53);
  const InfluenceGraph ig = InfluenceGraph::WeightedCascade(g);
  const ImmResult fixed = FixedThetaRis(ig, 5, 20'000, 59);
  ImmOptions opts;
  opts.epsilon = 0.3;
  opts.seed = 59;
  const ImmResult imm = Imm(ig, 5, opts);
  const double fixed_sim = EstimateSpread(ig, fixed.seeds, 10'000, 61);
  const double imm_sim = EstimateSpread(ig, imm.seeds, 10'000, 61);
  EXPECT_NEAR(fixed_sim, imm_sim, 0.15 * std::max(fixed_sim, imm_sim));
}

TEST(FixedThetaRisTest, HubWinsOnStar) {
  const Graph g = MakeStar(20);
  const InfluenceGraph ig = InfluenceGraph::Uniform(g, 1.0f);
  const ImmResult res = FixedThetaRis(ig, 1, 5000, 67);
  ASSERT_EQ(res.seeds.size(), 1u);
  EXPECT_EQ(res.seeds[0], 0);
  EXPECT_NEAR(res.spread_estimate, 21.0, 0.5);
}

TEST(FixedThetaRisTest, CandidatePoolRestrictsTheSeeds) {
  const Graph g = MakeStar(20);
  const InfluenceGraph ig = InfluenceGraph::Uniform(g, 1.0f);
  const std::vector<VertexId> leaves = {3, 5, 7};
  const ImmResult res = FixedThetaRis(ig, 2, 5000, 67, leaves);
  ASSERT_EQ(res.seeds.size(), 2u);
  for (const VertexId s : res.seeds) {
    EXPECT_NE(std::find(leaves.begin(), leaves.end(), s), leaves.end());
  }
}

// ------------------------------------------------------- pinned outputs

/// Order-sensitive FNV-1a over an ImmResult: the seeds, theta_used and
/// the bits of both doubles.
uint64_t ResultHash(const ImmResult& r) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  mix(r.seeds.size());
  for (const VertexId v : r.seeds) mix(static_cast<uint64_t>(v));
  mix(std::bit_cast<uint64_t>(r.spread_estimate));
  mix(static_cast<uint64_t>(r.theta_used));
  mix(std::bit_cast<uint64_t>(r.opt_lower_bound));
  return h;
}

// Recorded on the former dedicated RR-set collection (64-bit arrays, one
// full inverted index rebuilt per growth); the one-piece MrrCollection
// must reproduce every bit.
TEST(ImPinnedTest, ImmAndFixedThetaRisMatchThePinnedOutputs) {
  const Graph ba23 = GenerateBarabasiAlbert(300, 3, 23);
  const InfluenceGraph ba23_ig = InfluenceGraph::WeightedCascade(ba23);
  const Graph ba53 = GenerateBarabasiAlbert(300, 3, 53);
  const InfluenceGraph ba53_ig = InfluenceGraph::WeightedCascade(ba53);
  const Dataset lastfm = MakeLastFmLike(1);
  const InfluenceGraph blind =
      InfluenceGraph::TopicBlind(*lastfm.graph, *lastfm.probs);
  ImmOptions ba_options;
  ba_options.epsilon = 0.3;
  ba_options.seed = 29;
  ImmOptions lastfm_options;
  lastfm_options.epsilon = 0.5;
  lastfm_options.seed = 3;

  const ImmResult lastfm_imm = Imm(blind, 10, lastfm_options);
  EXPECT_EQ(lastfm_imm.theta_used, 42'239);
  EXPECT_EQ(ResultHash(Imm(ba23_ig, 5, ba_options)),
            18320852074571496699ull);
  EXPECT_EQ(ResultHash(lastfm_imm), 2711914890128517266ull);
  EXPECT_EQ(ResultHash(FixedThetaRis(ba53_ig, 5, 20'000, 59)),
            6606747457366490466ull);
  EXPECT_EQ(ResultHash(FixedThetaRis(blind, 20, 20'000, 1)),
            12661453515486688505ull);
}

}  // namespace
}  // namespace oipa
