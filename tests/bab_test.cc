#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "data/datasets.h"
#include "graph/generators.h"
#include "oipa/adoption.h"
#include "oipa/baselines.h"
#include "oipa/branch_and_bound.h"
#include "oipa/brute_force.h"
#include "rrset/mrr_collection.h"
#include "tests/paper_example.h"
#include "topic/prob_models.h"
#include "util/random.h"

namespace oipa {
namespace {

using testing_support::PaperExample;

struct BabInstance {
  BabInstance(int n, double edge_p, int ell, int num_topics, uint64_t seed,
              double alpha = 2.5, double beta = 1.0, int64_t theta = 4000)
      : graph(GenerateErdosRenyi(n, edge_p, seed)),
        probs(AssignWeightedCascadeTopics(graph, num_topics, 2.0,
                                          seed + 1)),
        model(alpha, beta) {
    Rng rng(seed + 2);
    campaign = Campaign::SampleUniformPieces(ell, num_topics, &rng);
    pieces = BuildPieceGraphs(graph, probs, campaign);
    mrr = std::make_unique<MrrCollection>(
        MrrCollection::Generate(pieces, theta, seed + 3));
    for (VertexId v = 0; v < graph.num_vertices(); ++v) pool.push_back(v);
  }

  Graph graph;
  EdgeTopicProbs probs;
  LogisticAdoptionModel model;
  Campaign campaign;
  std::vector<InfluenceGraph> pieces;
  std::unique_ptr<MrrCollection> mrr;
  std::vector<VertexId> pool;
};

TEST(BabTest, PaperExampleFindsOptimalAssignment) {
  const PaperExample ex;
  const MrrCollection mrr = MrrCollection::Generate(ex.pieces, 50'000, 7);
  BabOptions opts;
  opts.budget = 2;
  opts.gap = 0.0;
  opts.exact_pruning = true;
  BabSolver solver(&mrr, ex.model(), std::vector<VertexId>{0, 1, 2, 3, 4},
                   opts);
  const BabResult res = solver.Solve();
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.plan.Contains(0, PaperExample::kA));
  EXPECT_TRUE(res.plan.Contains(1, PaperExample::kE));
  EXPECT_NEAR(res.utility, 1.05, 0.03);
}

class BabExactness
    : public ::testing::TestWithParam<std::tuple<uint64_t, int, int>> {};

TEST_P(BabExactness, ExactPruningMatchesBruteForce) {
  const auto [seed, ell, budget] = GetParam();
  BabInstance inst(9, 0.22, ell, 3, seed);
  const BruteForceResult opt =
      BruteForceSolve(*inst.mrr, inst.model, inst.pool, budget);

  BabOptions opts;
  opts.budget = budget;
  opts.gap = 0.0;
  opts.exact_pruning = true;
  BabSolver solver(inst.mrr.get(), inst.model, inst.pool, opts);
  const BabResult res = solver.Solve();
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.utility, opt.utility, 1e-9)
      << "bab plan " << res.plan.DebugString() << " vs opt "
      << opt.plan.DebugString();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BabExactness,
    ::testing::Values(std::make_tuple(uint64_t{103}, 2, 2),
                      std::make_tuple(uint64_t{107}, 2, 3),
                      std::make_tuple(uint64_t{109}, 3, 2),
                      std::make_tuple(uint64_t{113}, 1, 3),
                      std::make_tuple(uint64_t{127}, 3, 3)));

class BabGuarantee : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BabGuarantee, PaperBoundAchievesOneMinusOneOverE) {
  // With the paper's pruning (no inflation) the result must still be a
  // (1 - 1/e) approximation of the MRR optimum (Theorem 2).
  const uint64_t seed = GetParam();
  BabInstance inst(10, 0.2, 2, 3, seed);
  const int budget = 3;
  const BruteForceResult opt =
      BruteForceSolve(*inst.mrr, inst.model, inst.pool, budget);

  BabOptions opts;
  opts.budget = budget;
  opts.gap = 0.0;
  BabSolver solver(inst.mrr.get(), inst.model, inst.pool, opts);
  const BabResult res = solver.Solve();
  EXPECT_GE(res.utility + 1e-9,
            (1.0 - std::exp(-1.0)) * opt.utility);
  EXPECT_LE(res.utility, opt.utility + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BabGuarantee,
                         ::testing::Values(131, 137, 139, 149, 151));

TEST(BabTest, ProgressiveCloseToPlain) {
  BabInstance inst(30, 0.1, 3, 5, 157);
  BabOptions plain;
  plain.budget = 5;
  BabSolver plain_solver(inst.mrr.get(), inst.model, inst.pool, plain);
  const BabResult plain_res = plain_solver.Solve();

  BabOptions pro = plain;
  pro.progressive = true;
  pro.epsilon = 0.5;
  BabSolver pro_solver(inst.mrr.get(), inst.model, inst.pool, pro);
  const BabResult pro_res = pro_solver.Solve();

  EXPECT_GE(pro_res.utility, 0.85 * plain_res.utility);
}

TEST(BabTest, UpperBoundDominatesUtility) {
  BabInstance inst(20, 0.12, 2, 4, 163);
  BabOptions opts;
  opts.budget = 4;
  BabSolver solver(inst.mrr.get(), inst.model, inst.pool, opts);
  const BabResult res = solver.Solve();
  EXPECT_GE(res.upper_bound + 1e-9, res.utility);
  EXPECT_GT(res.bound_calls, 0);
}

TEST(BabTest, GapControlsTermination) {
  BabInstance inst(12, 0.15, 2, 3, 167);
  BabOptions tight;
  tight.budget = 3;
  tight.gap = 0.0;
  tight.exact_pruning = true;
  BabOptions loose = tight;
  loose.gap = 0.25;
  const BabResult tight_res =
      BabSolver(inst.mrr.get(), inst.model, inst.pool, tight).Solve();
  const BabResult loose_res =
      BabSolver(inst.mrr.get(), inst.model, inst.pool, loose).Solve();
  // A looser gap can only reduce the explored node count.
  EXPECT_LE(loose_res.nodes_expanded, tight_res.nodes_expanded);
  EXPECT_GE(loose_res.utility,
            tight_res.utility / (1.0 + loose.gap) - 1e-9);
}

TEST(BabTest, BudgetOneSelectsBestSingleAssignment) {
  BabInstance inst(12, 0.2, 2, 3, 173);
  BabOptions opts;
  opts.budget = 1;
  opts.gap = 0.0;
  opts.exact_pruning = true;
  const BabResult res =
      BabSolver(inst.mrr.get(), inst.model, inst.pool, opts).Solve();
  const BruteForceResult opt =
      BruteForceSolve(*inst.mrr, inst.model, inst.pool, 1);
  EXPECT_NEAR(res.utility, opt.utility, 1e-9);
  EXPECT_LE(res.plan.size(), 1);
}

TEST(BabTest, RestrictedPoolHonored) {
  BabInstance inst(20, 0.15, 2, 4, 179);
  std::vector<VertexId> pool{1, 3, 5, 7};
  BabOptions opts;
  opts.budget = 3;
  const BabResult res =
      BabSolver(inst.mrr.get(), inst.model, pool, opts).Solve();
  for (int j = 0; j < res.plan.num_pieces(); ++j) {
    for (VertexId v : res.plan.SeedSet(j)) {
      EXPECT_TRUE(v == 1 || v == 3 || v == 5 || v == 7);
    }
  }
}

TEST(BabTest, MaxNodesCapTripsGracefully) {
  BabInstance inst(30, 0.1, 3, 5, 181);
  BabOptions opts;
  opts.budget = 6;
  opts.gap = 0.0;
  opts.exact_pruning = true;
  opts.max_nodes = 3;
  const BabResult res =
      BabSolver(inst.mrr.get(), inst.model, inst.pool, opts).Solve();
  // Must still return a feasible plan with its true utility.
  EXPECT_GT(res.utility, 0.0);
  EXPECT_LE(res.plan.size(), 6);
}

// ------------------------------------------------------------- Ablation

TEST(BabTest, PaperTangentVariantAlsoCorrect) {
  // The paper's Figure-2 anchoring (sigmoid(-alpha) base for uncovered
  // samples) is looser but still sound: with exact pruning it must reach
  // the brute-force optimum on a tiny instance.
  BabInstance inst(9, 0.22, 2, 3, 191);
  const BruteForceResult opt =
      BruteForceSolve(*inst.mrr, inst.model, inst.pool, 2);
  BabOptions opts;
  opts.budget = 2;
  opts.gap = 0.0;
  opts.exact_pruning = true;
  opts.variant = BoundVariant::kPaperTangent;
  const BabResult res =
      BabSolver(inst.mrr.get(), inst.model, inst.pool, opts).Solve();
  EXPECT_NEAR(res.utility, opt.utility, 1e-9);
}

TEST(BabTest, PaperTangentBoundIsLooser) {
  // Quantifies why kZeroAnchored is the default: on the same instance
  // the paper anchoring's root upper bound exceeds the zero-anchored one
  // by about n * sigmoid(-alpha).
  BabInstance inst(15, 0.15, 2, 3, 307);
  BabOptions zero;
  zero.budget = 2;
  zero.max_nodes = 0;  // root bound only
  BabOptions paper = zero;
  paper.variant = BoundVariant::kPaperTangent;
  const BabResult zr =
      BabSolver(inst.mrr.get(), inst.model, inst.pool, zero).Solve();
  const BabResult pr =
      BabSolver(inst.mrr.get(), inst.model, inst.pool, paper).Solve();
  EXPECT_GT(pr.upper_bound, zr.upper_bound);
}

// ------------------------------------------------- Config property sweep

struct BabConfig {
  bool progressive;
  bool lazy;
  bool exact;
  BoundVariant variant;
};

class BabConfigSweep : public ::testing::TestWithParam<int> {};

TEST_P(BabConfigSweep, EveryConfigurationIsSoundAndFeasible) {
  // Whatever the configuration, the solver must return a feasible plan
  // whose reported utility matches an independent re-estimate, with a
  // dominating upper bound, and (since tau >= sigma pointwise) at least
  // (1 - 1/e) of the brute-force optimum.
  const int idx = GetParam();
  const BabConfig configs[] = {
      {false, false, false, BoundVariant::kZeroAnchored},
      {false, true, false, BoundVariant::kZeroAnchored},
      {true, false, false, BoundVariant::kZeroAnchored},
      {false, false, true, BoundVariant::kZeroAnchored},
      {false, false, false, BoundVariant::kPaperTangent},
      {true, false, false, BoundVariant::kPaperTangent},
      {false, true, true, BoundVariant::kZeroAnchored},
      {true, false, true, BoundVariant::kPaperTangent},
  };
  const BabConfig& cfg = configs[idx];

  BabInstance inst(10, 0.2, 2, 3, 401 + idx);
  const int budget = 3;
  const BruteForceResult opt =
      BruteForceSolve(*inst.mrr, inst.model, inst.pool, budget);

  BabOptions opts;
  opts.budget = budget;
  opts.gap = 0.0;
  opts.progressive = cfg.progressive;
  opts.lazy_greedy = cfg.lazy;
  opts.exact_pruning = cfg.exact;
  opts.variant = cfg.variant;
  const BabResult res =
      BabSolver(inst.mrr.get(), inst.model, inst.pool, opts).Solve();

  EXPECT_LE(res.plan.size(), budget);
  EXPECT_NEAR(res.utility,
              EstimateAdoptionUtility(*inst.mrr, inst.model, res.plan),
              1e-9);
  EXPECT_GE(res.upper_bound + 1e-9, res.utility);
  EXPECT_LE(res.utility, opt.utility + 1e-9);
  const double floor = cfg.progressive
                           ? (1.0 - std::exp(-1.0) - opts.epsilon)
                           : (1.0 - std::exp(-1.0));
  EXPECT_GE(res.utility + 1e-9, floor * opt.utility) << "config " << idx;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, BabConfigSweep,
                         ::testing::Range(0, 8));

// ------------------------------------------------------- GreedySigma

TEST(GreedySigmaTest, FeasibleAndReasonable) {
  BabInstance inst(20, 0.15, 3, 4, 193);
  const BabResult res =
      GreedySigmaSolve(*inst.mrr, inst.model, inst.pool, 4);
  EXPECT_LE(res.plan.size(), 4);
  EXPECT_GT(res.utility, 0.0);
  EXPECT_NEAR(res.utility,
              EstimateAdoptionUtility(*inst.mrr, inst.model, res.plan),
              1e-9);
}

// ------------------------------------------------------------ Baselines

TEST(BaselinesTest, RunAndProduceSinglePiecePlans) {
  BabInstance inst(30, 0.12, 3, 5, 197);
  const BaselineResult im =
      ImBaseline(inst.graph, inst.probs, inst.campaign, *inst.mrr,
                 inst.model, inst.pool, 4, 2000, 199);
  const BaselineResult tim =
      TimBaseline(inst.pieces, *inst.mrr, inst.model, inst.pool, 4, 2000,
                  211);
  // Both concentrate all k seeds on one piece.
  for (const BaselineResult* r : {&im, &tim}) {
    ASSERT_GE(r->chosen_piece, 0);
    for (int j = 0; j < r->plan.num_pieces(); ++j) {
      if (j != r->chosen_piece) {
        EXPECT_TRUE(r->plan.SeedSet(j).empty());
      }
    }
    EXPECT_GT(r->utility, 0.0);
  }
}

TEST(BaselinesTest, BabBeatsOrMatchesBaselines) {
  BabInstance inst(30, 0.12, 3, 5, 223);
  const int k = 4;
  const BaselineResult im =
      ImBaseline(inst.graph, inst.probs, inst.campaign, *inst.mrr,
                 inst.model, inst.pool, k, 2000, 227);
  const BaselineResult tim =
      TimBaseline(inst.pieces, *inst.mrr, inst.model, inst.pool, k, 2000,
                  229);
  BabOptions opts;
  opts.budget = k;
  const BabResult bab =
      BabSolver(inst.mrr.get(), inst.model, inst.pool, opts).Solve();
  EXPECT_GE(bab.utility + 1e-6, im.utility * (1 - 1e-9));
  EXPECT_GE(bab.utility + 1e-6, tim.utility * (1 - 1e-9));
}

/// Order-sensitive FNV-1a over a BaselineResult: every piece's seed set,
/// the bits of the utility, and the chosen piece (not the timing).
uint64_t BaselineHash(const BaselineResult& r) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  mix(static_cast<uint64_t>(r.plan.num_pieces()));
  for (int j = 0; j < r.plan.num_pieces(); ++j) {
    mix(r.plan.SeedSet(j).size());
    for (const VertexId v : r.plan.SeedSet(j)) mix(static_cast<uint64_t>(v));
  }
  mix(std::bit_cast<uint64_t>(r.utility));
  mix(static_cast<uint64_t>(static_cast<int64_t>(r.chosen_piece)));
  return h;
}

// Recorded when both baselines sampled a dedicated RR-set collection and
// TIM rebuilt each piece graph itself; one-piece MrrCollections over the
// context's piece graphs must reproduce every bit.
TEST(BaselinesTest, OutputsMatchThePinnedHashes) {
  BabInstance inst(30, 0.12, 3, 5, 197);
  EXPECT_EQ(BaselineHash(ImBaseline(inst.graph, inst.probs, inst.campaign,
                                    *inst.mrr, inst.model, inst.pool, 4,
                                    2000, 199)),
            1660290603635818144ull);
  EXPECT_EQ(BaselineHash(TimBaseline(inst.pieces, *inst.mrr, inst.model,
                                     inst.pool, 4, 2000, 211)),
            14741149985153474282ull);

  // The integration suite's lastfm pipeline.
  const Dataset lastfm = MakeDatasetByName("lastfm", 1.0, 5);
  Rng rng(7);
  const Campaign campaign =
      Campaign::SampleUniformPieces(3, lastfm.num_topics, &rng);
  const std::vector<InfluenceGraph> pieces =
      BuildPieceGraphs(*lastfm.graph, *lastfm.probs, campaign);
  const MrrCollection mrr = MrrCollection::Generate(pieces, 20'000, 11);
  const LogisticAdoptionModel model(2.0, 1.0);
  EXPECT_EQ(BaselineHash(ImBaseline(*lastfm.graph, *lastfm.probs, campaign,
                                    mrr, model, lastfm.promoter_pool, 10,
                                    5000, 13)),
            5547357340513483178ull);
  EXPECT_EQ(BaselineHash(TimBaseline(pieces, mrr, model,
                                     lastfm.promoter_pool, 10, 5000, 17)),
            16103612778894485369ull);
}

}  // namespace
}  // namespace oipa
