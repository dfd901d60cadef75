#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <tuple>

#include "graph/generators.h"
#include "oipa/adoption.h"
#include "oipa/assignment_plan.h"
#include "rrset/coverage_state.h"
#include "rrset/mrr_collection.h"
#include "tests/paper_example.h"
#include "topic/prob_models.h"
#include "util/random.h"

namespace oipa {
namespace {

using testing_support::PaperExample;

// -------------------------------------------------------- AssignmentPlan

TEST(AssignmentPlanTest, AddRemoveContains) {
  AssignmentPlan plan(3);
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.Add(0, 5));
  EXPECT_FALSE(plan.Add(0, 5));  // duplicate
  EXPECT_TRUE(plan.Add(2, 5));   // same vertex, different piece
  EXPECT_EQ(plan.size(), 2);
  EXPECT_TRUE(plan.Contains(0, 5));
  EXPECT_FALSE(plan.Contains(1, 5));
  EXPECT_TRUE(plan.Remove(0, 5));
  EXPECT_FALSE(plan.Remove(0, 5));
  EXPECT_EQ(plan.size(), 1);
}

TEST(AssignmentPlanTest, ContainmentDefinition2) {
  AssignmentPlan small(2), big(2);
  small.Add(0, 1);
  big.Add(0, 1);
  big.Add(1, 2);
  EXPECT_TRUE(small.ContainedIn(big));
  EXPECT_FALSE(big.ContainedIn(small));
  EXPECT_TRUE(small.ContainedIn(small));
}

TEST(AssignmentPlanTest, AssignmentsEnumeration) {
  AssignmentPlan plan(2);
  plan.Add(1, 7);
  plan.Add(0, 3);
  const auto pairs = plan.Assignments();
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], std::make_pair(0, VertexId{3}));
  EXPECT_EQ(pairs[1], std::make_pair(1, VertexId{7}));
}

TEST(AssignmentPlanTest, FromSeedSets) {
  const AssignmentPlan plan =
      AssignmentPlan::FromSeedSets({{1, 2}, {}, {3}});
  EXPECT_EQ(plan.num_pieces(), 3);
  EXPECT_EQ(plan.size(), 3);
  EXPECT_TRUE(plan.Contains(2, 3));
}

// --------------------------------------------------- Poisson-binomial DP

TEST(CountDistributionTest, MatchesBruteForceEnumeration) {
  const std::vector<double> probs{0.3, 0.7, 0.5};
  const std::vector<double> f{0.0, 0.1, 0.4, 0.9};
  // Brute force over all 2^3 outcomes.
  double expected = 0.0;
  for (int mask = 0; mask < 8; ++mask) {
    double p = 1.0;
    int count = 0;
    for (int j = 0; j < 3; ++j) {
      if ((mask >> j) & 1) {
        p *= probs[j];
        ++count;
      } else {
        p *= 1.0 - probs[j];
      }
    }
    expected += p * f[count];
  }
  EXPECT_NEAR(ExpectationOverCountDistribution(probs, f), expected, 1e-12);
}

TEST(CountDistributionTest, DegenerateProbabilities) {
  EXPECT_DOUBLE_EQ(
      ExpectationOverCountDistribution({1.0, 1.0}, {0.0, 0.5, 0.8}), 0.8);
  EXPECT_DOUBLE_EQ(
      ExpectationOverCountDistribution({0.0, 0.0}, {0.3, 0.5, 0.8}), 0.3);
}

// ------------------------------------------------------- Paper Example 1

TEST(PaperExampleTest, Example1UtilityIs105) {
  const PaperExample ex;
  AssignmentPlan plan(2);
  plan.Add(0, PaperExample::kA);
  plan.Add(1, PaperExample::kE);
  const double utility =
      ExactAdoptionUtility(ex.pieces, ex.model(), plan);
  // 2 users at one piece + 3 users at two pieces.
  const double expected = 2.0 / (1.0 + std::exp(2.0)) +
                          3.0 / (1.0 + std::exp(1.0));
  EXPECT_NEAR(utility, expected, 1e-12);
  EXPECT_NEAR(utility, 1.05, 0.01);  // the paper's rounded value
}

TEST(PaperExampleTest, Example2NonSubmodularity) {
  // delta_{S̄y}(S̄) > delta_{S̄x}(S̄) even though S̄x ⊆ S̄y: the adoption
  // utility is NOT submodular (Example 2).
  const PaperExample ex;
  const LogisticAdoptionModel m = ex.model();

  AssignmentPlan empty(2);
  AssignmentPlan y(2);
  y.Add(0, PaperExample::kA);
  AssignmentPlan s(2);
  s.Add(1, PaperExample::kE);
  AssignmentPlan y_plus_s = y;
  y_plus_s.Add(1, PaperExample::kE);

  const double sigma_empty = ExactAdoptionUtility(ex.pieces, m, empty);
  const double sigma_y = ExactAdoptionUtility(ex.pieces, m, y);
  const double sigma_s = ExactAdoptionUtility(ex.pieces, m, s);
  const double sigma_ys = ExactAdoptionUtility(ex.pieces, m, y_plus_s);

  EXPECT_NEAR(sigma_empty, 0.0, 1e-12);
  EXPECT_NEAR(sigma_y, 0.48, 0.01);
  const double delta_from_y = sigma_ys - sigma_y;      // ~0.57
  const double delta_from_empty = sigma_s - sigma_empty;  // ~0.48
  EXPECT_GT(delta_from_y, delta_from_empty);
  EXPECT_NEAR(delta_from_y, 0.57, 0.01);
  EXPECT_NEAR(delta_from_empty, 0.48, 0.01);
}

TEST(PaperExampleTest, MonotonicityHolds) {
  const PaperExample ex;
  const LogisticAdoptionModel m = ex.model();
  AssignmentPlan plan(2);
  double prev = ExactAdoptionUtility(ex.pieces, m, plan);
  const std::vector<Assignment> adds = {
      {0, PaperExample::kA}, {1, PaperExample::kE}, {0, PaperExample::kC}};
  for (const auto& [piece, v] : adds) {
    plan.Add(piece, v);
    const double cur = ExactAdoptionUtility(ex.pieces, m, plan);
    EXPECT_GE(cur + 1e-12, prev);
    prev = cur;
  }
}

// --------------------------------------------- Estimator cross-validation

TEST(EstimatorTest, MrrMatchesExactOnPaperExample) {
  const PaperExample ex;
  const MrrCollection mrr = MrrCollection::Generate(ex.pieces, 80'000, 7);
  AssignmentPlan plan(2);
  plan.Add(0, PaperExample::kA);
  plan.Add(1, PaperExample::kE);
  const double exact = ExactAdoptionUtility(ex.pieces, ex.model(), plan);
  const double est = EstimateAdoptionUtility(mrr, ex.model(), plan);
  // Deterministic graph: the only randomness is root choice.
  EXPECT_NEAR(est, exact, 0.03);
}

TEST(EstimatorTest, SimulationMatchesExactOnPaperExample) {
  const PaperExample ex;
  AssignmentPlan plan(2);
  plan.Add(0, PaperExample::kA);
  plan.Add(1, PaperExample::kE);
  const double exact = ExactAdoptionUtility(ex.pieces, ex.model(), plan);
  const double sim =
      SimulateAdoptionUtility(ex.pieces, ex.model(), plan, 100, 9);
  EXPECT_NEAR(sim, exact, 1e-9);  // deterministic cascades
}

class EstimatorUnbiasedness
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(EstimatorUnbiasedness, MrrAgreesWithExactOnRandomInstances) {
  const auto [n, edge_p, ell] = GetParam();
  const Graph g = GenerateErdosRenyi(n, edge_p, 31 + n + ell);
  if (g.num_edges() > 22) GTEST_SKIP() << "exact enumeration too large";
  const EdgeTopicProbs probs =
      AssignWeightedCascadeTopics(g, 4, 2.0, 37);
  Rng rng(41 + ell);
  const Campaign campaign = Campaign::SampleUniformPieces(ell, 4, &rng);
  const auto pieces = BuildPieceGraphs(g, probs, campaign);
  const LogisticAdoptionModel model(2.0, 1.0);

  AssignmentPlan plan(ell);
  plan.Add(0, 0);
  if (ell > 1) plan.Add(1, std::min<VertexId>(3, n - 1));

  const double exact = ExactAdoptionUtility(pieces, model, plan);
  const MrrCollection mrr = MrrCollection::Generate(pieces, 60'000, 43);
  const double est = EstimateAdoptionUtility(mrr, model, plan);
  EXPECT_NEAR(est, exact, 0.08 * std::max(0.5, exact));

  const double sim = SimulateAdoptionUtility(pieces, model, plan,
                                             15'000, 47);
  EXPECT_NEAR(sim, exact, 0.08 * std::max(0.5, exact));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EstimatorUnbiasedness,
    ::testing::Values(std::make_tuple(8, 0.25, 1),
                      std::make_tuple(8, 0.25, 2),
                      std::make_tuple(10, 0.15, 3),
                      std::make_tuple(12, 0.1, 2),
                      std::make_tuple(6, 0.4, 4)));

TEST(EstimatorTest, EmptyPlanIsZero) {
  const PaperExample ex;
  const MrrCollection mrr = MrrCollection::Generate(ex.pieces, 1000, 7);
  const AssignmentPlan plan(2);
  EXPECT_EQ(EstimateAdoptionUtility(mrr, ex.model(), plan), 0.0);
  EXPECT_EQ(ExactAdoptionUtility(ex.pieces, ex.model(), plan), 0.0);
}

// ------------------------------------------------ scan-and-replay scorer

/// The scorer EstimateAdoptionUtility replaced: a CoverageState over an
/// indexed collection that AddSeeds the plan's Assignments() in order.
double WalkUtility(const MrrCollection& indexed,
                   const LogisticAdoptionModel& model,
                   const AssignmentPlan& plan) {
  CoverageState state(&indexed, model.AdoptionTable(indexed.num_pieces()));
  for (const auto& [piece, v] : plan.Assignments()) state.AddSeed(v, piece);
  return state.Utility();
}

/// Generates theta samples in three growth steps (three index segments
/// when indexed) on varying worker counts.
MrrCollection GrownCollection(const std::vector<InfluenceGraph>& pieces,
                              int64_t theta, DiffusionModel model,
                              bool indexed) {
  MrrCollection mrr = MrrCollection::Generate(pieces, theta / 3, 67, model,
                                              2, indexed);
  mrr.Extend(pieces, 2 * theta / 3, 3);
  mrr.Extend(pieces, theta, 1);
  return mrr;
}

class ScorerEquivalence
    : public ::testing::TestWithParam<std::tuple<int, DiffusionModel>> {};

TEST_P(ScorerEquivalence, ScanEqualsCoverageStateWalkBitwise) {
  const auto [ell, diffusion] = GetParam();
  const Graph g = GenerateHolmeKim(150, 3, 0.3, 53 + ell);
  const EdgeTopicProbs probs = AssignWeightedCascadeTopics(g, 6, 2.0, 59);
  Rng rng(61 + ell);
  const Campaign campaign = Campaign::SampleUniformPieces(ell, 6, &rng);
  const auto pieces = BuildPieceGraphs(g, probs, campaign);
  const LogisticAdoptionModel model(2.0, 1.0);
  constexpr int64_t kTheta = 3'000;
  const MrrCollection fresh =
      MrrCollection::Generate(pieces, kTheta, 67, diffusion, 1);
  const MrrCollection grown =
      GrownCollection(pieces, kTheta, diffusion, /*indexed=*/true);
  ASSERT_EQ(grown.num_index_segments(), 3);
  const MrrCollection unindexed = MrrCollection::Generate(
      pieces, kTheta, 67, diffusion, 2, /*indexed=*/false);
  const MrrCollection unindexed_grown =
      GrownCollection(pieces, kTheta, diffusion, /*indexed=*/false);
  ASSERT_EQ(unindexed.num_index_segments(), 0);

  // Seeds come from the Holme-Kim hubs (the oldest vertices), so a plan
  // holds several seeds per piece that cover the same samples.
  Rng plan_rng(71 + ell);
  int64_t shared_covers = 0;
  for (int trial = 0; trial < 40; ++trial) {
    AssignmentPlan plan(ell);
    const int size =
        trial % 10 == 0
            ? 0
            : 1 + static_cast<int>(plan_rng.NextBounded(3 * ell + 4));
    while (plan.size() < size) {
      plan.Add(static_cast<int>(plan_rng.NextBounded(ell)),
               static_cast<VertexId>(plan_rng.NextBounded(12)));
    }
    for (int j = 0; j < ell; ++j) {
      std::vector<int> seeds_covering(kTheta, 0);
      for (const VertexId v : plan.SeedSet(j)) {
        for (const int64_t i : fresh.SamplesContaining(j, v)) {
          shared_covers += ++seeds_covering[i] == 2;
        }
      }
    }
    const uint64_t walk =
        std::bit_cast<uint64_t>(WalkUtility(fresh, model, plan));
    EXPECT_EQ(std::bit_cast<uint64_t>(WalkUtility(grown, model, plan)),
              walk);
    for (const MrrCollection* mrr :
         {&fresh, &grown, &unindexed, &unindexed_grown}) {
      EXPECT_EQ(std::bit_cast<uint64_t>(
                    EstimateAdoptionUtility(*mrr, model, plan)),
                walk)
          << plan.DebugString() << " on " << mrr->num_index_segments()
          << " index segments";
    }
  }
  EXPECT_GT(shared_covers, 0) << "no plan had two seeds of one piece "
                                 "covering one sample";
}

INSTANTIATE_TEST_SUITE_P(
    PiecesAndModels, ScorerEquivalence,
    ::testing::Combine(
        ::testing::Values(1, 3, 8),
        ::testing::Values(DiffusionModel::kIndependentCascade,
                          DiffusionModel::kLinearThreshold)));

}  // namespace
}  // namespace oipa
