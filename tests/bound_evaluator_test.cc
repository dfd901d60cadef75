#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>
#include <cmath>

#include "graph/generators.h"
#include "oipa/adoption.h"
#include "oipa/bound_evaluator.h"
#include "oipa/branch_and_bound.h"
#include "oipa/brute_force.h"
#include "rrset/mrr_collection.h"
#include "tests/paper_example.h"
#include "topic/prob_models.h"
#include "util/random.h"

namespace oipa {
namespace {

using testing_support::PaperExample;

/// Small random OIPA instance shared by the bound tests.
struct SmallInstance {
  SmallInstance(int n, double edge_p, int ell, int num_topics,
                uint64_t seed, double alpha = 2.5, double beta = 1.0)
      : graph(GenerateErdosRenyi(n, edge_p, seed)),
        probs(AssignWeightedCascadeTopics(graph, num_topics, 2.0,
                                          seed + 1)),
        model(alpha, beta) {
    Rng rng(seed + 2);
    campaign = Campaign::SampleUniformPieces(ell, num_topics, &rng);
    pieces = BuildPieceGraphs(graph, probs, campaign);
    mrr = std::make_unique<MrrCollection>(
        MrrCollection::Generate(pieces, 4000, seed + 3));
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      pool.push_back(v);
    }
  }

  Graph graph;
  EdgeTopicProbs probs;
  LogisticAdoptionModel model;
  Campaign campaign;
  std::vector<InfluenceGraph> pieces;
  std::unique_ptr<MrrCollection> mrr;
  std::vector<VertexId> pool;
};

TEST(BoundEvaluatorTest, BudgetZeroReturnsAnchorOnly) {
  SmallInstance inst(15, 0.15, 2, 4, 51);
  BoundEvaluator eval(inst.mrr.get(), inst.model, inst.pool);
  CoverageState state(inst.mrr.get(),
                      inst.model.AdoptionTable(inst.mrr->num_pieces()));
  state.AddSeed(0, 0);
  const BoundResult r = eval.ComputeBound(&state, 0, {});
  EXPECT_TRUE(r.additions.empty());
  EXPECT_FALSE(r.first_pick.valid());
  EXPECT_NEAR(r.sigma, state.Utility(), 1e-12);
  // The surrogate dominates; with the zero-anchored variant and no
  // additions it is tight (equal up to floating-point accumulation).
  EXPECT_GE(r.tau + 1e-9, r.sigma);
}

TEST(BoundEvaluatorTest, NoBudgetLeftEvaluatesNoCandidate) {
  // With no budget left the bound is the base tau, whichever greedy
  // computes it, and none of them evaluates any of the 90 candidates.
  SmallInstance inst(30, 0.1, 3, 5, 211);
  BoundEvaluator eval(inst.mrr.get(), inst.model, inst.pool);
  CoverageState state(inst.mrr.get(),
                      inst.model.AdoptionTable(inst.mrr->num_pieces()));
  state.AddSeed(0, 0);
  const BoundResult plain = eval.ComputeBound(&state, 0, {});
  const BoundResult lazy = eval.ComputeBoundLazy(&state, 0, {});
  const BoundResult pro = eval.ComputeBoundPro(&state, 0, {}, 0.5, false);
  for (const BoundResult* r : {&plain, &lazy, &pro}) {
    EXPECT_EQ(r->tau_evals, 0);
    EXPECT_TRUE(r->additions.empty());
    EXPECT_EQ(r->tau, plain.tau);
    EXPECT_EQ(r->sigma, plain.sigma);
  }
  EXPECT_GT(eval.ComputeBoundLazy(&state, 1, {}).tau_evals, 0);
}

TEST(BoundEvaluatorTest, AdditionsRespectBudgetAndPool) {
  SmallInstance inst(20, 0.12, 3, 5, 53);
  // Restrict the pool to even vertices.
  std::vector<VertexId> pool;
  for (VertexId v = 0; v < 20; v += 2) pool.push_back(v);
  BoundEvaluator eval(inst.mrr.get(), inst.model, pool);
  CoverageState state(inst.mrr.get(),
                      inst.model.AdoptionTable(inst.mrr->num_pieces()));
  const BoundResult r = eval.ComputeBound(&state, 4, {});
  EXPECT_LE(r.additions.size(), 4u);
  for (const auto& [piece, v] : r.additions) {
    EXPECT_EQ(v % 2, 0);
    EXPECT_GE(piece, 0);
    EXPECT_LT(piece, 3);
  }
}

TEST(BoundEvaluatorTest, ExclusionsAreHonored) {
  SmallInstance inst(15, 0.2, 2, 4, 57);
  BoundEvaluator eval(inst.mrr.get(), inst.model, inst.pool);
  CoverageState state(inst.mrr.get(),
                      inst.model.AdoptionTable(inst.mrr->num_pieces()));
  // First find what greedy picks unconstrained...
  const BoundResult free = eval.ComputeBound(&state, 1, {});
  ASSERT_TRUE(free.first_pick.valid());
  // ...then exclude exactly that pair and require a different pick.
  const std::vector<Assignment> excl = {
      {free.first_pick.piece, free.first_pick.v}};
  const BoundResult constrained = eval.ComputeBound(&state, 1, excl);
  if (constrained.first_pick.valid()) {
    EXPECT_TRUE(constrained.first_pick.piece != free.first_pick.piece ||
                constrained.first_pick.v != free.first_pick.v);
  }
}

TEST(BoundEvaluatorTest, StateRestoredAfterCall) {
  SmallInstance inst(15, 0.15, 2, 4, 59);
  BoundEvaluator eval(inst.mrr.get(), inst.model, inst.pool);
  CoverageState state(inst.mrr.get(),
                      inst.model.AdoptionTable(inst.mrr->num_pieces()));
  state.AddSeed(2, 1);
  const double before = state.Utility();
  (void)eval.ComputeBound(&state, 3, {});
  // Add/remove leaves tiny floating-point residue in the running sum.
  EXPECT_NEAR(state.Utility(), before, 1e-9);
  (void)eval.ComputeBoundPro(&state, 3, {}, 0.5);
  EXPECT_NEAR(state.Utility(), before, 1e-9);
}

TEST(BoundEvaluatorTest, SyncWithCollectionMatchesFreshEvaluator) {
  // Use an evaluator, grow the collection under it, rebind, and compare
  // every bound flavor against a freshly constructed evaluator — the
  // appended scratch must be indistinguishable from a rebuild.
  SmallInstance inst(20, 0.12, 3, 4, 67);
  BoundEvaluator reused(inst.mrr.get(), inst.model, inst.pool);
  CoverageState pre_state(
      inst.mrr.get(), inst.model.AdoptionTable(inst.mrr->num_pieces()));
  (void)reused.ComputeBound(&pre_state, 3, {});  // dirty the scratch

  inst.mrr->Extend(inst.pieces, 9000);
  reused.SyncWithCollection();
  BoundEvaluator fresh(inst.mrr.get(), inst.model, inst.pool);

  CoverageState state_a(
      inst.mrr.get(), inst.model.AdoptionTable(inst.mrr->num_pieces()));
  CoverageState state_b(
      inst.mrr.get(), inst.model.AdoptionTable(inst.mrr->num_pieces()));
  state_a.AddSeed(2, 1);
  state_b.AddSeed(2, 1);

  const BoundResult ra = reused.ComputeBound(&state_a, 4, {});
  const BoundResult rb = fresh.ComputeBound(&state_b, 4, {});
  EXPECT_EQ(ra.additions, rb.additions);
  EXPECT_DOUBLE_EQ(ra.tau, rb.tau);
  EXPECT_DOUBLE_EQ(ra.sigma, rb.sigma);
  EXPECT_EQ(ra.tau_evals, rb.tau_evals);

  const BoundResult pa = reused.ComputeBoundPro(&state_a, 4, {}, 0.5);
  const BoundResult pb = fresh.ComputeBoundPro(&state_b, 4, {}, 0.5);
  EXPECT_EQ(pa.additions, pb.additions);
  EXPECT_DOUBLE_EQ(pa.tau, pb.tau);
  EXPECT_EQ(pa.threshold_scans, pb.threshold_scans);
}

class BoundDominance : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundDominance, TauUpperBoundsOptimalCompletion) {
  // The surrogate value at the greedy completion, divided by (1-1/e),
  // must upper bound the best true completion (this is what Theorem 2's
  // pruning soundness rests on). We verify against brute force.
  const uint64_t seed = GetParam();
  SmallInstance inst(10, 0.2, 2, 3, seed);
  const int budget = 3;
  BoundEvaluator eval(inst.mrr.get(), inst.model, inst.pool);
  CoverageState state(inst.mrr.get(),
                      inst.model.AdoptionTable(inst.mrr->num_pieces()));

  const BruteForceResult opt =
      BruteForceSolve(*inst.mrr, inst.model, inst.pool, budget);
  const BoundResult r = eval.ComputeBound(&state, budget, {});
  const double inflate = 1.0 / (1.0 - std::exp(-1.0));
  EXPECT_GE(r.tau * inflate + 1e-9, opt.utility);
  // And the candidate is feasible: sigma <= OPT.
  EXPECT_LE(r.sigma, opt.utility + 1e-9);
}

TEST_P(BoundDominance, TauDominatesSigmaOfAnyPlan) {
  // tau(S̄|S̄a) >= sigma(S̄ ∪ S̄a) for the plan tau was evaluated at:
  // per-sample lines dominate the logistic pointwise.
  const uint64_t seed = GetParam();
  SmallInstance inst(12, 0.18, 3, 4, seed + 100);
  BoundEvaluator eval(inst.mrr.get(), inst.model, inst.pool);
  CoverageState state(inst.mrr.get(),
                      inst.model.AdoptionTable(inst.mrr->num_pieces()));
  Rng rng(seed);
  // Random anchors.
  std::vector<Assignment> anchor;
  for (int t = 0; t < 2; ++t) {
    const int piece = static_cast<int>(rng.NextBounded(3));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(12));
    state.AddSeed(v, piece);
    anchor.emplace_back(piece, v);
  }
  const BoundResult r = eval.ComputeBound(&state, 2, {});
  EXPECT_GE(r.tau + 1e-9, r.sigma);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundDominance,
                         ::testing::Values(61, 67, 71, 73, 79, 83));

TEST(BoundEvaluatorTest, PaperExampleGreedyFindsOptimalPlan) {
  // On the running example with k = 2 the optimal plan is
  // {S1={a}, S2={e}}; the tangent greedy should find it outright.
  const PaperExample ex;
  const MrrCollection mrr = MrrCollection::Generate(ex.pieces, 50'000, 7);
  const LogisticAdoptionModel model = ex.model();
  std::vector<VertexId> pool{0, 1, 2, 3, 4};
  BoundEvaluator eval(&mrr, model, pool);
  CoverageState state(&mrr, model.AdoptionTable(2));
  const BoundResult r = eval.ComputeBound(&state, 2, {});
  ASSERT_EQ(r.additions.size(), 2u);
  AssignmentPlan plan(2);
  for (const auto& [piece, v] : r.additions) plan.Add(piece, v);
  EXPECT_TRUE(plan.Contains(0, PaperExample::kA));
  EXPECT_TRUE(plan.Contains(1, PaperExample::kE));
  EXPECT_NEAR(r.sigma, 1.05, 0.03);
}

class ProgressiveQuality : public ::testing::TestWithParam<double> {};

TEST_P(ProgressiveQuality, WithinTheoreticalFactorOfGreedy) {
  // Lemma 3 / Theorem 3: the progressive selection's surrogate value is
  // within (1 - 1/e - eps) of the optimum; greedy achieves (1 - 1/e).
  // We verify progressive sigma is within the combined slack of greedy.
  const double epsilon = GetParam();
  SmallInstance inst(25, 0.12, 3, 5, 89);
  const int budget = 5;
  BoundEvaluator eval(inst.mrr.get(), inst.model, inst.pool);
  CoverageState state(inst.mrr.get(),
                      inst.model.AdoptionTable(inst.mrr->num_pieces()));
  const BoundResult greedy = eval.ComputeBound(&state, budget, {});
  const BoundResult pro =
      eval.ComputeBoundPro(&state, budget, {}, epsilon);
  // tau values are comparable surrogate maximizations.
  const double factor = (1.0 - std::exp(-1.0) - epsilon) /
                        (1.0 - std::exp(-1.0));
  EXPECT_GE(pro.tau + 1e-9, greedy.tau * std::max(0.0, factor));
  EXPECT_LE(pro.additions.size(), static_cast<size_t>(budget));
}

INSTANTIATE_TEST_SUITE_P(Epsilons, ProgressiveQuality,
                         ::testing::Values(0.1, 0.3, 0.5, 0.9));

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

class LazyEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LazyEquivalence, LazyMatchesPlainGreedySelections) {
  // CELF-lazy evaluation reproduces the plain rescan bit for bit (the
  // argument is beside ComputeBoundLazy): same additions in the same
  // order, same tau and sigma bits, same first pick. Checked for both
  // surrogate anchorings, with and without anchors and exclusions.
  const uint64_t seed = GetParam();
  SmallInstance inst(30, 0.1, 3, 5, seed);
  for (const BoundVariant variant :
       {BoundVariant::kZeroAnchored, BoundVariant::kPaperTangent}) {
    for (const bool constrained : {false, true}) {
      BoundEvaluator eval_plain(inst.mrr.get(), inst.model, inst.pool,
                                variant);
      BoundEvaluator eval_lazy(inst.mrr.get(), inst.model, inst.pool,
                               variant);
      CoverageState state(inst.mrr.get(),
                          inst.model.AdoptionTable(inst.mrr->num_pieces()));
      std::vector<Assignment> excluded;
      if (constrained) {
        state.AddSeed(/*v=*/1, /*piece=*/0);
        state.AddSeed(/*v=*/7, /*piece=*/2);
        const BoundResult free = eval_plain.ComputeBound(&state, 2, {});
        excluded = free.additions;
        excluded.emplace_back(2, 3);
      }
      const BoundResult plain = eval_plain.ComputeBound(&state, 6, excluded);
      const BoundResult lazy = eval_lazy.ComputeBoundLazy(&state, 6, excluded);
      ASSERT_FALSE(plain.additions.empty());
      EXPECT_EQ(plain.additions, lazy.additions);
      EXPECT_EQ(Bits(plain.tau), Bits(lazy.tau));
      EXPECT_EQ(Bits(plain.sigma), Bits(lazy.sigma));
      EXPECT_EQ(plain.first_pick.piece, lazy.first_pick.piece);
      EXPECT_EQ(plain.first_pick.v, lazy.first_pick.v);
      EXPECT_EQ(Bits(plain.first_pick.gain), Bits(lazy.first_pick.gain));
      // Lazy should never evaluate more often than plain greedy.
      EXPECT_LE(lazy.tau_evals, plain.tau_evals);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazyEquivalence,
                         ::testing::Values(211, 223, 227, 229, 233));

/// The seed sets of `plan`, piece by piece.
std::vector<std::vector<VertexId>> SeedSets(const AssignmentPlan& plan) {
  std::vector<std::vector<VertexId>> sets;
  for (int j = 0; j < plan.num_pieces(); ++j) {
    sets.push_back(plan.SeedSet(j));
  }
  return sets;
}

TEST_P(LazyEquivalence, SearchesMatchThePlainScan) {
  // Every branch-and-bound node below the root has anchors (include
  // branches) and exclusions (exclude branches), so whole searches
  // cover both. One worker: lazy bab is plain bab bit for bit — the
  // plan, the utility and upper-bound bits, every counter but tau
  // evaluations. Several workers schedule nodes differently run to run,
  // and a utility's bits depend on the order the plan was assembled in
  // (ROADMAP item 10), so there both must reach the exact optimum.
  const uint64_t seed = GetParam();
  SmallInstance inst(30, 0.1, 3, 5, seed);
  for (const BoundVariant variant :
       {BoundVariant::kZeroAnchored, BoundVariant::kPaperTangent}) {
    for (const bool exact : {false, true}) {
      BabOptions options;
      options.budget = 4;
      options.variant = variant;
      options.exact_pruning = exact;
      options.max_nodes = 200;
      options.lazy_greedy = false;
      const BabResult plain =
          BabSolver(inst.mrr.get(), inst.model, inst.pool, options).Solve();
      options.lazy_greedy = true;
      const BabResult lazy =
          BabSolver(inst.mrr.get(), inst.model, inst.pool, options).Solve();
      EXPECT_EQ(SeedSets(plain.plan), SeedSets(lazy.plan));
      EXPECT_EQ(Bits(plain.utility), Bits(lazy.utility));
      EXPECT_EQ(Bits(plain.upper_bound), Bits(lazy.upper_bound));
      EXPECT_EQ(plain.nodes_expanded, lazy.nodes_expanded);
      EXPECT_EQ(plain.bound_calls, lazy.bound_calls);
      EXPECT_EQ(plain.converged, lazy.converged);
    }
  }
}

TEST(LazyEquivalence, ParallelSearchesReachTheOptimum) {
  SmallInstance inst(9, 0.22, 2, 3, 107);
  const BruteForceResult opt =
      BruteForceSolve(*inst.mrr, inst.model, inst.pool, 3);
  for (const BoundVariant variant :
       {BoundVariant::kZeroAnchored, BoundVariant::kPaperTangent}) {
    for (const int threads : {1, 2, 8}) {
      for (const bool lazy : {false, true}) {
        BabOptions options;
        options.budget = 3;
        options.gap = 0.0;
        options.variant = variant;
        options.exact_pruning = true;
        options.lazy_greedy = lazy;
        options.num_threads = threads;
        const BabResult r =
            BabSolver(inst.mrr.get(), inst.model, inst.pool, options)
                .Solve();
        EXPECT_TRUE(r.converged) << threads << " workers, lazy " << lazy;
        EXPECT_NEAR(r.utility, opt.utility, 1e-9)
            << threads << " workers, lazy " << lazy;
        EXPECT_GE(r.upper_bound + 1e-9, r.utility);
      }
    }
  }
}

TEST(LazyEquivalence, RespectsExclusions) {
  SmallInstance inst(20, 0.12, 2, 4, 239);
  BoundEvaluator eval(inst.mrr.get(), inst.model, inst.pool);
  CoverageState state(inst.mrr.get(),
                      inst.model.AdoptionTable(inst.mrr->num_pieces()));
  const BoundResult free = eval.ComputeBoundLazy(&state, 1, {});
  ASSERT_TRUE(free.first_pick.valid());
  const std::vector<Assignment> excl = {
      {free.first_pick.piece, free.first_pick.v}};
  const BoundResult constrained = eval.ComputeBoundLazy(&state, 1, excl);
  if (constrained.first_pick.valid()) {
    EXPECT_TRUE(constrained.first_pick.piece != free.first_pick.piece ||
                constrained.first_pick.v != free.first_pick.v);
  }
}

TEST(ProgressiveTest, FewerEvaluationsThanGreedyOnLargerPool) {
  SmallInstance inst(60, 0.06, 3, 5, 97);
  const int budget = 8;
  BoundEvaluator eval_g(inst.mrr.get(), inst.model, inst.pool);
  BoundEvaluator eval_p(inst.mrr.get(), inst.model, inst.pool);
  CoverageState state(inst.mrr.get(),
                      inst.model.AdoptionTable(inst.mrr->num_pieces()));
  const BoundResult greedy = eval_g.ComputeBound(&state, budget, {});
  const BoundResult pro = eval_p.ComputeBoundPro(&state, budget, {}, 0.5);
  // Greedy scans all pairs every round: ~budget * pool * pieces evals.
  // Progressive sorts once and scans shrinking prefixes.
  EXPECT_LT(pro.tau_evals, greedy.tau_evals);
}

TEST(ProgressiveTest, ScanCountObeysEquationNine) {
  // Equation 9: the number of threshold scans is at most
  // log_{1+eps}(2k) + O(1).
  SmallInstance inst(40, 0.08, 3, 5, 101);
  BoundEvaluator eval(inst.mrr.get(), inst.model, inst.pool);
  CoverageState state(inst.mrr.get(),
                      inst.model.AdoptionTable(inst.mrr->num_pieces()));
  const int k = 6;
  for (double epsilon : {0.1, 0.3, 0.5, 0.9}) {
    // fill_budget off: verbatim Algorithm 3 with the Line-14 cutoff.
    const BoundResult r =
        eval.ComputeBoundPro(&state, k, {}, epsilon, /*fill_budget=*/false);
    const double limit =
        std::log(2.0 * k) / std::log(1.0 + epsilon) + 2.0;
    EXPECT_LE(r.threshold_scans, limit) << "epsilon=" << epsilon;
    EXPECT_GE(r.threshold_scans, 1);
  }
}

}  // namespace
}  // namespace oipa
