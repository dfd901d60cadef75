#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <vector>

#include "graph/generators.h"
#include "oipa/adoption.h"
#include "oipa/api/plan_request.h"
#include "oipa/api/planning_context.h"
#include "oipa/api/solver_registry.h"
#include "oipa/branch_and_bound.h"
#include "oipa/brute_force.h"
#include "rrset/mrr_collection.h"
#include "topic/prob_models.h"
#include "util/random.h"
#include "util/threading.h"

namespace oipa {
namespace {

/// Self-contained BAB instance (mirrors bab_test.cc's helper).
struct ParInstance {
  ParInstance(int n, double edge_p, int ell, int num_topics, uint64_t seed,
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

// --------------------------------------------- sequential equivalence

TEST(ParallelBabTest, OneThreadIsBitIdenticalToSequentialEngine) {
  // Golden expectations recorded from the pre-refactor sequential
  // engine on this fixed instance: the num_threads=1 path must keep
  // reproducing the classic engine's search trace exactly, so any
  // drift in the refactored shared pieces (PlanReplay diffing,
  // Snapshot/Restore in FinishResult, the delta_f table) shows up
  // here instead of passing silently.
  ParInstance inst(20, 0.12, 2, 4, 163);
  BabOptions sequential;
  sequential.budget = 4;  // num_threads defaults to 1
  BabOptions one_thread = sequential;
  one_thread.num_threads = 1;

  const BabResult a =
      BabSolver(inst.mrr.get(), inst.model, inst.pool, sequential).Solve();
  const BabResult b =
      BabSolver(inst.mrr.get(), inst.model, inst.pool, one_thread).Solve();
  EXPECT_EQ(a.utility, b.utility);
  EXPECT_EQ(a.upper_bound, b.upper_bound);
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded);
  EXPECT_EQ(a.bound_calls, b.bound_calls);
  EXPECT_EQ(a.plan.Assignments(), b.plan.Assignments());

  EXPECT_TRUE(a.converged);
  EXPECT_EQ(a.nodes_expanded, 3);
  EXPECT_EQ(a.bound_calls, 7);
  EXPECT_NEAR(a.utility, 2.1230661932217187, 1e-12);
  EXPECT_NEAR(a.upper_bound, 2.1230661932217187, 1e-12);
  const std::vector<Assignment> golden_plan{{0, 11}, {0, 9}, {1, 2},
                                            {1, 11}};
  EXPECT_EQ(a.plan.Assignments(), golden_plan);
}

/// Order-sensitive FNV-1a over every observable of one-worker solves:
/// utility and upper-bound bits, the counters, the stop flags, the plan,
/// and each on_progress snapshot (counter and bound bits).
struct TraceHash {
  uint64_t h = 1469598103934665603ull;
  void Mix(uint64_t v) { h = (h ^ v) * 1099511628211ull; }
  void MixBits(double d) { Mix(std::bit_cast<uint64_t>(d)); }
  void MixSolve(const BabResult& r, const std::vector<BabProgress>& trace) {
    MixBits(r.utility);
    MixBits(r.upper_bound);
    Mix(static_cast<uint64_t>(r.nodes_expanded));
    Mix(static_cast<uint64_t>(r.bound_calls));
    Mix(static_cast<uint64_t>(r.tau_evals));
    Mix(static_cast<uint64_t>(r.converged) |
        static_cast<uint64_t>(r.cancelled) << 1);
    for (const auto& [piece, v] : r.plan.Assignments()) {
      Mix(static_cast<uint64_t>(piece));
      Mix(static_cast<uint64_t>(v));
    }
    Mix(trace.size());
    for (const BabProgress& p : trace) {
      Mix(static_cast<uint64_t>(p.nodes_expanded));
      MixBits(p.incumbent);
      MixBits(p.upper_bound);
    }
  }
};

TEST(ParallelBabTest, OneWorkerSearchTraceMatchesPinnedHashes) {
  // Pinned on the dedicated sequential engine that num_threads = 1 ran
  // before the work-stealing search absorbed it: any change to the
  // one-worker node order, tie-breaking, incumbent precision or stop
  // paths moves at least one hash. Rows are instance seeds; columns are
  // bab, CELF-lazy bab and bab-p, each over exact pruning on/off, both
  // bound variants, gap 0 and 0.01, budgets 3 and 5, and three stop
  // paths: a run capped at 40 nodes (about a fifth converge first), a
  // max_nodes trip at 4, and a cancel at node 5.
  constexpr uint64_t kSeeds[] = {401, 409, 419};
  constexpr uint64_t kPinned[3][3] = {
      {17543382590663170250ull, 4393623135457481230ull,
       15457594364613844264ull},
      {2569907215829683541ull, 13296049422898888749ull,
       6148237239201125955ull},
      {16605076361915219927ull, 17003030523984407915ull,
       18384537261088709009ull},
  };
  for (int s = 0; s < 3; ++s) {
    ParInstance inst(30, 0.1, 3, 5, kSeeds[s]);
    for (int solver = 0; solver < 3; ++solver) {
      TraceHash hash;
      for (const bool exact : {false, true}) {
        for (const BoundVariant variant :
             {BoundVariant::kZeroAnchored, BoundVariant::kPaperTangent}) {
          for (const double gap : {0.0, 0.01}) {
            for (const int budget : {3, 5}) {
              for (int stop = 0; stop < 3; ++stop) {
                BabOptions opts;
                opts.budget = budget;
                opts.gap = gap;
                opts.progressive = solver == 2;
                opts.lazy_greedy = solver == 1;
                opts.variant = variant;
                opts.exact_pruning = exact;
                opts.num_threads = 1;
                opts.max_nodes = stop == 1 ? 4 : 40;
                std::vector<BabProgress> trace;
                opts.on_progress = [&trace, stop](const BabProgress& p) {
                  trace.push_back(p);
                  return stop != 2 || p.nodes_expanded < 5;
                };
                hash.MixSolve(
                    BabSolver(inst.mrr.get(), inst.model, inst.pool, opts)
                        .Solve(),
                    trace);
              }
            }
          }
        }
      }
      EXPECT_EQ(hash.h, kPinned[s][solver])
          << "seed " << kSeeds[s] << ", solver " << solver;
    }
  }
}

TEST(ParallelBabTest, ExactParallelSearchMatchesBruteForce) {
  // gap = 0 + exact pruning: whatever the schedule, the parallel search
  // must terminate on the true optimum. 32 workers on this tiny
  // instance leaves most deques permanently empty — the all-thieves
  // regime that stresses the termination counter.
  ParInstance inst(9, 0.22, 2, 3, 107);
  const BruteForceResult opt =
      BruteForceSolve(*inst.mrr, inst.model, inst.pool, 3);
  for (const int threads : {2, 8, 32}) {
    BabOptions opts;
    opts.budget = 3;
    opts.gap = 0.0;
    opts.exact_pruning = true;
    opts.num_threads = threads;
    const BabResult res =
        BabSolver(inst.mrr.get(), inst.model, inst.pool, opts).Solve();
    EXPECT_TRUE(res.converged) << threads << " threads";
    EXPECT_NEAR(res.utility, opt.utility, 1e-9) << threads << " threads";
    EXPECT_GE(res.upper_bound + 1e-9, res.utility);
  }
}

class ParallelEquivalence
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(ParallelEquivalence, IncumbentWithinGapOfSequential) {
  const auto [seed, progressive] = GetParam();
  ParInstance inst(30, 0.1, 3, 5, seed);
  BabOptions opts;
  opts.budget = 5;
  opts.progressive = progressive;

  const BabResult seq =
      BabSolver(inst.mrr.get(), inst.model, inst.pool, opts).Solve();
  BabOptions par = opts;
  par.num_threads = 4;
  const BabResult res =
      BabSolver(inst.mrr.get(), inst.model, inst.pool, par).Solve();

  // Both searches prune by the same rule against their own incumbent, so
  // the incumbents agree to within the termination gap (plus a little
  // slack: the paper's default pruning is only gap-rigorous for sigma
  // under exact_pruning).
  const double band = 1.0 + opts.gap + 0.02;
  EXPECT_GE(res.utility * band + 1e-9, seq.utility);
  EXPECT_GE(seq.utility * band + 1e-9, res.utility);
  EXPECT_GE(res.upper_bound + 1e-9, res.utility);
  // The reported utility is the true MRR estimate of the plan.
  EXPECT_NEAR(res.utility,
              EstimateAdoptionUtility(*inst.mrr, inst.model, res.plan),
              1e-9);
  EXPECT_LE(res.plan.size(), 5);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelEquivalence,
    ::testing::Values(std::make_tuple(uint64_t{157}, false),
                      std::make_tuple(uint64_t{157}, true),
                      std::make_tuple(uint64_t{193}, false),
                      std::make_tuple(uint64_t{211}, true)));

// ------------------------------------------------- stop-path behavior

TEST(ParallelBabTest, MaxNodesCapTripsGracefully) {
  ParInstance inst(30, 0.1, 3, 5, 181);
  BabOptions opts;
  opts.budget = 6;
  opts.gap = 0.0;
  opts.exact_pruning = true;
  opts.max_nodes = 3;
  opts.num_threads = 4;
  const BabResult res =
      BabSolver(inst.mrr.get(), inst.model, inst.pool, opts).Solve();
  EXPECT_FALSE(res.converged);
  EXPECT_GT(res.utility, 0.0);
  EXPECT_LE(res.plan.size(), 6);
  EXPECT_GE(res.upper_bound + 1e-9, res.utility);
}

TEST(ParallelBabTest, FourThreadProgressHookCancels) {
  ParInstance inst(30, 0.1, 3, 5, 157);
  BabOptions opts;
  opts.budget = 6;
  opts.gap = 0.0;
  opts.num_threads = 4;
  std::atomic<int> calls{0};
  std::atomic<int64_t> last_nodes{-1};
  opts.on_progress = [&](const BabProgress& p) {
    last_nodes.store(p.nodes_expanded);
    EXPECT_GE(p.upper_bound + 1e-9, p.incumbent);
    return ++calls < 5;  // cancel on the fifth snapshot
  };
  const BabResult res =
      BabSolver(inst.mrr.get(), inst.model, inst.pool, opts).Solve();
  EXPECT_TRUE(res.cancelled);
  EXPECT_FALSE(res.converged);
  EXPECT_GE(calls.load(), 5);
  EXPECT_GE(last_nodes.load(), 0);
  EXPECT_GT(res.utility, 0.0);  // the incumbent survives cancellation
}

// ------------------------------------------------------- API plumbing

TEST(ParallelBabTest, RequestThreadsFlowThroughTheApi) {
  ParInstance inst(30, 0.1, 2, 4, 223);
  auto context = PlanningContext::Borrow(
      inst.graph, inst.probs, inst.campaign, inst.model,
      {.theta = 4000, .holdout_theta = 0, .seed = 41});
  ASSERT_TRUE(context.ok()) << context.status().ToString();

  PlanRequest request;
  request.solver = "bab-p";
  request.pool = inst.pool;
  request.budgets = {4};
  const auto seq = Solve(**context, request);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();

  request.num_threads = 4;
  const auto par = Solve(**context, request);
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  EXPECT_GE(par->utility * (1.0 + request.options.gap) + 1e-9,
            seq->utility);
  EXPECT_GE(seq->utility * (1.0 + request.options.gap) + 1e-9,
            par->utility);

  request.num_threads = -2;
  EXPECT_EQ(Solve(**context, request).status().code(),
            StatusCode::kInvalidArgument);
  request.num_threads = kMaxBabWorkers + 1;  // would exhaust OS threads
  EXPECT_EQ(Solve(**context, request).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ParallelBabTest, FourThreadCancellationThroughTheApi) {
  ParInstance inst(30, 0.1, 3, 5, 227);
  auto context = PlanningContext::Borrow(
      inst.graph, inst.probs, inst.campaign, inst.model,
      {.theta = 4000, .holdout_theta = 0, .seed = 43});
  ASSERT_TRUE(context.ok()) << context.status().ToString();

  PlanRequest request;
  request.solver = "bab";
  request.pool = inst.pool;
  request.budgets = {6};
  request.options.gap = 0.0;
  request.num_threads = 4;
  std::atomic<int> calls{0};
  request.progress = [&](const PlanProgress& p) {
    EXPECT_EQ(p.solver, "bab");
    EXPECT_EQ(p.budget, 6);
    return ++calls < 4;
  };
  const auto r = Solve(**context, request);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->cancelled);
  EXPECT_FALSE(r->converged);
  EXPECT_GE(calls.load(), 4);
  EXPECT_GT(r->utility, 0.0);
}

// ------------------------------------------------------- greedy-sigma

/// Naive reference: full (piece, vertex) rescan per round, zero-gain
/// picks allowed so the budget always fills, smallest (piece, v) wins
/// ties — the contract GreedySigmaSolve's CELF path must reproduce.
AssignmentPlan NaiveGreedySigma(const MrrCollection& mrr,
                                const LogisticAdoptionModel& model,
                                const std::vector<VertexId>& pool,
                                int budget) {
  CoverageState state(&mrr, model.AdoptionTable(mrr.num_pieces()));
  AssignmentPlan plan(mrr.num_pieces());
  for (int round = 0; round < budget; ++round) {
    double best_gain = -1.0;
    int best_piece = -1;
    VertexId best_v = -1;
    for (int j = 0; j < mrr.num_pieces(); ++j) {
      for (VertexId v : pool) {
        if (plan.Contains(j, v)) continue;
        const double gain = state.GainOfAdding(v, j);
        if (gain > best_gain) {
          best_gain = gain;
          best_piece = j;
          best_v = v;
        }
      }
    }
    if (best_piece < 0) break;
    state.AddSeed(best_v, best_piece);
    plan.Add(best_piece, best_v);
  }
  return plan;
}

class GreedySigmaLazy
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(GreedySigmaLazy, MatchesNaiveRescanExactly) {
  // beta/alpha sweeps across the submodular AND the increasing-marginal
  // (non-submodular) regimes — the suffix-max bound must keep lazy
  // selection exact in both.
  const auto [seed, alpha] = GetParam();
  ParInstance inst(20, 0.15, 3, 4, seed, alpha, 1.0);
  const int budget = 5;
  const BabResult lazy =
      GreedySigmaSolve(*inst.mrr, inst.model, inst.pool, budget);
  const AssignmentPlan naive =
      NaiveGreedySigma(*inst.mrr, inst.model, inst.pool, budget);
  EXPECT_EQ(lazy.plan.Assignments(), naive.Assignments());
  EXPECT_TRUE(lazy.converged);
  EXPECT_EQ(lazy.plan.size(), budget);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, GreedySigmaLazy,
    ::testing::Values(std::make_tuple(uint64_t{193}, 2.5),
                      std::make_tuple(uint64_t{193}, 4.0),
                      std::make_tuple(uint64_t{307}, 1.0),
                      std::make_tuple(uint64_t{311}, 3.0)));

TEST(GreedySigmaTest, UnderfilledBudgetReportsNotConverged) {
  // Candidate space (pieces * pool) smaller than the budget: the plan
  // cannot fill, and the result must say so instead of silently
  // returning a short plan.
  ParInstance inst(12, 0.2, 2, 3, 173);
  const std::vector<VertexId> tiny_pool{1, 3};
  const BabResult res =
      GreedySigmaSolve(*inst.mrr, inst.model, tiny_pool, 6);
  EXPECT_EQ(res.plan.size(), 4);  // 2 pieces x 2 candidates
  EXPECT_FALSE(res.converged);

  const BabResult filled =
      GreedySigmaSolve(*inst.mrr, inst.model, tiny_pool, 4);
  EXPECT_EQ(filled.plan.size(), 4);
  EXPECT_TRUE(filled.converged);
}

}  // namespace
}  // namespace oipa
