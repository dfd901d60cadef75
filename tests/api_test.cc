#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "oipa/api/plan_request.h"
#include "oipa/api/planning_context.h"
#include "oipa/api/solver_registry.h"
#include "topic/prob_models.h"
#include "util/random.h"

namespace oipa {
namespace {

/// One small shared context for every API test: 300 vertices, 2 pieces,
/// holdout enabled. Built once per fixture instance.
class ApiFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = std::make_shared<Graph>(GenerateHolmeKim(300, 4, 0.4, 7));
    probs_ = std::make_shared<EdgeTopicProbs>(
        AssignWeightedCascadeTopics(*graph_, 5, 2.0, 11));
    Rng rng(13);
    campaign_ = std::make_shared<Campaign>(
        Campaign::SampleUniformPieces(2, 5, &rng));
    for (VertexId v = 0; v < graph_->num_vertices(); v += 5) {
      pool_.push_back(v);
    }
    ContextOptions options;
    options.theta = 4'000;
    options.seed = 17;
    auto ctx = PlanningContext::Create(
        graph_, probs_, campaign_, LogisticAdoptionModel(2.0, 1.0),
        options);
    ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
    context_ = *ctx;
  }

  PlanRequest Request(const std::string& solver, int budget) const {
    PlanRequest request;
    request.solver = solver;
    request.pool = pool_;
    request.budgets = {budget};
    request.options.max_nodes = 2'000;
    return request;
  }

  std::shared_ptr<const Graph> graph_;
  std::shared_ptr<const EdgeTopicProbs> probs_;
  std::shared_ptr<const Campaign> campaign_;
  std::vector<VertexId> pool_;
  std::shared_ptr<const PlanningContext> context_;
};

// ------------------------------------------------------------ registry

TEST(SolverRegistryTest, GlobalListsAllPaperMethods) {
  const std::vector<std::string> names = SolverRegistry::Global().Names();
  for (const char* required :
       {"bab", "bab-p", "im", "tim", "brute-force", "greedy-sigma",
        "high-degree", "degree-discount", "random"}) {
    EXPECT_TRUE(SolverRegistry::Global().Contains(required)) << required;
    EXPECT_NE(std::find(names.begin(), names.end(), required),
              names.end())
        << required;
  }
}

TEST(SolverRegistryTest, UnknownNameIsNotFoundAndListsRegistered) {
  const StatusOr<const Solver*> found =
      SolverRegistry::Global().Find("simulated-annealing");
  ASSERT_FALSE(found.ok());
  EXPECT_EQ(found.status().code(), StatusCode::kNotFound);
  // The error message names the available solvers.
  EXPECT_NE(found.status().message().find("bab-p"), std::string::npos);
}

TEST(SolverRegistryTest, RejectsNullAndDuplicateRegistration) {
  SolverRegistry registry;
  EXPECT_EQ(registry.Register(nullptr).code(),
            StatusCode::kInvalidArgument);

  class Dummy : public Solver {
   public:
    std::string_view name() const override { return "dummy"; }
    std::string_view description() const override { return "noop"; }
    StatusOr<PlanResponse> Solve(const PlanningContext&,
                                 const SampleSnapshot&, const PlanRequest&,
                                 int) const override {
      return PlanResponse{};
    }
  };
  EXPECT_TRUE(registry.Register(std::make_unique<Dummy>()).ok());
  EXPECT_EQ(registry.Register(std::make_unique<Dummy>()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(registry.Contains("dummy"));
  EXPECT_EQ(registry.Names(), std::vector<std::string>({"dummy"}));
}

TEST(SolverRegistryTest, DescribeAllMentionsEveryName) {
  const std::string text = SolverRegistry::Global().DescribeAll();
  for (const std::string& name : SolverRegistry::Global().Names()) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

// ------------------------------------------------- context validation

TEST_F(ApiFixture, CreateRejectsBadInputs) {
  // Empty campaign.
  auto empty_campaign = std::make_shared<Campaign>();
  auto r1 = PlanningContext::Create(graph_, probs_, empty_campaign,
                                    LogisticAdoptionModel(2.0, 1.0));
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);

  // Null graph.
  auto r2 = PlanningContext::Create(nullptr, probs_, campaign_,
                                    LogisticAdoptionModel(2.0, 1.0));
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);

  // Non-positive theta.
  ContextOptions bad;
  bad.theta = 0;
  auto r3 = PlanningContext::Create(graph_, probs_, campaign_,
                                    LogisticAdoptionModel(2.0, 1.0), bad);
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);

  // Campaign topic dimensionality mismatching the probabilities.
  Rng rng(29);
  auto wrong_dims = std::make_shared<Campaign>(
      Campaign::SampleUniformPieces(2, 9, &rng));
  auto r4 = PlanningContext::Create(graph_, probs_, wrong_dims,
                                    LogisticAdoptionModel(2.0, 1.0));
  EXPECT_EQ(r4.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ApiFixture, SampleCountsPastTheIdCeilingAreInvalidArguments) {
  // MRR sample ids are 32-bit: a larger theta or holdout_theta never
  // reaches the sampler, and neither does a larger progressive cap.
  constexpr int64_t kHuge = 5'000'000'000;
  ContextOptions huge_theta;
  huge_theta.theta = kHuge;
  ContextOptions huge_holdout;
  huge_holdout.holdout_theta = kHuge;
  for (const ContextOptions& options : {huge_theta, huge_holdout}) {
    const auto ctx = PlanningContext::Create(
        graph_, probs_, campaign_, LogisticAdoptionModel(2.0, 1.0),
        options);
    ASSERT_FALSE(ctx.ok());
    EXPECT_EQ(ctx.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(ctx.status().message().find("4294967295"), std::string::npos)
        << ctx.status().ToString();
  }
  for (const double epsilon : {0.0, 0.05}) {
    PlanRequest request = Request("bab-p", 3);
    request.epsilon = epsilon;
    request.max_theta = kHuge;
    const auto solved = Solve(*context_, request);
    ASSERT_FALSE(solved.ok()) << epsilon;
    EXPECT_EQ(solved.status().code(), StatusCode::kInvalidArgument);
  }
  PlanRequest at_ceiling = Request("bab-p", 3);
  at_ceiling.max_theta = MrrCollection::kMaxSamples;
  EXPECT_TRUE(Solve(*context_, at_ceiling).ok());
}

TEST_F(ApiFixture, SearchOptionsOutsideTheWireRangesAreInvalidArguments) {
  // The wire's rules: gap >= 0 and epsilon in (0, 1), with NaN failing
  // both. Each of these values used to abort inside the search instead.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const char* solver : {"bab", "bab-p"}) {
    for (const double gap : {-0.1, nan}) {
      PlanRequest request = Request(solver, 3);
      request.options.gap = gap;
      for (const auto& status : {Solve(*context_, request).status(),
                                 SolveBatch(*context_, request).status()}) {
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
            << solver << " gap " << gap;
        EXPECT_NE(status.message().find("gap"), std::string::npos);
      }
    }
  }
  for (const double epsilon : {0.0, 1.0, nan}) {
    PlanRequest request = Request("bab-p", 3);
    request.options.epsilon = epsilon;
    for (const auto& status : {Solve(*context_, request).status(),
                               SolveBatch(*context_, request).status()}) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << "epsilon " << epsilon;
      EXPECT_NE(status.message().find("epsilon"), std::string::npos);
    }
  }
  PlanRequest edges = Request("bab-p", 3);
  edges.options.gap = 0.0;
  edges.options.epsilon = 0.99;
  EXPECT_TRUE(Solve(*context_, edges).ok());
}

TEST_F(ApiFixture, BorrowWithSamplesNeedsAnIndexedInSampleCollection) {
  const MrrCollection unindexed = MrrCollection::Generate(
      context_->pieces(), 500, 3, DiffusionModel::kIndependentCascade, 1,
      /*indexed=*/false);
  const MrrCollection indexed = MrrCollection::Generate(
      context_->pieces(), 500, 3, DiffusionModel::kIndependentCascade, 1);
  const auto refused = PlanningContext::BorrowWithSamples(
      *graph_, *probs_, *campaign_, LogisticAdoptionModel(2.0, 1.0),
      &unindexed);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  // An unindexed holdout is what a store builds, and scores plans.
  const auto ok = PlanningContext::BorrowWithSamples(
      *graph_, *probs_, *campaign_, LogisticAdoptionModel(2.0, 1.0),
      &indexed, &unindexed);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  const auto solved = Solve(**ok, Request("bab-p", 3));
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_GT(solved->holdout_utility, 0.0);
}

TEST_F(ApiFixture, BorrowWithSamplesValidatesShape) {
  Rng rng(31);
  const Campaign other = Campaign::SampleUniformPieces(3, 5, &rng);
  // Pin the fixture's samples so the borrowed collections outlive the
  // borrowing context no matter what the fixture's store does.
  const SampleSnapshot snap = context_->samples();
  // context_'s MRR has 2 pieces; a 3-piece campaign cannot adopt it.
  auto r = PlanningContext::BorrowWithSamples(
      *graph_, *probs_, other, LogisticAdoptionModel(2.0, 1.0),
      snap.mrr.get());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  auto ok = PlanningContext::BorrowWithSamples(
      *graph_, *probs_, *campaign_, LogisticAdoptionModel(2.0, 1.0),
      snap.mrr.get(), snap.holdout.get());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  const auto solved = Solve(**ok, Request("bab-p", 3));
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_GT(solved->utility, 0.0);
}

// ---------------------------------------------------- request errors

TEST_F(ApiFixture, SolveRejectsMalformedRequests) {
  // Unknown solver.
  auto unknown = Solve(*context_, Request("frobnicate", 3));
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  // Empty pool.
  PlanRequest no_pool = Request("bab", 3);
  no_pool.pool.clear();
  EXPECT_EQ(Solve(*context_, no_pool).status().code(),
            StatusCode::kInvalidArgument);

  // Pool vertex outside the graph.
  PlanRequest bad_vertex = Request("bab", 3);
  bad_vertex.pool.push_back(graph_->num_vertices());
  EXPECT_EQ(Solve(*context_, bad_vertex).status().code(),
            StatusCode::kInvalidArgument);

  // Non-positive budget.
  PlanRequest zero_budget = Request("bab", 3);
  zero_budget.budgets = {0};
  EXPECT_EQ(Solve(*context_, zero_budget).status().code(),
            StatusCode::kInvalidArgument);

  // No budget at all.
  PlanRequest empty_budgets = Request("bab", 3);
  empty_budgets.budgets.clear();
  EXPECT_EQ(Solve(*context_, empty_budgets).status().code(),
            StatusCode::kInvalidArgument);

  // Multi-budget requests belong to SolveBatch.
  PlanRequest sweep = Request("bab", 3);
  sweep.budgets = {2, 4};
  EXPECT_EQ(Solve(*context_, sweep).status().code(),
            StatusCode::kInvalidArgument);

  // A present deadline must be >= 1 ms.
  PlanRequest zero_deadline = Request("bab", 3);
  zero_deadline.deadline_ms = 0;
  EXPECT_EQ(Solve(*context_, zero_deadline).status().code(),
            StatusCode::kInvalidArgument);
  PlanRequest negative_deadline = Request("bab", 3);
  negative_deadline.deadline_ms = -5;
  EXPECT_EQ(Solve(*context_, negative_deadline).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ApiFixture, BruteForceRejectsOversizedInstances) {
  const auto r = Solve(*context_, Request("brute-force", 40));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("too large"), std::string::npos);
}

TEST_F(ApiFixture, EvaluateRejectsMismatchedPlan) {
  const AssignmentPlan wrong(5);  // campaign has 2 pieces
  EXPECT_EQ(context_->Evaluate(wrong).status().code(),
            StatusCode::kInvalidArgument);
}

// ----------------------------------------------------- solving paths

TEST_F(ApiFixture, AllRegisteredSolversProduceFeasiblePlans) {
  for (const std::string& name : SolverRegistry::Global().Names()) {
    const int budget = 3;
    const auto r = Solve(*context_, Request(name, budget));
    ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
    EXPECT_EQ(r->solver, name);
    EXPECT_EQ(r->budget, budget);
    EXPECT_LE(r->plan.size(), budget) << name;
    EXPECT_GT(r->utility, 0.0) << name;
    EXPECT_GT(r->holdout_utility, 0.0) << name;
    EXPECT_GE(r->seconds, 0.0) << name;
    for (int j = 0; j < r->plan.num_pieces(); ++j) {
      for (const VertexId v : r->plan.SeedSet(j)) {
        EXPECT_EQ(v % 5, 0) << name;  // pool membership
      }
    }
  }
}

TEST_F(ApiFixture, EvaluateMatchesSolverUtilities) {
  const auto solved = Solve(*context_, Request("bab", 4));
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  const auto evaluated = context_->Evaluate(solved->plan, "re-eval");
  ASSERT_TRUE(evaluated.ok()) << evaluated.status().ToString();
  EXPECT_NEAR(evaluated->utility, solved->utility, 1e-9);
  EXPECT_NEAR(evaluated->holdout_utility, solved->holdout_utility, 1e-9);
  EXPECT_EQ(evaluated->solver, "re-eval");
}

TEST_F(ApiFixture, NonConvergenceIsSurfacedNotDropped) {
  PlanRequest request = Request("bab", 6);
  request.options.max_nodes = 1;
  request.options.gap = 0.0;
  const auto r = Solve(*context_, request);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->converged);
  EXPECT_GE(r->nodes_expanded, 1);
  EXPECT_GT(r->bound_calls, 0);
  EXPECT_GT(r->utility, 0.0);  // the incumbent is still a valid plan
}

TEST_F(ApiFixture, ProgressHookCancelsTheSearch) {
  PlanRequest request = Request("bab-p", 6);
  request.options.gap = 0.0;
  std::atomic<int> calls{0};
  request.progress = [&](const PlanProgress& progress) {
    EXPECT_EQ(progress.solver, "bab-p");
    EXPECT_EQ(progress.budget, 6);
    return ++calls < 2;  // cancel on the second callback
  };
  const auto r = Solve(*context_, request);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(calls.load(), 2);
  EXPECT_TRUE(r->cancelled);
  EXPECT_FALSE(r->converged);
  EXPECT_GT(r->utility, 0.0);
}

TEST_F(ApiFixture, DeadlineCancelsMidSolveWithPartialTelemetry) {
  PlanRequest request = Request("bab", 6);
  request.options.gap = 0.0;
  request.options.max_nodes = 1'000'000;
  request.deadline_ms = 1;
  // Each poll sleeps past the deadline, so the BAB search is cut off on
  // an early node expansion regardless of machine speed.
  std::atomic<int> calls{0};
  request.progress = [&](const PlanProgress&) {
    ++calls;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return true;  // the caller hook never cancels — the deadline does
  };
  const auto r = Solve(*context_, request);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->cancelled);
  EXPECT_TRUE(r->deadline_exceeded);
  EXPECT_FALSE(r->converged);
  EXPECT_GE(calls.load(), 1);

  // A comfortable deadline changes nothing: same plan as no deadline,
  // deadline_exceeded stays false.
  PlanRequest relaxed = Request("bab", 3);
  relaxed.deadline_ms = 60'000;
  const auto timed = Solve(*context_, relaxed);
  const auto plain = Solve(*context_, Request("bab", 3));
  ASSERT_TRUE(timed.ok() && plain.ok());
  EXPECT_FALSE(timed->deadline_exceeded);
  EXPECT_FALSE(timed->cancelled);
  EXPECT_EQ(timed->plan.Assignments(), plain->plan.Assignments());
  EXPECT_EQ(timed->utility, plain->utility);
}

TEST_F(ApiFixture, InitialSnapshotCanCancelAnySolver) {
  // Non-search solvers never poll mid-solve, but the dispatch layer's
  // initial snapshot still lets callers cancel before work starts.
  PlanRequest request = Request("tim", 3);
  request.progress = [](const PlanProgress& progress) {
    EXPECT_EQ(progress.solver, "tim");
    EXPECT_EQ(progress.nodes_expanded, 0);
    return false;
  };
  const auto r = Solve(*context_, request);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->cancelled);
  EXPECT_FALSE(r->converged);
  EXPECT_TRUE(r->plan.empty());
  EXPECT_EQ(r->solver, "tim");
}

// ------------------------------------------------------------- batch

TEST_F(ApiFixture, SolveBatchSweepsBudgetsOverSharedSamples) {
  PlanRequest request = Request("bab-p", 2);
  request.budgets = {2, 4, 6};
  const auto batch = SolveBatch(*context_, request);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 3u);
  for (size_t i = 0; i < batch->size(); ++i) {
    const PlanResponse& r = (*batch)[i];
    EXPECT_EQ(r.budget, request.budgets[i]);
    EXPECT_EQ(r.solver, "bab-p");
    EXPECT_LE(r.plan.size(), r.budget);
    EXPECT_GT(r.utility, 0.0);
  }
  // More budget can only help (same samples, same objective).
  EXPECT_GE((*batch)[1].utility + 1e-9, (*batch)[0].utility);
  EXPECT_GE((*batch)[2].utility + 1e-9, (*batch)[1].utility);

  // Batch responses match one-off solves bit for bit.
  const auto solo = Solve(*context_, Request("bab-p", 4));
  ASSERT_TRUE(solo.ok());
  EXPECT_EQ(solo->plan.Assignments(), (*batch)[1].plan.Assignments());
  EXPECT_EQ(solo->utility, (*batch)[1].utility);
}

// ------------------------------------------- progressive (ε)-stopping

TEST_F(ApiFixture, GrowSamplesIsBitIdenticalToUpFrontGeneration) {
  // Pin the current generation, grow, and check both that the pinned
  // snapshot stays valid and that the grown store matches a context
  // generated at the larger theta from scratch.
  SampleSnapshot before = context_->samples();
  ASSERT_EQ(before.mrr->theta(), 4'000);
  ASSERT_TRUE(context_->CanGrowSamples());
  ASSERT_TRUE(context_->GrowSamples(16'000).ok());
  // The pinned snapshot still reads the retired generation...
  EXPECT_EQ(before.mrr->theta(), 4'000);
  EXPECT_EQ(context_->samples().mrr->theta(), 16'000);
  EXPECT_EQ(context_->samples().holdout->theta(), 16'000);
  EXPECT_EQ(context_->sample_store().live_generations(), 2);
  // ...and releasing it compacts the store down to one generation.
  before = SampleSnapshot{};
  EXPECT_EQ(context_->sample_store().live_generations(), 1);
  // Growing to a smaller/equal target is a no-op.
  ASSERT_TRUE(context_->GrowSamples(8'000).ok());
  EXPECT_EQ(context_->sample_store().theta(), 16'000);

  ContextOptions big;
  big.theta = 16'000;
  big.seed = 17;
  auto fresh = PlanningContext::Create(
      graph_, probs_, campaign_, LogisticAdoptionModel(2.0, 1.0), big);
  ASSERT_TRUE(fresh.ok());
  const auto grown_solve = Solve(*context_, Request("bab-p", 4));
  const auto fresh_solve = Solve(**fresh, Request("bab-p", 4));
  ASSERT_TRUE(grown_solve.ok() && fresh_solve.ok());
  EXPECT_EQ(grown_solve->plan.Assignments(),
            fresh_solve->plan.Assignments());
  EXPECT_EQ(grown_solve->utility, fresh_solve->utility);
  EXPECT_EQ(grown_solve->holdout_utility, fresh_solve->holdout_utility);
  EXPECT_EQ(grown_solve->theta_used, 16'000);
}

TEST_F(ApiFixture, ProgressiveSolveGrowsUntilGapMet) {
  ContextOptions small;
  small.theta = 250;  // deliberately noisy start
  // A sampling seed distinct from the fixture's: the registry now
  // theta-prefix-shares stores, so seed 17 would resolve to the
  // fixture's 4'000-sample store and skip the growth under test.
  small.seed = 18;
  auto ctx = PlanningContext::Create(
      graph_, probs_, campaign_, LogisticAdoptionModel(2.0, 1.0), small);
  ASSERT_TRUE(ctx.ok());

  PlanRequest request = Request("bab-p", 5);
  request.epsilon = 0.02;
  request.max_theta = 64'000;
  const auto r = Solve(**ctx, request);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*ctx)->samples().mrr->theta(), r->theta_used);
  EXPECT_GE(r->theta_used, 250);
  EXPECT_GE(r->sampling_rounds, 1);
  if (r->theta_used < request.max_theta) {
    EXPECT_LE(r->sampling_gap, request.epsilon);
  }
  // The progressive result is bit-identical to a one-shot solve against
  // a context generated at the final theta up front.
  ContextOptions final_options;
  final_options.theta = r->theta_used;
  final_options.seed = 18;
  auto final_ctx = PlanningContext::Create(
      graph_, probs_, campaign_, LogisticAdoptionModel(2.0, 1.0),
      final_options);
  ASSERT_TRUE(final_ctx.ok());
  const auto oneshot = Solve(**final_ctx, Request("bab-p", 5));
  ASSERT_TRUE(oneshot.ok());
  EXPECT_EQ(r->plan.Assignments(), oneshot->plan.Assignments());
  EXPECT_EQ(r->utility, oneshot->utility);
  EXPECT_EQ(r->holdout_utility, oneshot->holdout_utility);
}

TEST_F(ApiFixture, ProgressiveSolveStopsAtMaxTheta) {
  ContextOptions small;
  small.theta = 200;
  small.seed = 18;  // avoid theta-prefix sharing with the fixture store
  auto ctx = PlanningContext::Create(
      graph_, probs_, campaign_, LogisticAdoptionModel(2.0, 1.0), small);
  ASSERT_TRUE(ctx.ok());
  PlanRequest request = Request("bab-p", 5);
  request.epsilon = 1e-9;  // unreachable tolerance
  request.max_theta = 800;
  const auto r = Solve(**ctx, request);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->theta_used, 800);
  EXPECT_EQ(r->sampling_rounds, 3);  // 200 -> 400 -> 800
  EXPECT_GT(r->sampling_gap, request.epsilon);
}

TEST_F(ApiFixture, ProgressiveSolveRequiresHoldout) {
  ContextOptions no_holdout;
  no_holdout.theta = 500;
  no_holdout.holdout_theta = 0;
  no_holdout.seed = 17;
  auto ctx = PlanningContext::Create(
      graph_, probs_, campaign_, LogisticAdoptionModel(2.0, 1.0),
      no_holdout);
  ASSERT_TRUE(ctx.ok());
  PlanRequest request = Request("bab-p", 3);
  request.epsilon = 0.05;
  EXPECT_EQ(Solve(**ctx, request).status().code(),
            StatusCode::kInvalidArgument);

  // Negative epsilon is malformed regardless of context.
  PlanRequest negative = Request("bab-p", 3);
  negative.epsilon = -0.1;
  EXPECT_EQ(Solve(*context_, negative).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ApiFixture, ProgressiveSolveRequiresExtendableSamples) {
  // A FromParts collection (no sampling provenance) cannot grow.
  MrrCollection parts = MrrCollection::FromParts(
      2, campaign_->num_pieces(), graph_->num_vertices(),
      /*offsets=*/{0, 1, 2, 3, 4}, /*nodes=*/{0, 0, 1, 1});
  auto ctx = PlanningContext::BorrowWithSamples(
      *graph_, *probs_, *campaign_, LogisticAdoptionModel(2.0, 1.0),
      &parts, &parts);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  EXPECT_FALSE((*ctx)->CanGrowSamples());
  PlanRequest request = Request("greedy-sigma", 1);
  request.epsilon = 0.05;
  EXPECT_EQ(Solve(**ctx, request).status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------- shared sample store

TEST_F(ApiFixture, ContextsDifferingOnlyInAdoptionModelShareOneStore) {
  ContextOptions options;
  options.theta = 2'000;
  options.seed = 71;
  const int64_t before = MrrCollection::GeneratedSampleCount();
  auto a = PlanningContext::Create(
      graph_, probs_, campaign_, LogisticAdoptionModel(2.0, 1.0), options);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  const int64_t after_first = MrrCollection::GeneratedSampleCount();
  EXPECT_EQ(after_first - before, 2 * 2'000);  // in-sample + holdout

  // Same sampling configuration, different logistic adoption model:
  // resolves to the same store with zero additional samples drawn.
  auto b = PlanningContext::Create(
      graph_, probs_, campaign_, LogisticAdoptionModel(5.0, 0.5), options);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(MrrCollection::GeneratedSampleCount(), after_first);
  EXPECT_EQ(&(*a)->sample_store(), &(*b)->sample_store());
  EXPECT_TRUE((*a)->sample_store().GetStats().shared);
  // The contexts also share one set of piece influence graphs.
  EXPECT_EQ(&(*a)->pieces(), &(*b)->pieces());

  // Growth issued through one sharer is visible to the other.
  ASSERT_TRUE((*a)->GrowSamples(4'000).ok());
  EXPECT_EQ((*b)->samples().mrr->theta(), 4'000);

  // Solves against either context agree on the samples but score with
  // their own adoption model.
  const auto ra = Solve(**a, Request("bab-p", 3));
  const auto rb = Solve(**b, Request("bab-p", 3));
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_GT(ra->utility, 0.0);
  EXPECT_GT(rb->utility, 0.0);
}

TEST_F(ApiFixture, SharedStoreSolvesAreBitIdenticalToPrivateStoreSolves) {
  ContextOptions options;
  options.theta = 3'000;
  options.seed = 73;
  auto shared_ctx = PlanningContext::Create(
      graph_, probs_, campaign_, LogisticAdoptionModel(2.0, 1.0), options);
  ASSERT_TRUE(shared_ctx.ok());
  ContextOptions private_options = options;
  private_options.share_samples = false;
  auto private_ctx = PlanningContext::Create(
      graph_, probs_, campaign_, LogisticAdoptionModel(2.0, 1.0),
      private_options);
  ASSERT_TRUE(private_ctx.ok());
  EXPECT_NE(&(*shared_ctx)->sample_store(),
            &(*private_ctx)->sample_store());
  EXPECT_FALSE((*private_ctx)->sample_store().GetStats().shared);

  for (const char* solver : {"bab-p", "tim", "greedy-sigma"}) {
    const auto with_shared = Solve(**shared_ctx, Request(solver, 4));
    const auto with_private = Solve(**private_ctx, Request(solver, 4));
    ASSERT_TRUE(with_shared.ok() && with_private.ok()) << solver;
    EXPECT_EQ(with_shared->plan.Assignments(),
              with_private->plan.Assignments())
        << solver;
    EXPECT_EQ(with_shared->utility, with_private->utility) << solver;
    EXPECT_EQ(with_shared->holdout_utility, with_private->holdout_utility)
        << solver;
  }
}

// ------------------------------------------- OPIM-style bound stopping

TEST_F(ApiFixture, OpimBoundsStoppingCertifiesRatio) {
  ContextOptions small;
  small.theta = 250;  // deliberately noisy start
  small.seed = 18;  // avoid theta-prefix sharing with the fixture store
  auto ctx = PlanningContext::Create(
      graph_, probs_, campaign_, LogisticAdoptionModel(2.0, 1.0), small);
  ASSERT_TRUE(ctx.ok());

  PlanRequest request = Request("bab-p", 5);
  request.epsilon = 0.05;
  request.max_theta = 256'000;
  request.stopping = StoppingRuleKind::kOpimBounds;
  const auto r = Solve(**ctx, request);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->certified_ratio, 0.0);
  EXPECT_LE(r->certified_ratio, 1.0);
  if (r->theta_used < request.max_theta) {
    // Stopped because the bound pair certified the target ratio.
    EXPECT_GE(r->certified_ratio,
              1.0 - 1.0 / 2.718281828459045 - request.epsilon);
  }
  // The default holdout-gap rule leaves the ratio unset.
  const auto plain = Solve(*context_, Request("bab-p", 5));
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->certified_ratio, 0.0);
}

TEST_F(ApiFixture, OpimBoundsStopsNoLaterThanMaxTheta) {
  ContextOptions small;
  small.theta = 200;
  small.seed = 18;  // avoid theta-prefix sharing with the fixture store
  auto ctx = PlanningContext::Create(
      graph_, probs_, campaign_, LogisticAdoptionModel(2.0, 1.0), small);
  ASSERT_TRUE(ctx.ok());
  PlanRequest request = Request("bab-p", 5);
  request.epsilon = 1e-9;  // unreachable certification target
  request.max_theta = 800;
  request.stopping = StoppingRuleKind::kOpimBounds;
  const auto r = Solve(**ctx, request);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->theta_used, 800);
  EXPECT_EQ(r->sampling_rounds, 3);  // 200 -> 400 -> 800
  EXPECT_LT(r->certified_ratio, 1.0 - 1.0 / 2.718281828459045);
}

// ------------------------------------------------------ sharded sweep

TEST_F(ApiFixture, ShardedSolveBatchIsBitIdenticalToSerialSweep) {
  PlanRequest serial = Request("bab-p", 2);
  serial.budgets = {2, 4, 6, 8};
  const auto serial_batch = SolveBatch(*context_, serial);
  ASSERT_TRUE(serial_batch.ok());

  PlanRequest sharded = serial;
  sharded.num_threads = 3;  // several budgets: SolveBatch shards them
  const auto sharded_batch = SolveBatch(*context_, sharded);
  ASSERT_TRUE(sharded_batch.ok());

  ASSERT_EQ(sharded_batch->size(), serial_batch->size());
  for (size_t i = 0; i < serial_batch->size(); ++i) {
    const PlanResponse& a = (*serial_batch)[i];
    const PlanResponse& b = (*sharded_batch)[i];
    EXPECT_EQ(a.budget, b.budget);
    EXPECT_EQ(a.plan.Assignments(), b.plan.Assignments());
    EXPECT_EQ(a.utility, b.utility);
    EXPECT_EQ(a.holdout_utility, b.holdout_utility);
    EXPECT_EQ(a.nodes_expanded, b.nodes_expanded);
    EXPECT_EQ(a.tau_evals, b.tau_evals);
  }
}

TEST_F(ApiFixture, ShardedSolveBatchHonorsCancellation) {
  PlanRequest request = Request("bab-p", 2);
  request.budgets = {2, 4, 6, 8};
  request.num_threads = 2;
  request.progress = [](const PlanProgress&) { return false; };
  const auto batch = SolveBatch(*context_, request);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_GE(batch->size(), 1u);
  EXPECT_TRUE(batch->front().cancelled);
  // Budget order is preserved and nothing follows the cancelled entry.
  for (size_t i = 0; i < batch->size(); ++i) {
    EXPECT_EQ((*batch)[i].budget, request.budgets[i]);
    if (i + 1 < batch->size()) {
      EXPECT_FALSE((*batch)[i].cancelled);
    }
  }
}

// ------------------------------------------------------- concurrency

TEST_F(ApiFixture, ConcurrentSolvesOnOneContextMatchSequentialRuns) {
  // Reference: sequential solves.
  const auto seq_bab = Solve(*context_, Request("bab-p", 5));
  const auto seq_tim = Solve(*context_, Request("tim", 5));
  ASSERT_TRUE(seq_bab.ok() && seq_tim.ok());

  // Two threads share the context; each runs its solver several times.
  constexpr int kRounds = 3;
  std::vector<StatusOr<PlanResponse>> bab_runs, tim_runs;
  std::thread bab_thread([&] {
    for (int i = 0; i < kRounds; ++i) {
      bab_runs.push_back(Solve(*context_, Request("bab-p", 5)));
    }
  });
  std::thread tim_thread([&] {
    for (int i = 0; i < kRounds; ++i) {
      tim_runs.push_back(Solve(*context_, Request("tim", 5)));
    }
  });
  bab_thread.join();
  tim_thread.join();

  for (const auto& run : bab_runs) {
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->plan.Assignments(), seq_bab->plan.Assignments());
    EXPECT_EQ(run->utility, seq_bab->utility);
    EXPECT_EQ(run->holdout_utility, seq_bab->holdout_utility);
    EXPECT_EQ(run->nodes_expanded, seq_bab->nodes_expanded);
  }
  for (const auto& run : tim_runs) {
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->plan.Assignments(), seq_tim->plan.Assignments());
    EXPECT_EQ(run->utility, seq_tim->utility);
  }
}

}  // namespace
}  // namespace oipa
