// SampleStore subsystem tests: generation compaction, snapshot
// pinning, resuming checkpoints, and the progressive stopping rules.
// Context-level sharing behavior (WithModel siblings, one sampling pass
// across adoption models) lives in api_test.cc and the daemon cache's in
// serve_test.cc; this suite exercises the store directly plus the
// concurrency contract (it runs under the TSan CI leg).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "data/datasets.h"
#include "graph/generators.h"
#include "oipa/api/plan_request.h"
#include "oipa/api/planning_context.h"
#include "oipa/api/solver_registry.h"
#include "rrset/sample_store.h"
#include "topic/prob_models.h"
#include "util/random.h"
#include "util/threading.h"

namespace oipa {
namespace {

class SampleStoreFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = std::make_shared<Graph>(GenerateHolmeKim(200, 4, 0.4, 7));
    probs_ = std::make_shared<EdgeTopicProbs>(
        AssignWeightedCascadeTopics(*graph_, 4, 2.0, 11));
    Rng rng(13);
    campaign_ = std::make_shared<Campaign>(
        Campaign::SampleUniformPieces(2, 4, &rng));
    pieces_ = std::make_shared<const std::vector<InfluenceGraph>>(
        BuildPieceGraphs(*graph_, *probs_, *campaign_));
  }

  SampleStore::Options Options(int64_t theta, uint64_t seed = 17) const {
    SampleStore::Options options;
    options.theta = theta;
    options.seed = seed;
    return options;
  }

  std::shared_ptr<const Graph> graph_;
  std::shared_ptr<const EdgeTopicProbs> probs_;
  std::shared_ptr<const Campaign> campaign_;
  std::shared_ptr<const std::vector<InfluenceGraph>> pieces_;
};

/// Waits for `store`'s holdout job, so that sample counts and memory
/// include the holdout; returns the store.
std::shared_ptr<SampleStore> Settled(std::shared_ptr<SampleStore> store) {
  if (store != nullptr) store->snapshot().holdout();
  return store;
}

/// Pins GetNumThreads() for a scope, then restores the default. A store
/// samples its holdout beside the in-sample collection only when both
/// passes fit: 2 x sampling_threads <= GetNumThreads().
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(int n) { SetNumThreads(n); }
  ~ScopedNumThreads() { SetNumThreads(0); }
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;
};

// --------------------------------------------------------- compaction

TEST_F(SampleStoreFixture, GrowthWithoutReadersCompactsToOneGeneration) {
  auto store = SampleStore::Create(pieces_, Options(500));
  EXPECT_EQ(store->live_generations(), 1);
  // Four growth rounds with no outstanding snapshots: every superseded
  // generation must be freed, not retained for the store lifetime.
  for (const int64_t target : {1'000, 2'000, 4'000, 8'000}) {
    ASSERT_TRUE(store->Grow(target).ok());
  }
  EXPECT_EQ(store->theta(), 8'000);
  EXPECT_EQ(store->live_generations(), 1);
}

TEST_F(SampleStoreFixture, AHoldoutJobPinsNoInSampleGeneration) {
  // A build or a growth step publishes its in-sample collection at once,
  // whether the holdout job samples beside that pass (8 cores: two
  // 2-worker passes fit) or behind it (1 core). The job holds only the
  // holdout it extends and the piece graphs, so with no outstanding
  // readers the store holds one in-sample generation while the job runs
  // and after it ends; snapshot and stats answer meanwhile.
  const auto reference = Settled(SampleStore::Create(pieces_, Options(2'000)));
  const auto want = reference->snapshot().holdout();
  for (const int cores : {1, 8}) {
    const ScopedNumThreads machine(cores);
    SampleStore::Options options = Options(500);
    options.sampling_threads = 2;
    std::shared_ptr<SampleStore> store;
    {
      HoldBackgroundTasks hold;
      store = SampleStore::Create(pieces_, options);
      EXPECT_EQ(store->snapshot().mrr->theta(), 500) << cores;
      EXPECT_FALSE(store->snapshot().holdout_ready()) << cores;
    }
    Settled(store);
    {
      HoldBackgroundTasks hold;
      ASSERT_TRUE(store->Grow(1'000).ok());
      const SampleSnapshot snap = store->snapshot();
      EXPECT_EQ(snap.mrr->theta(), 1'000) << cores;
      EXPECT_FALSE(snap.holdout_ready()) << cores;
      const SampleStore::Stats stats = store->GetStats();
      EXPECT_EQ(stats.theta, 1'000) << cores;
      EXPECT_EQ(stats.holdout_theta, 1'000) << cores;
      // The superseded 500-sample generation is gone already.
      EXPECT_EQ(stats.live_generations, 1) << cores;
    }
    EXPECT_EQ(store->live_generations(), 1) << cores;
    // Grow waits for the pending holdout, then extends it.
    ASSERT_TRUE(store->Grow(2'000).ok());
    EXPECT_EQ(store->snapshot().holdout()->theta(), 2'000) << cores;
    EXPECT_EQ(store->live_generations(), 1) << cores;
    const SampleSnapshot grown = store->snapshot();
    EXPECT_TRUE(std::equal(grown.holdout()->members().begin(),
                           grown.holdout()->members().end(),
                           want->members().begin(), want->members().end()))
        << cores;
  }
}

TEST_F(SampleStoreFixture, OutstandingSnapshotsPinTheirGenerations) {
  auto store = SampleStore::Create(pieces_, Options(400));
  SampleSnapshot first = store->snapshot();
  ASSERT_TRUE(store->Grow(800).ok());
  SampleSnapshot second = store->snapshot();
  ASSERT_TRUE(store->Grow(1'600).ok());
  // Current + two pinned retired generations.
  EXPECT_EQ(store->live_generations(), 3);
  EXPECT_EQ(first.mrr->theta(), 400);
  EXPECT_EQ(second.mrr->theta(), 800);
  // Dropping the pins compacts, newest-independent of drop order.
  first = SampleSnapshot{};
  EXPECT_EQ(store->live_generations(), 2);
  second = SampleSnapshot{};
  EXPECT_EQ(store->live_generations(), 1);
}

TEST_F(SampleStoreFixture, GrowthIsBitIdenticalToUpFrontGeneration) {
  auto store = SampleStore::Create(pieces_, Options(300));
  ASSERT_TRUE(store->Grow(1'200).ok());
  const SampleSnapshot snap = store->snapshot();
  const MrrCollection fresh = MrrCollection::Generate(*pieces_, 1'200, 17);
  ASSERT_EQ(snap.mrr->theta(), fresh.theta());
  for (int64_t i = 0; i < fresh.theta(); ++i) {
    ASSERT_EQ(snap.mrr->root(i), fresh.root(i)) << i;
    for (int j = 0; j < fresh.num_pieces(); ++j) {
      const auto a = snap.mrr->Set(i, j);
      const auto b = fresh.Set(i, j);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << i << "/" << j;
    }
  }
}

TEST_F(SampleStoreFixture, ParallelGenerationIsBitIdenticalPerModel) {
  // The sampling_threads knob must never change a single sample: each
  // sample draws from PerSampleSeed(base_seed, i) regardless of which
  // worker runs it. Compare whole stores built at 1 vs 4 workers, for
  // both diffusion models, then grow both and compare again (Extend
  // shards across the same workers).
  for (const DiffusionModel model : {DiffusionModel::kIndependentCascade,
                                     DiffusionModel::kLinearThreshold}) {
    SampleStore::Options serial = Options(700, 71);
    serial.diffusion = model;
    serial.sampling_threads = 1;
    SampleStore::Options threaded = serial;
    threaded.sampling_threads = 4;
    auto a = SampleStore::Create(pieces_, serial);
    auto b = SampleStore::Create(pieces_, threaded);
    ASSERT_TRUE(a->Grow(2'100).ok());
    ASSERT_TRUE(b->Grow(2'100).ok());
    const SampleSnapshot sa = a->snapshot();
    const SampleSnapshot sb = b->snapshot();
    ASSERT_EQ(sa.mrr->theta(), sb.mrr->theta());
    for (int64_t i = 0; i < sa.mrr->theta(); ++i) {
      ASSERT_EQ(sa.mrr->root(i), sb.mrr->root(i)) << i;
      for (int j = 0; j < sa.mrr->num_pieces(); ++j) {
        const auto x = sa.mrr->Set(i, j);
        const auto y = sb.mrr->Set(i, j);
        ASSERT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end()))
            << i << "/" << j;
      }
    }
  }
}

TEST_F(SampleStoreFixture, StatsReportMemoryAndGenerations) {
  auto store = SampleStore::Create(pieces_, Options(500));
  const SampleStore::Stats before = store->GetStats();
  EXPECT_EQ(before.theta, 500);
  EXPECT_EQ(before.holdout_theta, 500);  // -1 resolves to theta
  EXPECT_GT(before.memory_bytes, 0);
  EXPECT_EQ(before.live_generations, 1);

  const SampleSnapshot pin = store->snapshot();
  ASSERT_TRUE(store->Grow(2'000).ok());
  const SampleStore::Stats after = store->GetStats();
  EXPECT_EQ(after.theta, 2'000);
  EXPECT_EQ(after.live_generations, 2);
  // Live memory covers the grown generation plus the pinned one.
  EXPECT_GT(after.memory_bytes, before.memory_bytes);
  (void)pin;
}

TEST_F(SampleStoreFixture, WorkerCountsBuildTheSameSamples) {
  // Each collection is sampled on every worker in turn, the holdout in
  // the background: beside the in-sample pass when both passes fit the
  // machine (at 8 cores, 2 and 3 workers; 5 do not), behind it otherwise
  // (every count at 1 core). No worker count or order may change a
  // sample, under either model, and only the in-sample collection is
  // indexed. The reference samples on one worker, one pass at a time.
  for (const DiffusionModel model : {DiffusionModel::kIndependentCascade,
                                     DiffusionModel::kLinearThreshold}) {
    SampleStore::Options options = Options(900, 41);
    options.diffusion = model;
    options.sampling_threads = 1;
    std::shared_ptr<SampleStore> reference;
    {
      const ScopedNumThreads machine(1);
      reference = SampleStore::Create(pieces_, options);
      ASSERT_TRUE(reference->Grow(2'000).ok());
    }
    const SampleSnapshot want = reference->snapshot();
    const MrrCollection fresh =
        MrrCollection::Generate(*pieces_, 2'000, 41, model);
    for (const int cores : {1, 8}) {
      const ScopedNumThreads machine(cores);
      for (const int threads : {2, 3, 5}) {
        options.sampling_threads = threads;
        const auto store = SampleStore::Create(pieces_, options);
        EXPECT_TRUE(store->snapshot().mrr->indexed());
        EXPECT_FALSE(store->snapshot().holdout()->indexed());
        ASSERT_TRUE(store->Grow(2'000).ok());
        const SampleSnapshot got = store->snapshot();
        EXPECT_EQ(got.mrr->num_index_segments(), 2) << threads;
        EXPECT_EQ(got.holdout()->num_index_segments(), 0) << threads;
        for (const auto& [a, b] :
             {std::pair{got.mrr.get(), want.mrr.get()},
              std::pair{got.holdout().get(), want.holdout().get()},
              std::pair{got.mrr.get(), &fresh}}) {
          EXPECT_TRUE(std::equal(a->members().begin(), a->members().end(),
                                 b->members().begin(), b->members().end()))
              << threads << " workers, " << cores << " cores";
          EXPECT_TRUE(std::equal(a->set_offsets().begin(),
                                 a->set_offsets().end(),
                                 b->set_offsets().begin(),
                                 b->set_offsets().end()))
              << threads << " workers, " << cores << " cores";
        }
      }
    }
  }
}

TEST_F(SampleStoreFixture, GrowCopiesIntoTargetSizedStorage) {
  // Each existing sample is copied once, into arrays sized for the
  // target: the grown generation holds no more than a fresh one of that
  // size, plus the shared first segment's key offsets and the member
  // margin. An exact-size copy that an in-place Extend then grew (to at
  // least twice its capacity, 12k samples' worth) would not fit.
  for (const int threads : {1, 2}) {
    SampleStore::Options options = Options(6'000, 43);
    options.sampling_threads = threads;
    const auto store = SampleStore::Create(pieces_, options);
    ASSERT_TRUE(store->Grow(8'000).ok());
    const SampleSnapshot grown = store->snapshot();
    const MrrCollection fresh = MrrCollection::Generate(
        *pieces_, 8'000, 43, DiffusionModel::kIndependentCascade, threads);
    const int64_t key_offsets =
        (static_cast<int64_t>(pieces_->size()) *
             (graph_->num_vertices() + 1) +
         1) *
        static_cast<int64_t>(sizeof(uint32_t));
    EXPECT_LE(grown.mrr->MemoryBytes(),
              fresh.MemoryBytes() + key_offsets + fresh.MemoryBytes() / 20)
        << threads;
    // The holdout is just offsets and members.
    const int64_t holdout_words =
        grown.holdout()->theta() * grown.holdout()->num_pieces() + 1 +
        grown.holdout()->TotalSize();
    EXPECT_LE(grown.holdout()->MemoryBytes(),
              holdout_words * 4 + holdout_words * 4 / 20)
        << threads;
  }
}

TEST(SampleStoreMemoryTest, LastFmBytesPerSample) {
  // The daemon's lastfm context (l = 3, theta = 100k plus a 100k
  // holdout, 2 sampling workers, the dataset's pool), about 3.5 members
  // per sample, 0.35 of them pool postings. Four bytes per offset,
  // member and posting make about 27.7 bytes in-sample (26.2 plus the
  // pool's postings and the key offsets) and 26.2 in the unindexed
  // holdout; the bounds leave room for the member reserve's margin, and
  // none for a doubled array or an index over every vertex (40.2).
  for (const uint64_t dataset_seed : {1, 2}) {
    const Dataset dataset = MakeLastFmLike(dataset_seed);
    Rng rng(1);
    const Campaign campaign =
        Campaign::SampleUniformPieces(3, dataset.num_topics, &rng);
    SampleStore::Options options;
    options.theta = 100'000;
    options.holdout_theta = 100'000;
    options.sampling_threads = 2;
    options.pool = dataset.promoter_pool;
    const auto store = SampleStore::Create(
        std::make_shared<const std::vector<InfluenceGraph>>(BuildPieceGraphs(
            *dataset.graph, *dataset.probs, campaign)),
        options);
    const SampleSnapshot snap = store->snapshot();
    const double mrr_bytes =
        static_cast<double>(snap.mrr->MemoryBytes()) / options.theta;
    const double holdout_bytes =
        static_cast<double>(snap.holdout()->MemoryBytes()) /
        options.holdout_theta;
    EXPECT_LE(mrr_bytes, 28.5) << dataset_seed;
    EXPECT_LE(holdout_bytes, 27.0) << dataset_seed;
  }
}

TEST_F(SampleStoreFixture, AdoptWithoutPiecesCannotGrow) {
  auto mrr = std::make_shared<const MrrCollection>(
      MrrCollection::Generate(*pieces_, 200, 23));
  auto store = SampleStore::Adopt(nullptr, mrr, nullptr);
  EXPECT_FALSE(store->CanGrow());
  EXPECT_EQ(store->Grow(400).code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(store->has_holdout());
  EXPECT_EQ(store->theta(), 200);
}

// -------------------------------------------------------- concurrency

TEST_F(SampleStoreFixture, ConcurrentGrowSolveAcrossSharingContexts) {
  // Two contexts differing only in the adoption model share one store;
  // one thread grows it round by round while the other keeps solving.
  // Under TSan this exercises the snapshot-publication path.
  ContextOptions options;
  options.theta = 400;
  options.seed = 47;
  auto a = PlanningContext::Create(
      graph_, probs_, campaign_, LogisticAdoptionModel(2.0, 1.0), options);
  ASSERT_TRUE(a.ok());
  const auto b = (*a)->WithModel(LogisticAdoptionModel(4.0, 0.8));
  ASSERT_EQ(&(*a)->sample_store(), &b->sample_store());

  PlanRequest request;
  request.solver = "greedy-sigma";
  for (VertexId v = 0; v < graph_->num_vertices(); v += 5) {
    request.pool.push_back(v);
  }
  request.budgets = {3};

  std::atomic<bool> failed{false};
  std::thread grower([&] {
    for (int64_t target = 800; target <= 6'400; target *= 2) {
      if (!(*a)->GrowSamples(target).ok()) failed.store(true);
    }
  });
  std::thread solver([&] {
    for (int i = 0; i < 8; ++i) {
      const auto r = Solve(*b, request);
      if (!r.ok() || r->utility <= 0.0) failed.store(true);
    }
  });
  grower.join();
  solver.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ((*a)->samples().mrr->theta(), 6'400);
  EXPECT_EQ(b->samples().mrr->theta(), 6'400);
  // Once the threads are quiet, only the final generation survives.
  EXPECT_EQ((*a)->sample_store().live_generations(), 1);
}

// ----------------------------------------------------- stopping rules

TEST(StoppingRuleTest, ParseNames) {
  ASSERT_TRUE(ParseStoppingRule("holdout").ok());
  EXPECT_EQ(*ParseStoppingRule("holdout"), StoppingRuleKind::kHoldoutGap);
  ASSERT_TRUE(ParseStoppingRule("opim").ok());
  EXPECT_EQ(*ParseStoppingRule("opim"), StoppingRuleKind::kOpimBounds);
  EXPECT_EQ(ParseStoppingRule("bogus").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StoppingRuleTest, HoldoutGapMatchesRelativeDisagreement) {
  const StoppingRule& rule =
      GetStoppingRule(StoppingRuleKind::kHoldoutGap);
  EXPECT_EQ(rule.name(), "holdout");
  StoppingInputs inputs;
  inputs.utility = 100.0;
  inputs.holdout_utility = 90.0;
  inputs.epsilon = 0.05;
  StoppingVerdict verdict = rule.Evaluate(inputs);
  EXPECT_NEAR(verdict.sampling_gap, 0.1, 1e-12);
  EXPECT_FALSE(verdict.satisfied);
  EXPECT_EQ(verdict.certified_ratio, 0.0);

  inputs.holdout_utility = 99.0;
  verdict = rule.Evaluate(inputs);
  EXPECT_NEAR(verdict.sampling_gap, 0.01, 1e-12);
  EXPECT_TRUE(verdict.satisfied);
}

TEST(StoppingRuleTest, OpimRatioTightensWithTheta) {
  const StoppingRule& rule =
      GetStoppingRule(StoppingRuleKind::kOpimBounds);
  EXPECT_EQ(rule.name(), "opim");
  StoppingInputs inputs;
  inputs.utility = 50.0;
  inputs.upper_bound = 51.0;
  inputs.holdout_utility = 50.0;
  inputs.num_vertices = 300;
  inputs.epsilon = 0.1;

  double previous = -1.0;
  for (const int64_t theta : {200, 2'000, 20'000, 200'000}) {
    inputs.theta = theta;
    inputs.holdout_theta = theta;
    const StoppingVerdict verdict = rule.Evaluate(inputs);
    EXPECT_GE(verdict.certified_ratio, previous) << theta;
    EXPECT_LE(verdict.certified_ratio, 1.0) << theta;
    previous = verdict.certified_ratio;
  }
  // Plenty of samples + a tight solver bound certify well past
  // (1 - 1/e - eps).
  EXPECT_TRUE(rule
                  .Evaluate(StoppingInputs{50.0, 51.0, 50.0, 200'000,
                                           200'000, 300, 0.1})
                  .satisfied);
  // Starved inputs certify nothing.
  StoppingInputs starved = inputs;
  starved.theta = 0;
  EXPECT_EQ(rule.Evaluate(starved).certified_ratio, 0.0);
  EXPECT_FALSE(rule.Evaluate(starved).satisfied);
}

// ------------------------------------------------------ crash recovery

TEST_F(SampleStoreFixture, ResumedCheckpointDrawsNoSamples) {
  const SampleSnapshot saved =
      Settled(SampleStore::Create(pieces_, Options(500, 71)))->snapshot();
  const int64_t before = MrrCollection::GeneratedSampleCount();
  auto resumed = SampleStore::Resume(pieces_, Options(500, 71), saved);
  ASSERT_NE(resumed, nullptr);
  // A same-configuration resume is served entirely from the checkpoint:
  // zero regenerated samples.
  EXPECT_EQ(MrrCollection::GeneratedSampleCount(), before);
  EXPECT_EQ(resumed->theta(), 500);

  // Growth after resuming continues the exact sample stream (the
  // provenance round-trips), matching up-front generation bit-for-bit.
  ASSERT_TRUE(resumed->Grow(1'000).ok());
  const SampleSnapshot snap = resumed->snapshot();
  const MrrCollection fresh = MrrCollection::Generate(*pieces_, 1'000, 71);
  ASSERT_EQ(snap.mrr->theta(), fresh.theta());
  for (int64_t i = 0; i < fresh.theta(); ++i) {
    ASSERT_EQ(snap.mrr->root(i), fresh.root(i)) << i;
  }
}

TEST_F(SampleStoreFixture, SmallerCheckpointGrowsOnlyTheDelta) {
  const SampleSnapshot saved =
      Settled(SampleStore::Create(pieces_, Options(300, 73)))->snapshot();
  // Resume at a larger theta: the checkpoint seeds the first 300
  // samples and only the extension is drawn (2x: in-sample + holdout).
  const int64_t before = MrrCollection::GeneratedSampleCount();
  auto resumed =
      Settled(SampleStore::Resume(pieces_, Options(900, 73), saved));
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->theta(), 900);
  EXPECT_EQ(MrrCollection::GeneratedSampleCount() - before,
            2 * (900 - 300));
}

TEST_F(SampleStoreFixture, MismatchedProvenanceIsNotResumed) {
  const SampleSnapshot saved =
      Settled(SampleStore::Create(pieces_, Options(400, 79)))->snapshot();
  // A different sampling seed, diffusion model or holdout presence: the
  // checkpoint's provenance does not match, so it must not be resumed —
  // correctness beats recovery, and the caller resamples.
  EXPECT_EQ(SampleStore::Resume(pieces_, Options(400, 80), saved), nullptr);
  SampleStore::Options lt = Options(400, 79);
  lt.diffusion = DiffusionModel::kLinearThreshold;
  EXPECT_EQ(SampleStore::Resume(pieces_, lt, saved), nullptr);
  SampleStore::Options no_holdout = Options(400, 79);
  no_holdout.holdout_theta = 0;
  EXPECT_EQ(SampleStore::Resume(pieces_, no_holdout, saved), nullptr);
  EXPECT_EQ(SampleStore::Resume(pieces_, Options(400, 79), SampleSnapshot()),
            nullptr);
  EXPECT_NE(SampleStore::Resume(pieces_, Options(400, 79), saved), nullptr);
}

TEST_F(SampleStoreFixture, ContextResumeFallsBackToSampling) {
  // PlanningContext::Resume resumes a matching checkpoint and samples
  // afresh past a mismatched one, reporting which.
  ContextOptions options;
  options.theta = 300;
  options.seed = 83;
  auto original = PlanningContext::Create(
      graph_, probs_, campaign_, LogisticAdoptionModel(2.0, 1.0), options);
  ASSERT_TRUE(original.ok());
  const SampleSnapshot saved = (*original)->samples();
  saved.holdout();
  for (const uint64_t seed : {83, 84}) {
    options.seed = seed;
    bool resumed = false;
    const int64_t before = MrrCollection::GeneratedSampleCount();
    auto context = PlanningContext::Resume(graph_, probs_, campaign_,
                                           LogisticAdoptionModel(2.0, 1.0),
                                           options, saved, &resumed);
    ASSERT_TRUE(context.ok());
    (*context)->samples().holdout();
    EXPECT_EQ(resumed, seed == 83);
    EXPECT_EQ(MrrCollection::GeneratedSampleCount() - before,
              seed == 83 ? 0 : 2 * 300);
  }
}

}  // namespace
}  // namespace oipa
