#ifndef OIPA_OIPA_API_PLANNING_CONTEXT_H_
#define OIPA_OIPA_API_PLANNING_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "oipa/api/plan_request.h"
#include "oipa/logistic_model.h"
#include "rrset/mrr_collection.h"
#include "rrset/sample_store.h"
#include "topic/campaign.h"
#include "topic/edge_topic_probs.h"
#include "topic/influence_graph.h"
#include "util/status.h"

namespace oipa {

/// Sampling configuration of a PlanningContext.
struct ContextOptions {
  /// In-sample MRR samples the solvers optimize on. Both theta and
  /// holdout_theta are capped at MrrCollection::kMaxSamples (Create
  /// returns InvalidArgument past it).
  int64_t theta = 100'000;
  /// Holdout MRR samples for unbiased plan evaluation: -1 draws `theta`
  /// samples (default), 0 skips the holdout entirely (halves sampling
  /// cost; PlanResponse::holdout_utility is then 0).
  int64_t holdout_theta = -1;
  uint64_t seed = 1;
  DiffusionModel diffusion = DiffusionModel::kIndependentCascade;
  /// Worker threads for the piece-graph build and sample generation/
  /// growth: 0 defers to GetNumThreads(), N > 0 uses exactly N. Both
  /// are bit-identical at any thread count (see BuildPieceGraphs and
  /// MrrCollection::Generate), so this only changes build and sampling
  /// wall-clock.
  int sampling_threads = 0;
  /// No effect: every context samples into a store of its own, which
  /// only its WithModel() siblings share. Kept so that code setting it
  /// still compiles.
  bool share_samples = true;
  /// The promoters requests plan over. The in-sample index covers only
  /// these vertices, and a request whose pool leaves them is
  /// InvalidArgument. Empty (default) is every vertex.
  std::vector<VertexId> pool;
};

/// The shared state of one (graph, probabilities, campaign, adoption
/// model) planning configuration: the per-piece influence graphs plus
/// the SampleStore holding the in-sample and holdout MRR collections.
/// Everything except the store is read-only after construction; the
/// store mutates only by growing and publishes generations atomically —
/// so any number of threads may Solve() against one context
/// concurrently, and a SolveBatch() budget sweep reuses the same samples
/// for every k.
///
/// Each context built by a factory owns its store; WithModel() makes a
/// sibling under another adoption model that shares the store, the
/// piece graphs and the inputs (MRR samples do not depend on the
/// adoption model), so alpha/beta variants sample once.
///
/// Samples are read through snapshots: samples() pins the current
/// generation (a SampleSnapshot keeps its collections alive); after a
/// GrowSamples() the next samples() call sees the larger generation and
/// the superseded one is freed as soon as its last snapshot drops
/// (SampleStore compaction — retired generations no longer accumulate
/// for the context lifetime).
///
///   auto ctx = PlanningContext::Create(graph, probs, campaign,
///                                      LogisticAdoptionModel(2.0, 1.0),
///                                      {.theta = 100'000});
///   if (!ctx.ok()) { /* report ctx.status() */ }
///   PlanRequest req;
///   req.solver = "bab-p";
///   req.pool = pool;
///   req.budgets = {20};
///   StatusOr<PlanResponse> best = Solve(**ctx, req);
///
/// Contexts are handed out as shared_ptr<const PlanningContext>; copies
/// of the handle are cheap and keep the samples alive for as long as any
/// request might still read them.
///
/// Locking: the context itself owns no mutex — every mutable word lives
/// in the SampleStore, whose locks are oipa::Mutex instances with their
/// guards declared in the type system (OIPA_GUARDED_BY, checked by
/// clang -Wthread-safety). See the locking-hierarchy table in README.md
/// before adding any synchronized state here: new fields must either
/// stay immutable after construction or move behind an annotated lock.
class PlanningContext {
 public:
  /// Builds a context that shares ownership of its inputs — the safe
  /// default for servers and concurrent callers.
  static StatusOr<std::shared_ptr<const PlanningContext>> Create(
      std::shared_ptr<const Graph> graph,
      std::shared_ptr<const EdgeTopicProbs> probs,
      std::shared_ptr<const Campaign> campaign,
      LogisticAdoptionModel model, ContextOptions options = {});

  /// Borrows stack- or caller-owned inputs without copying them. The
  /// referenced graph/probs/campaign must outlive every handle to the
  /// returned context (the old OipaPlanner contract).
  static StatusOr<std::shared_ptr<const PlanningContext>> Borrow(
      const Graph& graph, const EdgeTopicProbs& probs,
      const Campaign& campaign, LogisticAdoptionModel model,
      ContextOptions options = {});

  /// Create, but resuming `checkpoint` — a sample stream saved by
  /// SaveSampleStore and loaded back — instead of sampling from scratch
  /// when SampleStore::Resume accepts it (same provenance; only the
  /// delta is sampled when the options ask for more). Otherwise, and for
  /// an empty checkpoint, it samples as Create does. `*resumed` (may be
  /// null) reports which happened.
  static StatusOr<std::shared_ptr<const PlanningContext>> Resume(
      std::shared_ptr<const Graph> graph,
      std::shared_ptr<const EdgeTopicProbs> probs,
      std::shared_ptr<const Campaign> campaign, LogisticAdoptionModel model,
      ContextOptions options, const SampleSnapshot& checkpoint,
      bool* resumed);

  /// Borrows inputs AND pre-generated MRR collections instead of
  /// sampling fresh ones — for benches and tests that must share one
  /// sample set across configurations or exclude sampling from timings.
  /// `holdout` may be null and need not be indexed; `mrr` must be
  /// (InvalidArgument otherwise). All referenced objects must outlive the
  /// context.
  static StatusOr<std::shared_ptr<const PlanningContext>> BorrowWithSamples(
      const Graph& graph, const EdgeTopicProbs& probs,
      const Campaign& campaign, LogisticAdoptionModel model,
      const MrrCollection* mrr, const MrrCollection* holdout = nullptr);

  /// A sibling under `model`: the same inputs, piece graphs and sample
  /// store, so it samples nothing, and growth through either context is
  /// visible to both.
  std::shared_ptr<const PlanningContext> WithModel(
      LogisticAdoptionModel model) const;

  const Graph& graph() const { return *graph_; }
  const EdgeTopicProbs& probs() const { return *probs_; }
  const Campaign& campaign() const { return *campaign_; }
  const LogisticAdoptionModel& model() const { return model_; }
  const ContextOptions& options() const { return options_; }

  /// Per-piece influence graphs (alias the context's graph; shared with
  /// the sample store and the WithModel siblings).
  const std::vector<InfluenceGraph>& pieces() const { return *pieces_; }

  /// Pins and returns the current sample generation. Hold the snapshot
  /// for the duration of one solve: its collections stay valid (and
  /// bit-stable) even while the store grows; re-call to see newer
  /// samples. Never waits: the holdout may still be sampling, and only
  /// SampleSnapshot::holdout() waits for it.
  SampleSnapshot samples() const { return store_->snapshot(); }

  /// True when the context was built with a holdout collection.
  bool has_holdout() const { return store_->has_holdout(); }

  /// True when `v` is in the context's pool (ContextOptions::pool).
  bool InPool(VertexId v) const;

  /// The context's sample store (telemetry, tests; it shows growth
  /// issued through any WithModel sibling). Valid while the context is.
  const SampleStore& sample_store() const { return *store_; }

  /// True when the sample store can grow: the collections carry
  /// sampling provenance (MrrCollection::extendable()).
  bool CanGrowSamples() const { return store_->CanGrow(); }

  /// Grows the store's collections to at least `target_theta` samples,
  /// bit-identically to collections generated at that size up front.
  /// No-op when the store is already that large. Thread-safe:
  /// concurrent growers serialize, concurrent solves keep reading their
  /// pinned snapshots. The growth is visible to every WithModel
  /// sibling. FailedPrecondition when the collections
  /// lack sampling provenance, InvalidArgument for target_theta < 1.
  /// Adds the samples this call draws to `*drawn` when given
  /// (SampleStore::Grow).
  Status GrowSamples(int64_t target_theta, int64_t* drawn = nullptr) const {
    return store_->Grow(target_theta, drawn);
  }

  /// In-sample MRR estimate of `plan` (what solvers maximize), on the
  /// generation current at call time. Each call pins its own snapshot —
  /// when a consistent in-sample/holdout pair is needed (the store may
  /// grow between calls), use Evaluate(), which reads one snapshot.
  double EstimateUtility(const AssignmentPlan& plan) const;

  /// Holdout MRR estimate of `plan`; 0 when there is no holdout. Same
  /// per-call snapshot semantics as EstimateUtility(); waits for a
  /// holdout that is still sampling.
  double EstimateHoldoutUtility(const AssignmentPlan& plan) const;

  /// Scores an externally supplied plan with the same reporting shape as
  /// a solver run (waiting for a holdout that is still sampling).
  /// InvalidArgument if the plan's piece count does not match the
  /// campaign. `label` becomes PlanResponse::solver.
  StatusOr<PlanResponse> Evaluate(const AssignmentPlan& plan,
                                  const std::string& label = "external") const;

  /// Ground-truth check by forward Monte-Carlo simulation.
  double SimulateUtility(const AssignmentPlan& plan, int trials,
                         uint64_t seed) const;

 private:
  PlanningContext() = default;

  /// A context over the inputs with its piece graphs built; the caller
  /// adds the store.
  static std::shared_ptr<PlanningContext> Build(
      std::shared_ptr<const Graph> graph,
      std::shared_ptr<const EdgeTopicProbs> probs,
      std::shared_ptr<const Campaign> campaign,
      LogisticAdoptionModel model, ContextOptions options);

  std::shared_ptr<const Graph> graph_;
  std::shared_ptr<const EdgeTopicProbs> probs_;
  std::shared_ptr<const Campaign> campaign_;
  LogisticAdoptionModel model_{2.0, 1.0};
  ContextOptions options_;
  /// Shared with the store and the WithModel siblings.
  std::shared_ptr<const std::vector<InfluenceGraph>> pieces_;
  /// options_.pool, sorted, for InPool().
  std::vector<VertexId> sorted_pool_;
  /// Declared last, so it dies first: a dying store waits for its
  /// holdout job, which reads the piece graphs and the graph.
  std::shared_ptr<SampleStore> store_;
};

}  // namespace oipa

#endif  // OIPA_OIPA_API_PLANNING_CONTEXT_H_
