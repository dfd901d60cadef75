#ifndef OIPA_RRSET_SAMPLE_STORE_H_
#define OIPA_RRSET_SAMPLE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rrset/mrr_collection.h"
#include "topic/influence_graph.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/threading.h"

namespace oipa {

/// A holdout collection that a background job may still be sampling.
using HoldoutTask = BackgroundTask<std::shared_ptr<const MrrCollection>>;

/// One published generation of a SampleStore: the in-sample MRR
/// collection plus the (optional) holdout. Snapshots are value types —
/// copying one is two shared_ptr bumps — and pin their generation: the
/// collections stay valid for as long as any snapshot referencing them
/// is alive, even after the store grows past them. Take one snapshot per
/// solve and read it throughout; re-snapshot to see newer samples.
///
/// The in-sample collection is always ready. The holdout may still be
/// sampling: a store publishes each generation as soon as its in-sample
/// collection is built, and samples the holdout beside or behind it (see
/// SampleStore). Only holdout() waits for it.
struct SampleSnapshot {
  std::shared_ptr<const MrrCollection> mrr;
  /// Null when the store was built without a holdout. A store's own
  /// holdout carries no inverted index: it only scores finished plans
  /// (EstimateAdoptionUtility), never feeds a solver.
  std::shared_ptr<const HoldoutTask> holdout_task;
  /// The holdout's sample count once sampled; 0 without a holdout.
  int64_t holdout_theta = 0;

  bool has_holdout() const { return holdout_task != nullptr; }
  /// True when holdout() would return at once.
  bool holdout_ready() const {
    return holdout_task == nullptr || holdout_task->ready();
  }
  /// Waits until the holdout is sampled and returns it; null without a
  /// holdout.
  std::shared_ptr<const MrrCollection> holdout() const {
    return holdout_task == nullptr ? nullptr : holdout_task->Wait();
  }
};

/// A reference-counted, generation-published MRR sample store — the
/// sampling half of a planning configuration, pulled out of
/// PlanningContext so that
///
///  (a) superseded generations are *compacted*: growth publishes a new
///      SampleSnapshot and drops the store's reference to the old one,
///      so a retired generation is freed the moment the last outstanding
///      reader snapshot goes away (live_generations() observes this),
///  (b) one store can serve several contexts: MRR samples depend only on
///      (graph, probabilities, campaign pieces, diffusion model, seed) —
///      not on the logistic adoption model — so the contexts that differ
///      only in alpha/beta (PlanningContext::WithModel siblings) read one
///      store, sampled once.
///
/// Build order: a build or a growth step samples and indexes the
/// in-sample collection on sampling_threads workers and publishes it at
/// once; a background job (util/threading BackgroundTask) samples or
/// extends the holdout on as many workers. When both passes fit the
/// machine, 2 x ResolveThreadCount(sampling_threads) <= GetNumThreads(),
/// the job starts first and samples beside the in-sample pass;
/// otherwise (always at the default sampling_threads = 0, which samples
/// on every core) it starts once that pass is done, while the caller
/// goes on to search. Only readers of the holdout wait for it
/// (SampleSnapshot::holdout(): scoring a finished plan, the stopping
/// rules, Grow, the checkpoint writer); snapshot(), GetStats() and
/// theta() never do. Grow waits for a pending holdout before it samples,
/// so at most 2 x sampling_threads threads sample for one store, and
/// only when that fits GetNumThreads() (an explicit 1,024-thread request
/// overlaps nothing). A store's destructor waits for its pending
/// holdout, so the job never outlives the store's piece graphs. Either
/// order draws the same samples: sample i reads only PerSampleSeed.
///
/// Lifetime: the piece graphs alias the social graph, which the store
/// does not own. Whoever owns the graph (a PlanningContext) must outlive
/// the store; hold the context, never the bare store.
///
/// Concurrency: snapshot() is a pointer copy under a micro-mutex —
/// readers never wait on sample generation, not even while a grower is
/// sampling. Grow() serializes growers on a separate mutex, samples
/// outside any reader-visible lock, and publishes by swapping the
/// current snapshot pointer. (The publication slot would be a
/// std::atomic<std::shared_ptr> swap, but libstdc++'s lock-bit
/// implementation trips ThreadSanitizer, which CI runs — the mutex
/// keeps the same no-reader-waits property with a few-ns critical
/// section.) All methods are safe to call from any thread.
///
/// Sharing semantics: a store read by several contexts has one sample
/// stream. A Grow() issued through one context (e.g. its progressive
/// ε-loop) is visible to the others' *next* snapshot — their in-flight
/// solves keep reading the generation they pinned. Because growth is
/// bit-identical to up-front generation (MrrCollection::Extend), the
/// shared samples are always a valid prefix-extension of what any
/// sharer originally requested.
class SampleStore {
 public:
  /// Sampling configuration of a store; mirrors the sampling slice of
  /// ContextOptions.
  struct Options {
    int64_t theta = 100'000;
    /// -1 draws `theta` holdout samples, 0 skips the holdout.
    int64_t holdout_theta = -1;
    uint64_t seed = 1;
    DiffusionModel diffusion = DiffusionModel::kIndependentCascade;
    /// Worker threads for the piece-graph build, sample generation
    /// and growth (0 = the GetNumThreads() default, N > 0 = exactly N
    /// workers). Piece graphs and samples are bit-identical at any
    /// thread count (PerSampleSeed); growth uses the store's value.
    int sampling_threads = 0;
    /// The promoters requests plan over: the in-sample index covers only
    /// these vertices (MrrCollection::Generate's index_pool). Empty
    /// indexes every vertex.
    std::vector<VertexId> pool;
  };

  /// One row of store telemetry (the daemon's serve.store block and
  /// oipa_cli's sample_store block).
  struct Stats {
    int64_t theta = 0;
    /// 0 when the store has no holdout; a pending holdout reports the
    /// size it is being sampled to.
    int64_t holdout_theta = 0;
    /// Bytes held by every still-live generation (in-sample + holdout;
    /// a pending holdout counts once it is sampled).
    int64_t memory_bytes = 0;
    /// In-sample generations still alive (current + pinned retired).
    int live_generations = 0;
  };

  /// Generates a store over `pieces`. `pieces` must be non-null and
  /// non-empty and their social graph must outlive the store (see
  /// BuildPieceGraphs).
  static std::shared_ptr<SampleStore> Create(
      std::shared_ptr<const std::vector<InfluenceGraph>> pieces,
      const Options& options);

  /// Wraps pre-built collections (BorrowWithSamples, snapshot loads)
  /// in a store. `holdout` may be null. The store can grow iff the
  /// collections carry sampling provenance and `pieces` is non-null.
  static std::shared_ptr<SampleStore> Adopt(
      std::shared_ptr<const std::vector<InfluenceGraph>> pieces,
      std::shared_ptr<const MrrCollection> mrr,
      std::shared_ptr<const MrrCollection> holdout);

  /// Crash recovery: resumes `checkpoint` — a sample stream saved by
  /// SaveSampleStore and loaded back — over `pieces`, as the store
  /// Create(pieces, options) would have grown into. Only when its
  /// provenance matches (seed, diffusion model, holdout presence and
  /// stream, piece count, vertex count, extendable, an index covering
  /// the pool); a request past the checkpointed sizes grows it by the
  /// delta. Null on a mismatch or a failed growth: the caller samples
  /// from scratch, so a stale or foreign checkpoint costs only the cold
  /// start, never wrong samples.
  static std::shared_ptr<SampleStore> Resume(
      std::shared_ptr<const std::vector<InfluenceGraph>> pieces,
      const Options& options, const SampleSnapshot& checkpoint);

  /// The current generation; never blocks on growers (the critical
  /// section is one shared_ptr copy).
  SampleSnapshot snapshot() const;

  /// Current in-sample theta (== snapshot().mrr->theta()).
  int64_t theta() const { return snapshot().mrr->theta(); }
  bool has_holdout() const { return snapshot().has_holdout(); }

  /// True when Grow() can extend the store: the collections carry
  /// sampling provenance and the store knows its piece graphs.
  bool CanGrow() const { return pieces_ != nullptr && extendable_; }

  /// Grows the in-sample collection (and the holdout, when present) to
  /// at least `target_theta` samples, bit-identically to collections
  /// generated at that size up front, and publishes the result as a new
  /// generation. Like the first build, it waits for a pending holdout,
  /// grows the in-sample collection on sampling_threads workers, and
  /// extends the holdout in the background, beside that pass when both
  /// fit the machine (see the class comment).
  /// No-op when already that large. Thread-safe: growers serialize,
  /// readers keep their pinned snapshots. FailedPrecondition when
  /// CanGrow() is false, InvalidArgument for target_theta outside
  /// [1, MrrCollection::kMaxSamples]. Adds the samples this call draws
  /// (in-sample plus the holdout it schedules) to `*drawn` when given.
  Status Grow(int64_t target_theta, int64_t* drawn = nullptr);

  /// In-sample generations still alive: the current one plus any
  /// retired generation pinned by an outstanding snapshot. With no
  /// outstanding readers this is exactly 1, however often the store
  /// grew — retired generations are compacted, not accumulated.
  int live_generations() const;

  Stats GetStats() const;

  /// Waits for a pending holdout (see the class comment).
  ~SampleStore();
  SampleStore(const SampleStore&) = delete;
  SampleStore& operator=(const SampleStore&) = delete;

 private:
  SampleStore() = default;

  /// Swaps in a new generation and records it for live_generations().
  /// Publication is serialized by the grower lock (the construction
  /// paths take it too, so every generation swap is ordered).
  void Publish(SampleSnapshot next) OIPA_REQUIRES(grow_mu_);

  /// Starts the background job that samples the holdout to `theta`
  /// samples on the store's sampling workers: extending `base`, or from
  /// scratch when `base` is null. The job holds only `base` and the
  /// piece graphs.
  std::shared_ptr<const HoldoutTask> SampleHoldout(
      std::shared_ptr<const MrrCollection> base, int64_t theta) const;

  std::shared_ptr<const std::vector<InfluenceGraph>> pieces_;
  Options options_;
  /// The collections carry sampling provenance (fixed at construction).
  bool extendable_ = false;

  /// Serializes growers for the whole (expensive) sampling phase.
  /// Lock order within a store: grow_mu_ first, then snapshot_mu_ /
  /// history_mu_ (both taken briefly inside Publish); the two
  /// micro-mutexes are never held together with each other.
  Mutex grow_mu_;
  /// Guards only the `current_` pointer itself (see class comment) —
  /// sampling never happens under it.
  mutable Mutex snapshot_mu_;
  std::shared_ptr<const SampleSnapshot> current_
      OIPA_GUARDED_BY(snapshot_mu_);
  /// Every generation ever published, weakly: expired entries are
  /// pruned on read, so the vectors stay as small as the number of
  /// generations actually still pinned. Holdouts are recorded as their
  /// tasks, whose collections count once sampled.
  mutable Mutex history_mu_;
  mutable std::vector<std::weak_ptr<const MrrCollection>> mrr_history_
      OIPA_GUARDED_BY(history_mu_);
  mutable std::vector<std::weak_ptr<const HoldoutTask>> holdout_history_
      OIPA_GUARDED_BY(history_mu_);
};

// ------------------------------------------------------ stopping rules

/// Which rule decides when the progressive (ε)-loop may stop growing
/// the sample store (PlanRequest::stopping).
enum class StoppingRuleKind {
  /// Stop when the solved plan's in-sample and holdout utility
  /// estimates agree within epsilon (relative) — the pre-OPIM rule.
  kHoldoutGap,
  /// OPIM-style online bound pair: stop when a Chernoff lower bound on
  /// the plan's holdout utility divided by a Chernoff upper bound on
  /// the optimum (from the solver's in-sample upper bound) certifies a
  /// (1 - 1/e - epsilon)-style ratio. No extra solves — both bounds
  /// come from quantities the solve already produced.
  kOpimBounds,
};

/// Everything a stopping rule may look at, gathered from one solve
/// against one pinned snapshot.
struct StoppingInputs {
  /// In-sample utility estimate of the solved plan.
  double utility = 0.0;
  /// Solver's in-sample upper bound on the optimum (== utility for
  /// solvers without bounds; the BAB family reports a true bound).
  double upper_bound = 0.0;
  /// Holdout utility estimate of the solved plan.
  double holdout_utility = 0.0;
  /// Sizes of the collections the estimates were computed on.
  int64_t theta = 0;
  int64_t holdout_theta = 0;
  VertexId num_vertices = 0;
  /// The request's tolerance (PlanRequest::epsilon).
  double epsilon = 0.0;
};

/// A rule's verdict on one solve round.
struct StoppingVerdict {
  /// Relative in-sample/holdout disagreement (reported for every rule).
  double sampling_gap = 0.0;
  /// Certified lower(plan)/upper(OPT) ratio; 0 under kHoldoutGap.
  double certified_ratio = 0.0;
  /// True when the rule's tolerance is met and growth may stop.
  bool satisfied = false;
};

/// Stateless stopping-rule strategy. Implementations must be safe to
/// call concurrently.
class StoppingRule {
 public:
  virtual ~StoppingRule() = default;
  virtual std::string_view name() const = 0;
  virtual StoppingVerdict Evaluate(const StoppingInputs& inputs) const = 0;
};

/// The process-wide rule instance for `kind` (rules are stateless).
const StoppingRule& GetStoppingRule(StoppingRuleKind kind);

/// Maps a rule name ("holdout" | "opim") to its kind (CLI parsing).
StatusOr<StoppingRuleKind> ParseStoppingRule(const std::string& name);

}  // namespace oipa

#endif  // OIPA_RRSET_SAMPLE_STORE_H_
