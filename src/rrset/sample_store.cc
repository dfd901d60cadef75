#include "rrset/sample_store.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "util/fault_injector.h"
#include "util/logging.h"

namespace oipa {

namespace {

/// The holdout stream is decorrelated from the in-sample stream by the
/// same seed perturbation PlanningContext used before the store existed
/// (keeps pre-refactor runs bit-identical).
constexpr uint64_t kHoldoutSeedXor = 0xABCDEF12345ULL;

int64_t ResolvedHoldoutTheta(const SampleStore::Options& options) {
  return options.holdout_theta < 0 ? options.theta : options.holdout_theta;
}

/// True when the holdout pass may sample beside the in-sample one: the
/// two passes' workers together fit GetNumThreads() (see SampleStore's
/// build order).
bool BothPassesFit(int sampling_threads) {
  return 2 * ResolveThreadCount(sampling_threads) <= GetNumThreads();
}

}  // namespace

SampleStore::~SampleStore() {
  // The holdout job reads the piece graphs, and through them the social
  // graph, which may die with this store's owner; a snapshot copy may
  // outlive both. Growth waits for each job before starting the next,
  // so only the current one can be pending.
  std::shared_ptr<const SampleSnapshot> current;
  {
    MutexLock lock(&snapshot_mu_);
    current = current_;
  }
  if (current != nullptr && current->holdout_task != nullptr) {
    current->holdout_task->Wait();
  }
}

std::shared_ptr<const HoldoutTask> SampleStore::SampleHoldout(
    std::shared_ptr<const MrrCollection> base, int64_t theta) const {
  if (theta <= 0) return nullptr;
  return HoldoutTask::Start(
      [pieces = pieces_, base = std::move(base), theta,
       seed = options_.seed ^ kHoldoutSeedXor,
       diffusion = options_.diffusion,
       workers = ResolveThreadCount(options_.sampling_threads)]() {
        // The holdout only scores finished plans (EstimateAdoptionUtility
        // scans it), so it is sampled without an inverted index.
        return std::make_shared<const MrrCollection>(
            base == nullptr
                ? MrrCollection::Generate(*pieces, theta, seed, diffusion,
                                          workers, /*indexed=*/false)
                : base->ExtendedCopy(*pieces, theta, workers));
      });
}

std::shared_ptr<SampleStore> SampleStore::Create(
    std::shared_ptr<const std::vector<InfluenceGraph>> pieces,
    const Options& options) {
  OIPA_CHECK(pieces != nullptr && !pieces->empty());
  OIPA_CHECK_GE(options.theta, 1);
  std::shared_ptr<SampleStore> store(new SampleStore());
  store->pieces_ = std::move(pieces);
  store->options_ = options;
  store->options_.holdout_theta = ResolvedHoldoutTheta(options);
  store->extendable_ = true;
  SampleSnapshot first;
  first.holdout_theta = store->options_.holdout_theta;
  // The holdout samples beside the in-sample pass when both fit the
  // machine, and behind it otherwise.
  const bool overlap = BothPassesFit(options.sampling_threads);
  if (overlap) {
    first.holdout_task = store->SampleHoldout(nullptr, first.holdout_theta);
  }
  first.mrr = std::make_shared<const MrrCollection>(MrrCollection::Generate(
      *store->pieces_, options.theta, options.seed, options.diffusion,
      options.sampling_threads, /*indexed=*/true, options.pool));
  if (!overlap) {
    first.holdout_task = store->SampleHoldout(nullptr, first.holdout_theta);
  }
  MutexLock grow_lock(&store->grow_mu_);
  store->Publish(std::move(first));
  return store;
}

std::shared_ptr<SampleStore> SampleStore::Adopt(
    std::shared_ptr<const std::vector<InfluenceGraph>> pieces,
    std::shared_ptr<const MrrCollection> mrr,
    std::shared_ptr<const MrrCollection> holdout) {
  OIPA_CHECK(mrr != nullptr);
  std::shared_ptr<SampleStore> store(new SampleStore());
  store->pieces_ = std::move(pieces);
  store->options_.theta = mrr->theta();
  store->options_.holdout_theta = holdout == nullptr ? 0 : holdout->theta();
  store->options_.seed = mrr->base_seed();
  store->options_.diffusion = mrr->model();
  store->extendable_ =
      mrr->extendable() && (holdout == nullptr || holdout->extendable());
  SampleSnapshot adopted;
  adopted.mrr = std::move(mrr);
  adopted.holdout_theta = store->options_.holdout_theta;
  if (holdout != nullptr) {
    adopted.holdout_task = HoldoutTask::Done(std::move(holdout));
  }
  MutexLock grow_lock(&store->grow_mu_);
  store->Publish(std::move(adopted));
  return store;
}

std::shared_ptr<SampleStore> SampleStore::Resume(
    std::shared_ptr<const std::vector<InfluenceGraph>> pieces,
    const Options& options, const SampleSnapshot& checkpoint) {
  OIPA_CHECK(pieces != nullptr && !pieces->empty());
  // Provenance gate: a checkpoint only substitutes for fresh generation
  // when it demonstrably came from this exact sampling configuration —
  // otherwise fall back to sampling from scratch (a wrong checkpoint
  // must cost cold-start time, never correctness). A checkpointed index
  // may cover more than the pool (the loader indexes every vertex),
  // never less.
  if (checkpoint.mrr == nullptr) return nullptr;
  const int64_t want_holdout = ResolvedHoldoutTheta(options);
  const std::shared_ptr<const MrrCollection> holdout = checkpoint.holdout();
  const auto indexes = [&checkpoint](VertexId v) {
    return v >= 0 && v < checkpoint.mrr->num_vertices() &&
           checkpoint.mrr->IndexesVertex(v);
  };
  const bool usable =
      checkpoint.mrr->extendable() && checkpoint.mrr->indexed() &&
      std::all_of(options.pool.begin(), options.pool.end(), indexes) &&
      checkpoint.mrr->base_seed() == options.seed &&
      checkpoint.mrr->model() == options.diffusion &&
      checkpoint.mrr->num_pieces() == static_cast<int>(pieces->size()) &&
      checkpoint.mrr->num_vertices() ==
          pieces->front().graph().num_vertices() &&
      (want_holdout > 0) == (holdout != nullptr) &&
      (holdout == nullptr ||
       (holdout->extendable() &&
        holdout->base_seed() == (options.seed ^ kHoldoutSeedXor) &&
        holdout->model() == options.diffusion &&
        holdout->num_pieces() == checkpoint.mrr->num_pieces() &&
        holdout->num_vertices() == checkpoint.mrr->num_vertices()));
  if (!usable) return nullptr;
  std::shared_ptr<SampleStore> store(new SampleStore());
  store->pieces_ = std::move(pieces);
  store->options_ = options;
  store->options_.theta = checkpoint.mrr->theta();
  store->options_.holdout_theta = checkpoint.holdout_theta;
  store->extendable_ = true;
  {
    MutexLock grow_lock(&store->grow_mu_);
    store->Publish(checkpoint);
  }
  // A request past the checkpointed sizes resumes the sample stream
  // (growth is bit-identical to up-front generation); only the delta
  // is sampled. A checkpoint that cannot grow that far is useless for
  // this request — discard it and sample afresh.
  if (checkpoint.mrr->theta() < options.theta ||
      checkpoint.holdout_theta < want_holdout) {
    if (!store->Grow(std::max(options.theta, want_holdout)).ok()) {
      return nullptr;
    }
  }
  return store;
}

// ---------------------------------------------------- snapshot + grow

void SampleStore::Publish(SampleSnapshot next) {
  {
    MutexLock lock(&history_mu_);
    // A republished (unchanged) collection must not appear twice —
    // live_generations()/GetStats() count history entries.
    if (mrr_history_.empty() || mrr_history_.back().lock() != next.mrr) {
      mrr_history_.push_back(next.mrr);
    }
    if (next.holdout_task != nullptr &&
        (holdout_history_.empty() ||
         holdout_history_.back().lock() != next.holdout_task)) {
      holdout_history_.push_back(next.holdout_task);
    }
  }
  auto published = std::make_shared<const SampleSnapshot>(std::move(next));
  MutexLock lock(&snapshot_mu_);
  current_ = std::move(published);
}

SampleSnapshot SampleStore::snapshot() const {
  std::shared_ptr<const SampleSnapshot> current;
  {
    MutexLock lock(&snapshot_mu_);
    current = current_;
  }
  return *current;
}

Status SampleStore::Grow(int64_t target_theta, int64_t* drawn) {
  if (target_theta < 1 || target_theta > MrrCollection::kMaxSamples) {
    return Status::InvalidArgument(
        "Grow target must be in [1, " +
        std::to_string(MrrCollection::kMaxSamples) + "]");
  }
  if (FaultInjector::ShouldFail("store.grow")) {
    return InjectedFault("store.grow");
  }
  // Growers serialize for the whole sampling phase; the snapshot read
  // below therefore stays current until the Publish.
  MutexLock grow_lock(&grow_mu_);
  SampleSnapshot next = snapshot();
  const int64_t sampled_before = next.mrr->theta() + next.holdout_theta;
  const bool mrr_below = next.mrr->theta() < target_theta;
  const bool holdout_below =
      next.has_holdout() && next.holdout_theta < target_theta;
  if (!mrr_below && !holdout_below) return Status::Ok();
  if (!CanGrow()) {
    return Status::FailedPrecondition(
        "store samples lack sampling provenance and cannot grow "
        "(collections loaded via legacy FromParts are not extendable)");
  }
  // The pending holdout, which this step extends, finishes before this
  // step samples: at most this step's two passes sample for the store.
  std::shared_ptr<const MrrCollection> holdout = next.holdout();
  // Copy-on-grow: grown copies (each existing sample copied once, the
  // index segments shared) are published as the next generation. The
  // superseded generation is only pinned by whatever snapshots are
  // still outstanding — once the last one drops, it is freed
  // (compaction), which live_generations() observes. A collection
  // already at target (a holdout catching up to a larger in-sample
  // stream, or vice versa) is republished untouched. The holdout's pass
  // starts first when both passes fit the machine, as in Create.
  const auto sample_holdout = [&] {
    if (!holdout_below) return;
    next.holdout_task = SampleHoldout(std::move(holdout), target_theta);
    next.holdout_theta = target_theta;
  };
  const bool overlap = BothPassesFit(options_.sampling_threads);
  if (overlap) sample_holdout();
  if (mrr_below) {
    next.mrr = std::make_shared<const MrrCollection>(next.mrr->ExtendedCopy(
        *pieces_, target_theta, options_.sampling_threads));
  }
  if (!overlap) sample_holdout();
  if (drawn != nullptr) {
    *drawn += next.mrr->theta() + next.holdout_theta - sampled_before;
  }
  Publish(std::move(next));
  return Status::Ok();
}

int SampleStore::live_generations() const {
  MutexLock lock(&history_mu_);
  auto expired = [](const auto& w) { return w.expired(); };
  mrr_history_.erase(
      std::remove_if(mrr_history_.begin(), mrr_history_.end(), expired),
      mrr_history_.end());
  holdout_history_.erase(std::remove_if(holdout_history_.begin(),
                                        holdout_history_.end(), expired),
                         holdout_history_.end());
  return static_cast<int>(mrr_history_.size());
}

SampleStore::Stats SampleStore::GetStats() const {
  Stats stats;
  const SampleSnapshot snap = snapshot();
  stats.theta = snap.mrr->theta();
  stats.holdout_theta = snap.holdout_theta;
  // One locked pass over the history so the generation count and the
  // memory sum describe the same instant.
  MutexLock lock(&history_mu_);
  for (const auto& weak : mrr_history_) {
    if (const auto live = weak.lock()) {
      stats.memory_bytes += live->MemoryBytes();
      ++stats.live_generations;
    }
  }
  for (const auto& weak : holdout_history_) {
    const auto task = weak.lock();
    if (task != nullptr && task->ready()) {
      stats.memory_bytes += task->Wait()->MemoryBytes();
    }
  }
  return stats;
}

// ----------------------------------------------------- stopping rules

namespace {

/// Shared statistic of both rules: relative disagreement between the
/// optimizer's in-sample estimate and the unbiased holdout estimate.
double SamplingGap(const StoppingInputs& in) {
  const double scale =
      std::max(1e-9, std::max(in.utility, in.holdout_utility));
  return std::fabs(in.utility - in.holdout_utility) / scale;
}

class HoldoutGapRule final : public StoppingRule {
 public:
  std::string_view name() const override { return "holdout"; }

  StoppingVerdict Evaluate(const StoppingInputs& in) const override {
    StoppingVerdict verdict;
    verdict.sampling_gap = SamplingGap(in);
    verdict.satisfied = verdict.sampling_gap <= in.epsilon;
    return verdict;
  }
};

/// OPIM-C-style online bound pair (Tang et al., SIGMOD'18), adapted to
/// MRR adoption estimates. Per-sample scores f(#covered pieces) lie in
/// [0, 1], so a utility u over a collection of size theta corresponds
/// to a score mass Lambda = u * theta / n and Chernoff bounds for
/// [0,1]-valued sums apply:
///
///   lower(S)   = ((sqrt(Lv + 2a/9) - sqrt(a/2))^2 - a/18) * n / theta_v
///   upper(OPT) = ((sqrt(Lu + a/2) + sqrt(a/2))^2)         * n / theta_u
///
/// with a = ln(2 * max_rounds / delta) (union-bounded over the
/// adaptive loop), Lv the holdout score mass of the solved plan
/// and Lu the in-sample score-mass *bound* on the optimum (the BAB
/// family's reported upper bound; solvers without bounds contribute
/// their own estimate, making the ratio a self-certification). The
/// solve stops once lower/upper reaches (1 - 1/e - epsilon) — the
/// paper's ε-guarantee certified online, without holdout re-solves.
class OpimBoundsRule final : public StoppingRule {
 public:
  std::string_view name() const override { return "opim"; }

  StoppingVerdict Evaluate(const StoppingInputs& in) const override {
    StoppingVerdict verdict;
    verdict.sampling_gap = SamplingGap(in);
    if (in.num_vertices <= 0 || in.theta <= 0 || in.holdout_theta <= 0) {
      return verdict;  // no certification possible; keep growing
    }
    const double n = static_cast<double>(in.num_vertices);
    // Union-bound the failure probability across the whole adaptive
    // loop (OPIM-C divides delta across rounds for the same reason):
    // theta doubles each round so there are at most 63 rounds, and each
    // round evaluates two bounds. The certificate therefore holds at
    // confidence 1 - kDelta for the *first* round that satisfies it,
    // not merely per evaluation.
    constexpr double kMaxRounds = 63.0;
    const double a = std::log(2.0 * kMaxRounds / kDelta);
    const double lambda_v =
        in.holdout_utility * static_cast<double>(in.holdout_theta) / n;
    const double lambda_u = std::max(in.utility, in.upper_bound) *
                            static_cast<double>(in.theta) / n;
    const double sqrt_lower =
        std::sqrt(lambda_v + 2.0 * a / 9.0) - std::sqrt(a / 2.0);
    const double lower =
        std::max(0.0, (sqrt_lower * sqrt_lower - a / 18.0) * n /
                          static_cast<double>(in.holdout_theta));
    const double sqrt_upper = std::sqrt(lambda_u + a / 2.0) +
                              std::sqrt(a / 2.0);
    const double upper =
        sqrt_upper * sqrt_upper * n / static_cast<double>(in.theta);
    if (upper <= 0.0) return verdict;
    verdict.certified_ratio = std::min(1.0, lower / upper);
    verdict.satisfied =
        verdict.certified_ratio >= 1.0 - 1.0 / kE - in.epsilon;
    return verdict;
  }

 private:
  /// Overall failure probability of the certificate, union-bounded
  /// over every bound evaluation the progressive loop can make.
  static constexpr double kDelta = 0.01;
  static constexpr double kE = 2.718281828459045;
};

}  // namespace

const StoppingRule& GetStoppingRule(StoppingRuleKind kind) {
  static const HoldoutGapRule holdout_rule;
  static const OpimBoundsRule opim_rule;
  switch (kind) {
    case StoppingRuleKind::kOpimBounds:
      return opim_rule;
    case StoppingRuleKind::kHoldoutGap:
    default:
      return holdout_rule;
  }
}

StatusOr<StoppingRuleKind> ParseStoppingRule(const std::string& name) {
  if (name == "holdout") return StoppingRuleKind::kHoldoutGap;
  if (name == "opim") return StoppingRuleKind::kOpimBounds;
  return Status::InvalidArgument("unknown stopping rule '" + name +
                                 "' (expected holdout|opim)");
}

}  // namespace oipa
