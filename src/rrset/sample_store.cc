#include "rrset/sample_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "util/fault_injector.h"
#include "util/logging.h"

namespace oipa {

namespace {

/// Runs the in-sample job and the holdout job (either may be empty) side
/// by side in one parallel region, splitting the store's sampling
/// workers between them; the in-sample collection, which also builds
/// the index, gets the larger half. A job alone gets every worker. Each
/// job receives its worker count; samples are bit-identical at any.
void SideBySide(int sampling_threads, const std::function<void(int)>& mrr_job,
                const std::function<void(int)>& holdout_job) {
  const int workers = ResolveThreadCount(sampling_threads);
  if (!mrr_job || !holdout_job) {
    if (mrr_job) mrr_job(workers);
    if (holdout_job) holdout_job(workers);
    return;
  }
  const int holdout_workers = std::max(1, workers / 2);
  const int mrr_workers = std::max(1, workers - holdout_workers);
  ParallelFor(2, std::min(workers, 2), [&](int, int64_t lo, int64_t hi) {
    for (int64_t job = lo; job < hi; ++job) {
      if (job == 0) {
        mrr_job(mrr_workers);
      } else {
        holdout_job(holdout_workers);
      }
    }
  });
}

/// The holdout stream is decorrelated from the in-sample stream by the
/// same seed perturbation PlanningContext used before the store existed
/// (keeps pre-refactor runs bit-identical).
constexpr uint64_t kHoldoutSeedXor = 0xABCDEF12345ULL;

int64_t ResolvedHoldoutTheta(const SampleStore::Options& options) {
  return options.holdout_theta < 0 ? options.theta : options.holdout_theta;
}

}  // namespace

std::shared_ptr<SampleStore> SampleStore::Build(
    std::shared_ptr<const std::vector<InfluenceGraph>> pieces,
    const Options& options, bool shared) {
  OIPA_CHECK(pieces != nullptr && !pieces->empty());
  OIPA_CHECK_GE(options.theta, 1);
  std::shared_ptr<SampleStore> store(new SampleStore());
  store->pieces_ = std::move(pieces);
  store->options_ = options;
  store->options_.holdout_theta = ResolvedHoldoutTheta(options);
  store->shared_ = shared;
  // The holdout only scores finished plans (EstimateAdoptionUtility
  // scans it), so it is sampled without an inverted index.
  const std::vector<InfluenceGraph>& piece_graphs = *store->pieces_;
  const int64_t holdout_theta = store->options_.holdout_theta;
  std::shared_ptr<const MrrCollection> mrr;
  std::shared_ptr<const MrrCollection> holdout;
  std::function<void(int)> holdout_job;
  if (holdout_theta > 0) {
    holdout_job = [&](int workers) {
      holdout = std::make_shared<const MrrCollection>(MrrCollection::Generate(
          piece_graphs, holdout_theta, options.seed ^ kHoldoutSeedXor,
          options.diffusion, workers, /*indexed=*/false));
    };
  }
  SideBySide(
      options.sampling_threads,
      [&](int workers) {
        mrr = std::make_shared<const MrrCollection>(MrrCollection::Generate(
            piece_graphs, options.theta, options.seed, options.diffusion,
            workers));
      },
      holdout_job);
  {
    MutexLock grow_lock(&store->grow_mu_);
    store->Publish(std::move(mrr), std::move(holdout));
  }
  return store;
}

std::shared_ptr<SampleStore> SampleStore::Create(
    std::shared_ptr<const std::vector<InfluenceGraph>> pieces,
    const Options& options) {
  return Build(std::move(pieces), options, /*shared=*/false);
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
  {
    MutexLock grow_lock(&store->grow_mu_);
    store->Publish(std::move(mrr), std::move(holdout));
  }
  return store;
}

// ----------------------------------------------------------- registry

namespace {

/// Identity key of a shareable sampling configuration. Graph and probs
/// are keyed by object identity (a live store keeps them alive, so a
/// key can never alias a recycled address of a dead object); campaign
/// pieces are keyed by content, since equal piece topic vectors produce
/// equal influence graphs regardless of which Campaign object carries
/// them. Theta is deliberately absent — a live store at a larger theta
/// strictly contains any smaller same-key request (prefix sharing), and
/// a larger request grows the store in place. Only the presence of a
/// holdout stream is keyed: stores with and without one have different
/// generation histories and cannot substitute for each other.
struct StoreKey {
  const void* graph = nullptr;
  const void* probs = nullptr;
  /// Content key replacing graph/probs identity when the caller set
  /// Options::source_key (both pointers stay null in that case, so a
  /// source-keyed entry can never collide with an identity-keyed one).
  std::string source;
  uint64_t campaign_fingerprint = 0;
  int diffusion = 0;
  uint64_t seed = 0;
  bool has_holdout = false;

  bool operator<(const StoreKey& o) const {
    return std::tie(graph, probs, source, campaign_fingerprint, diffusion,
                    seed, has_holdout) <
           std::tie(o.graph, o.probs, o.source, o.campaign_fingerprint,
                    o.diffusion, o.seed, o.has_holdout);
  }
};

/// Exact piece-content equality — the fingerprint routes to a slot,
/// this guards against 64-bit hash collisions before samples are
/// shared (a collision would silently serve one campaign's samples to
/// another).
bool SamePieceTopics(const Campaign& a, const Campaign& b) {
  if (a.num_pieces() != b.num_pieces()) return false;
  for (int j = 0; j < a.num_pieces(); ++j) {
    if (a.piece(j).topics.values() != b.piece(j).topics.values()) {
      return false;
    }
  }
  return true;
}

uint64_t FingerprintCampaign(const Campaign& campaign) {
  // FNV-1a over piece count and each topic value's bit pattern.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(static_cast<uint64_t>(campaign.num_pieces()));
  for (const ViralPiece& piece : campaign.pieces()) {
    mix(static_cast<uint64_t>(piece.topics.num_topics()));
    for (const double value : piece.topics.values()) {
      uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(value));
      std::memcpy(&bits, &value, sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

/// Guards the registry map, every slot's published weak_ptr, and the
/// retention/budget bookkeeping. Lock order: a slot's mu first, then
/// g_registry_mu — nothing takes them in the opposite order (Acquire
/// releases g_registry_mu before locking a slot). Budget enforcement
/// additionally takes a store's history_mu_ (inside GetStats) while
/// holding g_registry_mu, which fixes the order g_registry_mu →
/// history_mu_; no store method takes the registry lock, so the order
/// cannot invert.
Mutex g_registry_mu;

/// Per-key creation slot: concurrent Acquires of one key serialize on
/// the slot mutex (exactly one sampling pass; prefix growth also
/// happens under it), while different keys sample concurrently. The
/// published weak_ptr and the pin/retention state live under
/// g_registry_mu so that PruneRegistryLocked/RegistrySize and the
/// budget sweep can walk every slot under the one registry lock.
struct RegistrySlot {
  Mutex mu;
  std::weak_ptr<SampleStore> store OIPA_GUARDED_BY(g_registry_mu);
  /// Keeps the store alive past its last pinned handle when a nonzero
  /// registry budget is set (null otherwise): the retention the LRU
  /// eviction sweep trades against the byte budget.
  std::shared_ptr<SampleStore> retained OIPA_GUARDED_BY(g_registry_mu);
  /// Outstanding pinned handles; a pinned store is never evicted.
  int pins OIPA_GUARDED_BY(g_registry_mu) = 0;
  /// Global use tick at the last pin/unpin — the LRU ordering.
  uint64_t last_use OIPA_GUARDED_BY(g_registry_mu) = 0;
};

std::map<StoreKey, std::shared_ptr<RegistrySlot>>& Registry()
    OIPA_REQUIRES(g_registry_mu) {
  static auto* registry =
      new std::map<StoreKey, std::shared_ptr<RegistrySlot>>();
  return *registry;
}

int64_t g_budget_bytes OIPA_GUARDED_BY(g_registry_mu) = 0;
uint64_t g_use_tick OIPA_GUARDED_BY(g_registry_mu) = 0;
int64_t g_evictions OIPA_GUARDED_BY(g_registry_mu) = 0;
int64_t g_recovered_stores OIPA_GUARDED_BY(g_registry_mu) = 0;

/// Recovery snapshots parked by OfferRecoveredSnapshot, keyed by
/// source_key and consumed lazily by the first matching source-keyed
/// Acquire (see SampleStore::BuildFromRecovered).
std::map<std::string, SampleSnapshot>& RecoveryMap()
    OIPA_REQUIRES(g_registry_mu) {
  static auto* parked = new std::map<std::string, SampleSnapshot>();
  return *parked;
}

/// Drops slots whose store died and which no Acquire currently holds.
void PruneRegistryLocked() OIPA_REQUIRES(g_registry_mu) {
  auto& registry = Registry();
  for (auto it = registry.begin(); it != registry.end();) {
    if (it->second.use_count() == 1 && it->second->store.expired()) {
      it = registry.erase(it);
    } else {
      ++it;
    }
  }
}

/// Applies the byte budget: with budget 0, drops every retained handle
/// (no-retention mode); otherwise evicts the least-recently-used
/// unpinned retained store until the summed MemoryBytes() of live
/// registered stores fits the budget or nothing evictable remains
/// (pinned stores can legitimately hold the total above budget).
void EnforceBudgetLocked() OIPA_REQUIRES(g_registry_mu) {
  if (g_budget_bytes <= 0) {
    for (auto& [key, slot] : Registry()) {
      (void)key;
      slot->retained.reset();
    }
    return;
  }
  for (;;) {
    int64_t total = 0;
    RegistrySlot* victim = nullptr;
    for (auto& [key, slot] : Registry()) {
      (void)key;
      const std::shared_ptr<SampleStore> live = slot->store.lock();
      if (live == nullptr) continue;
      total += live->GetStats().memory_bytes;
      if (slot->retained != nullptr && slot->pins == 0 &&
          (victim == nullptr || slot->last_use < victim->last_use)) {
        victim = slot.get();
      }
    }
    if (total <= g_budget_bytes || victim == nullptr) return;
    victim->retained.reset();
    ++g_evictions;
  }
}

/// The handle Acquire returns is an aliasing shared_ptr whose control
/// block owns one of these: the store stays pinned (and the slot's
/// pin count raised) until the last copy of the handle dies, at which
/// point the budget sweep may evict it.
class PinnedHandle {
 public:
  PinnedHandle(std::shared_ptr<RegistrySlot> slot,
               std::shared_ptr<SampleStore> store)
      : slot_(std::move(slot)), store_(std::move(store)) {}
  PinnedHandle(const PinnedHandle&) = delete;
  PinnedHandle& operator=(const PinnedHandle&) = delete;

  ~PinnedHandle() {
    MutexLock lock(&g_registry_mu);
    --slot_->pins;
    slot_->last_use = ++g_use_tick;
    EnforceBudgetLocked();
    // store_ itself is released after this body — outside the lock —
    // so a store whose retention was just evicted is destroyed without
    // g_registry_mu held.
  }

  SampleStore* get() const { return store_.get(); }

 private:
  std::shared_ptr<RegistrySlot> slot_;
  std::shared_ptr<SampleStore> store_;
};

/// Pins `store` in `slot` and wraps it in the handle described above.
std::shared_ptr<SampleStore> PinStore(std::shared_ptr<RegistrySlot> slot,
                                      std::shared_ptr<SampleStore> store) {
  {
    MutexLock lock(&g_registry_mu);
    ++slot->pins;
    slot->last_use = ++g_use_tick;
    if (g_budget_bytes > 0) slot->retained = store;
  }
  auto holder =
      std::make_shared<PinnedHandle>(std::move(slot), std::move(store));
  return {holder, holder->get()};
}

}  // namespace

std::shared_ptr<SampleStore> SampleStore::BuildFromRecovered(
    std::shared_ptr<const std::vector<InfluenceGraph>> pieces,
    const Options& options) {
  SampleSnapshot parked;
  {
    MutexLock lock(&g_registry_mu);
    auto it = RecoveryMap().find(options.source_key);
    if (it == RecoveryMap().end()) return nullptr;
    parked = it->second;
  }
  // Provenance gate: a parked snapshot only substitutes for fresh
  // generation when it demonstrably came from this exact sampling
  // configuration — otherwise fall back to sampling from scratch (a
  // wrong checkpoint must cost cold-start time, never correctness).
  // The entry stays parked on mismatch: a differently-configured
  // request under the same key (e.g. with vs without holdout) is not
  // evidence the snapshot is bad.
  const int64_t want_holdout = ResolvedHoldoutTheta(options);
  const bool usable =
      parked.mrr != nullptr && parked.mrr->extendable() &&
      parked.mrr->indexed() &&
      parked.mrr->base_seed() == options.seed &&
      parked.mrr->model() == options.diffusion &&
      parked.mrr->num_pieces() == static_cast<int>(pieces->size()) &&
      parked.mrr->num_vertices() ==
          pieces->front().graph().num_vertices() &&
      (want_holdout > 0) == (parked.holdout != nullptr) &&
      (parked.holdout == nullptr ||
       (parked.holdout->extendable() &&
        parked.holdout->base_seed() == (options.seed ^ kHoldoutSeedXor) &&
        parked.holdout->model() == options.diffusion &&
        parked.holdout->num_pieces() == parked.mrr->num_pieces() &&
        parked.holdout->num_vertices() == parked.mrr->num_vertices()));
  if (!usable) return nullptr;
  std::shared_ptr<SampleStore> store(new SampleStore());
  store->pieces_ = std::move(pieces);
  store->options_ = options;
  store->options_.theta = parked.mrr->theta();
  store->options_.holdout_theta =
      parked.holdout == nullptr ? 0 : parked.holdout->theta();
  store->shared_ = true;
  {
    MutexLock grow_lock(&store->grow_mu_);
    store->Publish(parked.mrr, parked.holdout);
  }
  // A request past the checkpointed sizes resumes the sample stream
  // (growth is bit-identical to up-front generation); only the delta
  // is sampled. A recovered store that cannot grow that far is useless
  // for this request — discard it and sample afresh.
  const int64_t have_holdout =
      parked.holdout == nullptr ? 0 : parked.holdout->theta();
  if (parked.mrr->theta() < options.theta || have_holdout < want_holdout) {
    if (!store->Grow(std::max(options.theta, want_holdout)).ok()) {
      return nullptr;
    }
  }
  MutexLock lock(&g_registry_mu);
  RecoveryMap().erase(options.source_key);
  ++g_recovered_stores;
  return store;
}

Status SampleStore::OfferRecoveredSnapshot(
    const std::string& source_key,
    std::shared_ptr<const MrrCollection> mrr,
    std::shared_ptr<const MrrCollection> holdout) {
  if (source_key.empty()) {
    return Status::InvalidArgument(
        "recovery snapshots need a non-empty source_key");
  }
  if (mrr == nullptr) {
    return Status::InvalidArgument(
        "recovery snapshot for '" + source_key + "' has no collection");
  }
  MutexLock lock(&g_registry_mu);
  RecoveryMap()[source_key] =
      SampleSnapshot{std::move(mrr), std::move(holdout)};
  return Status::Ok();
}

void SampleStore::ClearRecoveredSnapshots() {
  MutexLock lock(&g_registry_mu);
  RecoveryMap().clear();
}

std::vector<std::shared_ptr<SampleStore>>
SampleStore::RegistryStoresForCheckpoint() {
  MutexLock lock(&g_registry_mu);
  std::vector<std::shared_ptr<SampleStore>> out;
  for (const auto& [key, slot] : Registry()) {
    (void)key;
    std::shared_ptr<SampleStore> live = slot->store.lock();
    if (live != nullptr && !live->options().source_key.empty()) {
      out.push_back(std::move(live));
    }
  }
  return out;
}

/// Out-of-line so the store's private constructor stays private: builds
/// the registered store, including its piece graphs and keep-alives.
std::shared_ptr<SampleStore> MakeStoreForAcquire(
    std::shared_ptr<const Graph> graph,
    std::shared_ptr<const EdgeTopicProbs> probs,
    std::shared_ptr<const Campaign> campaign,
    const SampleStore::Options& options) {
  auto pieces = std::make_shared<const std::vector<InfluenceGraph>>(
      BuildPieceGraphs(*graph, *probs, *campaign, options.sampling_threads));
  std::shared_ptr<SampleStore> store;
  if (!options.source_key.empty()) {
    store = SampleStore::BuildFromRecovered(pieces, options);
  }
  if (store == nullptr) {
    store = SampleStore::Build(std::move(pieces), options, /*shared=*/true);
  }
  // The campaign keep-alive is an owned deep copy, never the caller's
  // pointer: campaigns are keyed by content, so a later Acquire may
  // compare against it after the original (possibly Borrow-aliased,
  // non-owning) object is gone. Graph/probs need no copy — they are
  // keyed by identity, so every sharer passes the same live object.
  store->campaign_keepalive_ = std::make_shared<const Campaign>(*campaign);
  store->graph_keepalive_ = std::move(graph);
  store->probs_keepalive_ = std::move(probs);
  return store;
}

std::shared_ptr<SampleStore> SampleStore::Acquire(
    std::shared_ptr<const Graph> graph,
    std::shared_ptr<const EdgeTopicProbs> probs,
    std::shared_ptr<const Campaign> campaign, const Options& options) {
  OIPA_CHECK(graph != nullptr && probs != nullptr && campaign != nullptr);
  if (FaultInjector::ShouldFail("store.acquire")) return nullptr;
  StoreKey key;
  if (options.source_key.empty()) {
    key.graph = graph.get();
    key.probs = probs.get();
  } else {
    key.source = options.source_key;
  }
  key.campaign_fingerprint = FingerprintCampaign(*campaign);
  key.diffusion = static_cast<int>(options.diffusion);
  key.seed = options.seed;
  const int64_t want_holdout = ResolvedHoldoutTheta(options);
  key.has_holdout = want_holdout > 0;

  std::shared_ptr<RegistrySlot> slot;
  {
    MutexLock lock(&g_registry_mu);
    PruneRegistryLocked();
    auto& entry = Registry()[key];
    if (entry == nullptr) entry = std::make_shared<RegistrySlot>();
    slot = entry;
  }
  // Sampling happens under the slot mutex only: a concurrent Acquire of
  // the same key waits for (and then shares) this pass — including a
  // prefix Grow below, so racing smaller requests see the grown store —
  // while other keys proceed. The published weak_ptr itself lives under
  // g_registry_mu (guard declared on RegistrySlot::store), so the read
  // and the write below take it briefly — map-op-sized critical
  // sections. Lock order here: slot->mu, then (briefly) g_registry_mu
  // or the store's internal grow/snapshot locks; never the reverse.
  MutexLock slot_lock(&slot->mu);
  std::shared_ptr<SampleStore> existing;
  {
    MutexLock registry_lock(&g_registry_mu);
    existing = slot->store.lock();
  }
  if (existing != nullptr) {
    if (!SamePieceTopics(*existing->campaign_keepalive_, *campaign)) {
      // Fingerprint collision between distinct campaigns: never share —
      // fall through to a store that bypasses the occupied slot.
      return MakeStoreForAcquire(std::move(graph), std::move(probs),
                                 std::move(campaign), options);
    }
    // Theta-prefix sharing: a request larger than the live store grows
    // it in place (only the delta is sampled — bit-identical to an
    // up-front generation at the larger size); a smaller or equal
    // request shares as-is, zero new samples.
    const SampleSnapshot snap = existing->snapshot();
    const int64_t have_holdout =
        snap.holdout == nullptr ? 0 : snap.holdout->theta();
    if (snap.mrr->theta() < options.theta || have_holdout < want_holdout) {
      const Status grown =
          existing->Grow(std::max(options.theta, want_holdout));
      if (!grown.ok()) {
        // A registered store that cannot extend (adopted collections
        // without provenance cannot reach this slot, but stay safe):
        // serve the larger request from a private bypass store.
        return MakeStoreForAcquire(std::move(graph), std::move(probs),
                                   std::move(campaign), options);
      }
    }
    return PinStore(std::move(slot), std::move(existing));
  }
  std::shared_ptr<SampleStore> store = MakeStoreForAcquire(
      std::move(graph), std::move(probs), std::move(campaign), options);
  {
    MutexLock registry_lock(&g_registry_mu);
    slot->store = store;
    EnforceBudgetLocked();
  }
  return PinStore(std::move(slot), std::move(store));
}

void SampleStore::SetRegistryBudget(int64_t bytes) {
  MutexLock lock(&g_registry_mu);
  g_budget_bytes = bytes < 0 ? 0 : bytes;
  EnforceBudgetLocked();
}

SampleStore::RegistryStats SampleStore::GetRegistryStats() {
  MutexLock lock(&g_registry_mu);
  PruneRegistryLocked();
  RegistryStats stats;
  stats.budget_bytes = g_budget_bytes;
  stats.evictions = g_evictions;
  stats.recovered_stores = g_recovered_stores;
  for (const auto& [key, slot] : Registry()) {
    (void)key;
    const std::shared_ptr<SampleStore> live = slot->store.lock();
    if (live == nullptr) continue;
    ++stats.live_stores;
    if (slot->pins > 0) ++stats.pinned_stores;
    stats.memory_bytes += live->GetStats().memory_bytes;
  }
  return stats;
}

int SampleStore::RegistrySize() {
  MutexLock lock(&g_registry_mu);
  PruneRegistryLocked();
  int live = 0;
  for (const auto& [key, slot] : Registry()) {
    (void)key;
    if (!slot->store.expired()) ++live;
  }
  return live;
}

// ---------------------------------------------------- snapshot + grow

void SampleStore::Publish(std::shared_ptr<const MrrCollection> mrr,
                          std::shared_ptr<const MrrCollection> holdout) {
  {
    MutexLock lock(&history_mu_);
    // A republished (unchanged) collection must not appear twice —
    // live_generations()/GetStats() count history entries.
    if (mrr_history_.empty() || mrr_history_.back().lock() != mrr) {
      mrr_history_.push_back(mrr);
    }
    if (holdout != nullptr &&
        (holdout_history_.empty() ||
         holdout_history_.back().lock() != holdout)) {
      holdout_history_.push_back(holdout);
    }
  }
  auto next = std::make_shared<const SampleSnapshot>(
      SampleSnapshot{std::move(mrr), std::move(holdout)});
  MutexLock lock(&snapshot_mu_);
  current_ = std::move(next);
}

SampleSnapshot SampleStore::snapshot() const {
  std::shared_ptr<const SampleSnapshot> current;
  {
    MutexLock lock(&snapshot_mu_);
    current = current_;
  }
  return *current;
}

bool SampleStore::CanGrow() const {
  if (pieces_ == nullptr) return false;
  const SampleSnapshot snap = snapshot();
  return snap.mrr->extendable() &&
         (snap.holdout == nullptr || snap.holdout->extendable());
}

Status SampleStore::Grow(int64_t target_theta) {
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
  const SampleSnapshot current = snapshot();
  const bool mrr_below = current.mrr->theta() < target_theta;
  const bool holdout_below = current.holdout != nullptr &&
                             current.holdout->theta() < target_theta;
  if (!mrr_below && !holdout_below) return Status::Ok();
  if (pieces_ == nullptr || !current.mrr->extendable() ||
      (current.holdout != nullptr && !current.holdout->extendable())) {
    return Status::FailedPrecondition(
        "store samples lack sampling provenance and cannot grow "
        "(collections loaded via legacy FromParts are not extendable)");
  }
  // Copy-on-grow: grown copies (each existing sample copied once, the
  // index segments shared) are published as the next generation. The
  // superseded generation is only pinned by whatever snapshots are
  // still outstanding — once the last one drops, it is freed
  // (compaction), which live_generations() observes. A collection
  // already at target (a holdout catching up to a larger in-sample
  // stream, or vice versa) is republished untouched.
  std::shared_ptr<const MrrCollection> grown = current.mrr;
  std::shared_ptr<const MrrCollection> grown_holdout = current.holdout;
  std::function<void(int)> mrr_job;
  std::function<void(int)> holdout_job;
  if (mrr_below) {
    mrr_job = [&](int workers) {
      grown = std::make_shared<const MrrCollection>(
          current.mrr->ExtendedCopy(*pieces_, target_theta, workers));
    };
  }
  if (holdout_below) {
    holdout_job = [&](int workers) {
      grown_holdout = std::make_shared<const MrrCollection>(
          current.holdout->ExtendedCopy(*pieces_, target_theta, workers));
    };
  }
  SideBySide(options_.sampling_threads, mrr_job, holdout_job);
  Publish(std::move(grown), std::move(grown_holdout));
  return Status::Ok();
}

int SampleStore::live_generations() const {
  MutexLock lock(&history_mu_);
  auto expired = [](const std::weak_ptr<const MrrCollection>& w) {
    return w.expired();
  };
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
  stats.holdout_theta =
      snap.holdout == nullptr ? 0 : snap.holdout->theta();
  stats.shared = shared_;
  // One locked pass over the history so the generation count and the
  // memory sum describe the same instant.
  MutexLock lock(&history_mu_);
  for (const auto* history : {&mrr_history_, &holdout_history_}) {
    for (const auto& weak : *history) {
      if (const auto live = weak.lock()) {
        stats.memory_bytes += live->MemoryBytes();
        if (history == &mrr_history_) ++stats.live_generations;
      }
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
