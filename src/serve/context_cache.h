#ifndef OIPA_SERVE_CONTEXT_CACHE_H_
#define OIPA_SERVE_CONTEXT_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cli/json_writer.h"
#include "graph/graph.h"
#include "oipa/api/planning_context.h"
#include "rrset/sample_store.h"
#include "serve/wire.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/threading.h"

namespace oipa {
namespace serve {

/// The serve daemon's cache of PlanningContexts and their sample stores.
/// A context is the expensive half of answering a plan request —
/// dataset generation, piece-graph construction, and the MRR sampling
/// pass — so repeat requests must skip all three.
///
/// Two keys, one cache. Contexts are keyed by ContextKey() (wire.h) and
/// kept under a `max_contexts` LRU. Each points at a sample slot keyed
/// by SampleKey(), which leaves out alpha/beta: the slot holds the
/// dataset, campaign and sample store of its first context, and every
/// other context of the slot is a PlanningContext::WithModel sibling
/// of it, so alpha/beta variants build the dataset and sample once.
/// Neither key holds theta: a request above the store's theta grows it
/// in place (bit-identical to up-front generation, only the delta is
/// sampled); a request below it is served as-is — the documented
/// upward-drift contract.
///
/// A slot outlives its last cached context only while the summed bytes
/// of every slot's store fit `store_budget_bytes`; over it, slots
/// without a cached context are evicted, least recently used first
/// (0 retains none). A slot that has a cached context is never evicted.
/// Entries are handed out as shared_ptr, so eviction never invalidates
/// an in-flight solve: an evicted context and its store die with their
/// last user. Checkpoints handed to OfferRecovered() are resumed by
/// the first build of their slot (PlanningContext::Resume).
///
/// Concurrency: `mu_` guards both maps, the LRU ticks and the counters;
/// each slot's own mutex serializes its build, so concurrent misses for
/// one SampleKey, alpha/beta variants included, build once, and
/// different keys build in parallel. Lock order: slot->mu before mu_
/// (never the reverse); under mu_ the stores' micro-mutexes are taken
/// for their byte counts. Evicted entries are dropped outside both, as
/// a dying store waits for its holdout job.
class ContextCache {
 public:
  /// A ready-to-solve cache entry: the context plus the dataset's
  /// promoter pool (the request pool the daemon plans over).
  struct Entry {
    std::shared_ptr<const PlanningContext> context;
    std::vector<VertexId> pool;
  };

  struct Stats {
    // Contexts (the wire's serve.context_cache block).
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    /// Contexts currently cached.
    int live_contexts = 0;

    // Sample slots (the wire's serve.store_registry block).
    /// Slots built and cached.
    int live_stores = 0;
    /// Cached slots that have a cached context.
    int pinned_stores = 0;
    /// Summed SampleStore::Stats::memory_bytes over the cached slots.
    int64_t memory_bytes = 0;
    int64_t budget_bytes = 0;
    /// Slots evicted by the budget.
    int64_t store_evictions = 0;
    /// Slots built from a recovered checkpoint, each with zero
    /// regenerated samples up to the checkpointed size.
    int64_t recovered_stores = 0;
  };

  explicit ContextCache(int max_contexts, int64_t store_budget_bytes = 0);

  /// Returns the cached entry for the request's ContextKey(), building
  /// it on a miss. `*cache_hit` reports which happened. An entry whose
  /// store is below the requested theta is grown to it before returning.
  /// Adds the samples this call drew (its build and its growth,
  /// in-sample plus the holdout they schedule) to `*samples_drawn` when
  /// given. Errors (dataset or context construction, growth) are not
  /// cached — the next request retries.
  StatusOr<std::shared_ptr<const Entry>> Acquire(
      const WireRequest& request, bool* cache_hit,
      int64_t* samples_drawn = nullptr);

  /// Parks `checkpoint` for the slot `sample_key`, replacing any parked
  /// one; the slot's next build resumes it when the provenance matches,
  /// and samples afresh otherwise (the checkpoint then stays parked).
  void OfferRecovered(const std::string& sample_key,
                      SampleSnapshot checkpoint);

  /// Every built slot as (SampleKey, its first context), for the
  /// checkpoint writer: the context keeps the graph the store's piece
  /// graphs alias alive.
  std::vector<std::pair<std::string, std::shared_ptr<const PlanningContext>>>
  Slots() const;

  Stats GetStats() const;

 private:
  struct Slot {
    /// Serializes the slot's build; held for the whole build.
    Mutex mu;
    /// Written once, under mu_ (with `mu` held): the slot's first
    /// context and its pool; null until built.
    std::shared_ptr<const Entry> base;
    /// Cached contexts pointing here, and the recency tick, under mu_.
    int contexts = 0;
    uint64_t last_use = 0;
  };

  struct CachedContext {
    std::shared_ptr<const Entry> entry;
    std::shared_ptr<Slot> slot;
    uint64_t last_use = 0;
  };

  /// Entries that eviction took out of the maps; destroyed by the
  /// caller once every lock is released.
  using Dropped = std::vector<std::shared_ptr<const Entry>>;

  /// The cached entry for `key`, counted as a hit; null on a miss.
  std::shared_ptr<const Entry> FindLocked(const std::string& key)
      OIPA_REQUIRES(mu_);

  /// Caches `entry` under `key`, pointing at `slot`, counted as a
  /// miss, and evicts.
  void InsertLocked(const std::string& key,
                    std::shared_ptr<const Entry> entry,
                    std::shared_ptr<Slot> slot, Dropped* dropped)
      OIPA_REQUIRES(mu_);

  /// Evicts least-recently-used contexts past max_contexts, then slots
  /// without a cached context while the stores exceed the budget.
  void EvictLocked(Dropped* dropped) OIPA_REQUIRES(mu_);

  const int max_contexts_;
  const int64_t store_budget_bytes_;
  mutable Mutex mu_;
  std::map<std::string, CachedContext> contexts_ OIPA_GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<Slot>> slots_ OIPA_GUARDED_BY(mu_);
  /// Checkpoints parked by OfferRecovered, keyed by SampleKey.
  std::map<std::string, SampleSnapshot> recovered_ OIPA_GUARDED_BY(mu_);
  uint64_t use_tick_ OIPA_GUARDED_BY(mu_) = 0;
  int64_t hits_ OIPA_GUARDED_BY(mu_) = 0;
  int64_t misses_ OIPA_GUARDED_BY(mu_) = 0;
  int64_t evictions_ OIPA_GUARDED_BY(mu_) = 0;
  int64_t store_evictions_ OIPA_GUARDED_BY(mu_) = 0;
  int64_t recovered_stores_ OIPA_GUARDED_BY(mu_) = 0;
};

/// The serve.context_cache telemetry block of `stats`.
JsonValue ContextCacheJson(const ContextCache::Stats& stats);

/// The serve.store_registry telemetry block of `stats`.
JsonValue StoreRegistryJson(const ContextCache::Stats& stats);

}  // namespace serve
}  // namespace oipa

#endif  // OIPA_SERVE_CONTEXT_CACHE_H_
