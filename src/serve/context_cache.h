#ifndef OIPA_SERVE_CONTEXT_CACHE_H_
#define OIPA_SERVE_CONTEXT_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "oipa/api/planning_context.h"
#include "serve/wire.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/threading.h"

namespace oipa {
namespace serve {

/// Keyed cache of live PlanningContexts for the serve daemon. A context
/// is the expensive half of answering a plan request — dataset
/// generation, piece-graph construction, and the MRR sampling pass —
/// so repeat requests for the same ContextKey() must skip all three.
///
/// Keying follows the SampleStore registry: the key covers every
/// dataset/sampling field except theta (see wire.h ContextKey). A hit
/// whose cached store is smaller than the requested theta grows the
/// store in place (bit-identical to up-front generation) instead of
/// building a second context; requests below the cached theta are
/// served as-is — the documented upward-drift contract.
///
/// Entries are handed out as shared_ptr, so eviction never invalidates
/// an in-flight solve: the evicted context (and its pinned sample
/// store) dies with its last user. Capacity is bounded by
/// `max_contexts`; overflow evicts the least-recently-acquired ready
/// entry. Contexts are built with owning inputs (PlanningContext::
/// Create), which is what makes a nonzero SampleStore registry budget
/// safe to combine with this cache (see SampleStore::Acquire).
///
/// Concurrency: the slot pattern of the store registry. `mu_` guards
/// only the key -> slot map and the LRU/counter bookkeeping; each
/// slot's own mutex serializes the expensive context construction, so
/// concurrent requests for one key build once and requests for
/// different keys build in parallel. Lock order: slot->mu before mu_
/// (never the reverse).
class ContextCache {
 public:
  /// A ready-to-solve cache entry: the context plus the dataset's
  /// promoter pool (the request pool the daemon plans over).
  struct Entry {
    std::shared_ptr<const PlanningContext> context;
    std::vector<VertexId> pool;
  };

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    /// Ready entries currently cached.
    int live_contexts = 0;
  };

  explicit ContextCache(int max_contexts);

  /// Returns the cached entry for the request's ContextKey(), building
  /// it on a miss. `*cache_hit` reports which happened. A hit with a
  /// smaller cached theta grows the sample store to the requested
  /// theta before returning. Errors (dataset or context construction)
  /// are not cached — the next request retries.
  StatusOr<std::shared_ptr<const Entry>> Acquire(
      const WireRequest& request, bool* cache_hit);

  Stats GetStats() const;

 private:
  struct Slot {
    /// Serializes construction per key; held for the whole build.
    Mutex mu;
    std::shared_ptr<const Entry> entry OIPA_GUARDED_BY(mu);
    /// Recency tick and readiness, maintained under the cache mutex.
    uint64_t last_use = 0;
    bool ready = false;
  };

  /// Removes LRU ready slots until at most max_contexts_ remain, moving
  /// them to `evicted` for the caller to drop outside the locks.
  void EvictOverCapacityLocked(std::vector<std::shared_ptr<Slot>>* evicted)
      OIPA_REQUIRES(mu_);

  const int max_contexts_;
  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<Slot>> slots_
      OIPA_GUARDED_BY(mu_);
  uint64_t use_tick_ OIPA_GUARDED_BY(mu_) = 0;
  int64_t hits_ OIPA_GUARDED_BY(mu_) = 0;
  int64_t misses_ OIPA_GUARDED_BY(mu_) = 0;
  int64_t evictions_ OIPA_GUARDED_BY(mu_) = 0;
};

}  // namespace serve
}  // namespace oipa

#endif  // OIPA_SERVE_CONTEXT_CACHE_H_
