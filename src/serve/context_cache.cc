#include "serve/context_cache.h"

#include <algorithm>
#include <utility>

#include "data/datasets.h"
#include "oipa/logistic_model.h"
#include "topic/campaign.h"

namespace oipa {
namespace serve {
namespace {

LogisticAdoptionModel RequestModel(const WireRequest& request) {
  return LogisticAdoptionModel(request.dataset.alpha, request.dataset.beta);
}

/// Builds the full planning state of a new slot: dataset, campaign, and
/// context (which runs the piece-graph build and the sampling pass, or
/// resumes `checkpoint`), through the request builders oipa_cli shares.
/// Adds the samples the build drew to `*drawn`.
StatusOr<ContextCache::Entry> BuildEntry(const WireRequest& request,
                                         const SampleSnapshot& checkpoint,
                                         bool* resumed, int64_t* drawn) {
  Dataset dataset = BuildDataset(request.dataset, request.sampling.threads);
  auto campaign = std::make_shared<const Campaign>(
      BuildCampaign(request.dataset, dataset.num_topics));
  ContextOptions options = ToContextOptions(request);
  // Requests plan over the dataset's pool, so only it is indexed.
  options.pool = dataset.promoter_pool;
  StatusOr<std::shared_ptr<const PlanningContext>> context =
      PlanningContext::Resume(std::move(dataset.graph),
                              std::move(dataset.probs), std::move(campaign),
                              RequestModel(request), options, checkpoint,
                              resumed);
  if (!context.ok()) return context.status();
  // The new store is this build's alone until it is cached: what it
  // holds past the resumed checkpoint, this build drew.
  const SampleSnapshot built = (*context)->samples();
  *drawn += built.mrr->theta() + built.holdout_theta;
  if (*resumed) *drawn -= checkpoint.mrr->theta() + checkpoint.holdout_theta;

  ContextCache::Entry entry;
  entry.context = std::move(*context);
  entry.pool = std::move(dataset.promoter_pool);
  return entry;
}

/// Bytes of a slot's store; 0 for a slot still being built.
int64_t StoreBytes(const std::shared_ptr<const ContextCache::Entry>& base) {
  return base == nullptr
             ? 0
             : base->context->sample_store().GetStats().memory_bytes;
}

}  // namespace

ContextCache::ContextCache(int max_contexts, int64_t store_budget_bytes)
    : max_contexts_(max_contexts < 1 ? 1 : max_contexts),
      store_budget_bytes_(store_budget_bytes < 0 ? 0 : store_budget_bytes) {}

StatusOr<std::shared_ptr<const ContextCache::Entry>>
ContextCache::Acquire(const WireRequest& request, bool* cache_hit,
                      int64_t* samples_drawn) {
  *cache_hit = false;
  int64_t drawn = 0;
  const std::string key = ContextKey(request);
  const std::string sample_key = SampleKey(request);
  // Destroyed after every lock below is released: an evicted context's
  // store may wait for its holdout job as it dies.
  Dropped dropped;
  std::shared_ptr<const Entry> entry;
  while (entry == nullptr) {
    std::shared_ptr<Slot> slot;
    {
      MutexLock lock(&mu_);
      entry = FindLocked(key);
      if (entry != nullptr) {
        *cache_hit = true;
        break;
      }
      std::shared_ptr<Slot>& mapped = slots_[sample_key];
      if (mapped == nullptr) mapped = std::make_shared<Slot>();
      slot = mapped;
      if (slot->base != nullptr) {
        // The slot's samples under this request's adoption model.
        entry = std::make_shared<const Entry>(
            Entry{slot->base->context->WithModel(RequestModel(request)),
                  slot->base->pool});
        InsertLocked(key, entry, std::move(slot), &dropped);
        break;
      }
    }
    // Concurrent misses of one slot queue here. Whoever holds the mutex
    // while the slot is still mapped and empty builds it; the others
    // start over and find their context or the built slot.
    MutexLock build(&slot->mu);
    SampleSnapshot checkpoint;
    {
      MutexLock lock(&mu_);
      const auto mapped = slots_.find(sample_key);
      if (mapped == slots_.end() || mapped->second != slot ||
          slot->base != nullptr) {
        continue;
      }
      const auto parked = recovered_.find(sample_key);
      if (parked != recovered_.end()) checkpoint = parked->second;
    }
    bool resumed = false;
    StatusOr<Entry> built =
        BuildEntry(request, checkpoint, &resumed, &drawn);
    MutexLock lock(&mu_);
    if (!built.ok()) {
      // Not cached: an empty slot is never evicted, so it is still
      // mapped; dropping it lets the next request retry.
      slots_.erase(sample_key);
      return built.status();
    }
    entry = std::make_shared<const Entry>(std::move(*built));
    slot->base = entry;
    if (resumed) {
      recovered_.erase(sample_key);
      ++recovered_stores_;
    }
    // A copy: once mu_ is released, another insert may evict the slot,
    // and the local reference keeps its mutex alive until `build` ends.
    InsertLocked(key, entry, slot, &dropped);
  }

  // Upward theta drift: an entry below the requested theta grows the
  // store in place (delta sampling only). Done outside every cache
  // lock — SampleStore::Grow serializes growers itself.
  if (entry->context->samples().mrr->theta() < request.sampling.theta) {
    OIPA_RETURN_IF_ERROR(
        entry->context->GrowSamples(request.sampling.theta, &drawn));
  }
  if (samples_drawn != nullptr) *samples_drawn += drawn;
  return entry;
}

std::shared_ptr<const ContextCache::Entry> ContextCache::FindLocked(
    const std::string& key) {
  const auto it = contexts_.find(key);
  if (it == contexts_.end()) return nullptr;
  ++hits_;
  it->second.last_use = ++use_tick_;
  it->second.slot->last_use = use_tick_;
  return it->second.entry;
}

void ContextCache::InsertLocked(const std::string& key,
                                std::shared_ptr<const Entry> entry,
                                std::shared_ptr<Slot> slot,
                                Dropped* dropped) {
  // `key` is not cached: its misses all wait on this slot's mutex, and
  // a sibling is made in the critical section that missed.
  ++misses_;
  ++slot->contexts;
  slot->last_use = ++use_tick_;
  contexts_[key] = CachedContext{std::move(entry), std::move(slot), use_tick_};
  EvictLocked(dropped);
}

void ContextCache::EvictLocked(Dropped* dropped) {
  while (contexts_.size() > static_cast<size_t>(max_contexts_)) {
    const auto victim = std::min_element(
        contexts_.begin(), contexts_.end(), [](const auto& a, const auto& b) {
          return a.second.last_use < b.second.last_use;
        });
    // In-flight solves hold the Entry shared_ptr; dropping it here only
    // stops future requests from finding it.
    --victim->second.slot->contexts;
    dropped->push_back(std::move(victim->second.entry));
    contexts_.erase(victim);
    ++evictions_;
  }
  int64_t bytes = 0;
  for (const auto& [key, slot] : slots_) bytes += StoreBytes(slot->base);
  while (bytes > store_budget_bytes_) {
    auto victim = slots_.end();
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      const Slot& candidate = *it->second;
      if (candidate.base == nullptr || candidate.contexts > 0) continue;
      if (victim == slots_.end() ||
          candidate.last_use < victim->second->last_use) {
        victim = it;
      }
    }
    if (victim == slots_.end()) return;
    bytes -= StoreBytes(victim->second->base);
    dropped->push_back(std::move(victim->second->base));
    slots_.erase(victim);
    ++store_evictions_;
  }
}

void ContextCache::OfferRecovered(const std::string& sample_key,
                                  SampleSnapshot checkpoint) {
  MutexLock lock(&mu_);
  recovered_[sample_key] = std::move(checkpoint);
}

std::vector<std::pair<std::string, std::shared_ptr<const PlanningContext>>>
ContextCache::Slots() const {
  MutexLock lock(&mu_);
  std::vector<std::pair<std::string, std::shared_ptr<const PlanningContext>>>
      out;
  for (const auto& [key, slot] : slots_) {
    if (slot->base != nullptr) out.emplace_back(key, slot->base->context);
  }
  return out;
}

ContextCache::Stats ContextCache::GetStats() const {
  MutexLock lock(&mu_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.live_contexts = static_cast<int>(contexts_.size());
  for (const auto& [key, slot] : slots_) {
    if (slot->base == nullptr) continue;
    ++stats.live_stores;
    if (slot->contexts > 0) ++stats.pinned_stores;
    stats.memory_bytes += StoreBytes(slot->base);
  }
  stats.budget_bytes = store_budget_bytes_;
  stats.store_evictions = store_evictions_;
  stats.recovered_stores = recovered_stores_;
  return stats;
}

JsonValue ContextCacheJson(const ContextCache::Stats& stats) {
  JsonValue j = JsonValue::Object();
  j.Set("hits", stats.hits)
      .Set("misses", stats.misses)
      .Set("evictions", stats.evictions)
      .Set("live_contexts", stats.live_contexts);
  return j;
}

JsonValue StoreRegistryJson(const ContextCache::Stats& stats) {
  JsonValue j = JsonValue::Object();
  j.Set("live_stores", stats.live_stores)
      .Set("pinned_stores", stats.pinned_stores)
      .Set("memory_bytes", stats.memory_bytes)
      .Set("budget_bytes", stats.budget_bytes)
      .Set("evictions", stats.store_evictions)
      .Set("recovered_stores", stats.recovered_stores);
  return j;
}

}  // namespace serve
}  // namespace oipa
