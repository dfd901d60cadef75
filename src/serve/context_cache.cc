#include "serve/context_cache.h"

#include <utility>

#include "data/datasets.h"
#include "oipa/logistic_model.h"
#include "topic/campaign.h"

namespace oipa {
namespace serve {
namespace {

/// Builds the full planning state for one cache miss: dataset,
/// campaign, and context (which runs the piece-graph build and the
/// sampling pass), through the request builders oipa_cli shares.
StatusOr<ContextCache::Entry> BuildEntry(const WireRequest& request) {
  Dataset dataset = BuildDataset(request.dataset);
  auto campaign = std::make_shared<const Campaign>(
      BuildCampaign(request.dataset, dataset.num_topics));
  ContextOptions options = ToContextOptions(request);
  // Dataset builds are deterministic per spec, so key the store
  // registry by the sample key (content) instead of graph identity: a
  // context evicted from this cache and rebuilt later re-hits its
  // budget-retained store with zero new samples, and contexts that
  // differ only in alpha/beta share one store.
  options.source_key = SampleKey(request);
  StatusOr<std::shared_ptr<const PlanningContext>> context =
      PlanningContext::Create(
          std::move(dataset.graph), std::move(dataset.probs),
          std::move(campaign),
          LogisticAdoptionModel(request.dataset.alpha, request.dataset.beta),
          options);
  if (!context.ok()) return context.status();

  ContextCache::Entry entry;
  entry.context = std::move(*context);
  entry.pool = std::move(dataset.promoter_pool);
  return entry;
}

}  // namespace

ContextCache::ContextCache(int max_contexts)
    : max_contexts_(max_contexts < 1 ? 1 : max_contexts) {}

StatusOr<std::shared_ptr<const ContextCache::Entry>>
ContextCache::Acquire(const WireRequest& request, bool* cache_hit) {
  *cache_hit = false;
  const std::string key = ContextKey(request);

  std::shared_ptr<Slot> slot;
  {
    MutexLock lock(&mu_);
    std::shared_ptr<Slot>& mapped = slots_[key];
    if (mapped == nullptr) mapped = std::make_shared<Slot>();
    slot = mapped;
    slot->last_use = ++use_tick_;
  }

  std::shared_ptr<const Entry> entry;
  {
    // Serializes construction per key; concurrent same-key requests
    // block here and find the entry ready.
    MutexLock creation(&slot->mu);
    if (slot->entry != nullptr) {
      entry = slot->entry;
      MutexLock lock(&mu_);
      ++hits_;
      *cache_hit = true;
    } else {
      StatusOr<Entry> built = BuildEntry(request);
      if (!built.ok()) {
        // Not cached: drop the slot (unless a newer one replaced it)
        // so the next request retries instead of inheriting the error.
        MutexLock lock(&mu_);
        auto it = slots_.find(key);
        if (it != slots_.end() && it->second == slot) slots_.erase(it);
        return built.status();
      }
      entry = std::make_shared<const Entry>(std::move(*built));
      slot->entry = entry;
      MutexLock lock(&mu_);
      ++misses_;
      slot->ready = true;
      EvictOverCapacityLocked();
    }
  }

  // Upward theta drift: a hit below the requested theta grows the
  // shared store in place (delta sampling only). Done outside every
  // cache lock — SampleStore::Grow serializes growers itself.
  if (*cache_hit &&
      entry->context->samples().mrr->theta() < request.sampling.theta) {
    OIPA_RETURN_IF_ERROR(
        entry->context->GrowSamples(request.sampling.theta));
  }
  return entry;
}

void ContextCache::EvictOverCapacityLocked() {
  int ready = 0;
  for (const auto& [key, slot] : slots_) {
    if (slot->ready) ++ready;
  }
  while (ready > max_contexts_) {
    auto victim = slots_.end();
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      if (!it->second->ready) continue;
      if (victim == slots_.end() ||
          it->second->last_use < victim->second->last_use) {
        victim = it;
      }
    }
    if (victim == slots_.end()) return;
    // In-flight solves hold the Entry shared_ptr; dropping the slot
    // only stops future requests from finding it.
    slots_.erase(victim);
    --ready;
    ++evictions_;
  }
}

ContextCache::Stats ContextCache::GetStats() const {
  MutexLock lock(&mu_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  for (const auto& [key, slot] : slots_) {
    if (slot->ready) ++stats.live_contexts;
  }
  return stats;
}

}  // namespace serve
}  // namespace oipa
