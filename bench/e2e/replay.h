#ifndef OIPA_BENCH_E2E_REPLAY_H_
#define OIPA_BENCH_E2E_REPLAY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cli/json_writer.h"
#include "data/datasets.h"
#include "serve/context_cache.h"
#include "serve/wire.h"
#include "topic/campaign.h"
#include "util/thread_annotations.h"
#include "util/threading.h"

namespace oipa {
namespace e2e {

/// The dataset a request names, built as ContextCache builds it.
Dataset MakeRequestDataset(const serve::DatasetSpec& spec);

/// The campaign ContextCache derives for `spec` over `num_topics`.
std::shared_ptr<const Campaign> MakeRequestCampaign(
    const serve::DatasetSpec& spec, int num_topics);

/// Spans of a traced replay, kept in memory and written once as Chrome
/// trace-event JSON. A span carries its name, its layer (the module it
/// measures, as the event category), start and duration, the id of the
/// span that caused it, and the request id shared by all spans of one
/// request. Thread-safe.
class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Microseconds since the tracer was created.
  double NowUs() const;

  int64_t NewSpanId() { return next_id_.fetch_add(1); }

  void Record(const char* name, const char* layer, int64_t request,
              int64_t id, int64_t parent, int tid, double start_us,
              double end_us, JsonValue args);

  /// {"traceEvents": [...], "otherData": other_data}.
  std::string ToChromeJson(JsonValue other_data) const;

 private:
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<int64_t> next_id_{1};
  mutable Mutex mu_;
  std::vector<JsonValue> events_ OIPA_GUARDED_BY(mu_);
};

/// Replays wire request lines in-process through the daemon's public
/// functions, along the path server.cc HandleGroup takes for one
/// request: ParseWireRequest; serve::ContextCache::Acquire (on a miss
/// the dataset, campaign and PlanningContext::Create, on a hit the
/// cached context plus GrowSamples when the request asks for more
/// samples); ToPlanRequest and SolveBatch; then ResultJson and
/// OkResponseLine. Requests are not merged.
///
/// With a tracer every call gets a span. An Acquire span that grew the
/// store carries the grown sample count. Progressive rounds show as
/// "SampleStore::Grow" children of SolveBatch: the interval between the
/// last progress poll of one round and the first poll of the next,
/// which holds the store growth plus that round's holdout scoring. After
/// each cache miss, outside the request span, probes rerun parts of the
/// build on the same inputs: the dataset builder (data layer) and
/// BuildPieceGraphs (topic layer), and for the first few misses
/// MrrCollection::Extend on a private collection over those pieces
/// (rrset extend rate).
class Replayer {
 public:
  /// `tracer` may be null: the replay then records nothing but the
  /// per-request latency.
  Replayer(int max_contexts, Tracer* tracer);

  /// Handles one line; returns its in-process latency in milliseconds
  /// (probes excluded). `request` identifies the request in the trace,
  /// `tid` the replay client, and `args` lands on the root span.
  double Handle(const std::string& line, int64_t request, int tid,
                JsonValue args);

  /// Samples drawn by the extend probes so far (they count in
  /// MrrCollection::GeneratedSampleCount but serve no request).
  int64_t probe_samples() const { return probe_samples_.load(); }

 private:
  using Entry = serve::ContextCache::Entry;

  /// Returns whether the request missed the cache.
  bool HandlePlan(const serve::WireRequest& request, int64_t id,
                  int64_t parent, int tid);
  void Probe(const serve::WireRequest& request, int64_t id, int tid);
  /// Theta of the key's store as it stands, or 0 when the replay holds
  /// no live entry for the key.
  int64_t CachedTheta(const std::string& key);

  serve::ContextCache cache_;
  Tracer* const tracer_;
  std::atomic<int> extend_probes_{0};
  std::atomic<int64_t> probe_samples_{0};

  /// The entry each key last resolved to, so a hit can tell whether
  /// Acquire grew the store. Traced replays only.
  Mutex mu_;
  std::map<std::string, std::weak_ptr<const Entry>> seen_
      OIPA_GUARDED_BY(mu_);
};

}  // namespace e2e
}  // namespace oipa

#endif  // OIPA_BENCH_E2E_REPLAY_H_
