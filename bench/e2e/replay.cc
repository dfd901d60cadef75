#include "replay.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "data/datasets.h"
#include "oipa/api/solver_registry.h"
#include "rrset/mrr_collection.h"
#include "topic/campaign.h"
#include "topic/influence_graph.h"
#include "util/random.h"

namespace oipa {
namespace e2e {
namespace {

/// Misses whose pieces also get the (sampling-heavy) extend probe.
constexpr int kExtendProbes = 3;

/// Times one call and records it as a span when tracing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* layer,
             int64_t request, int64_t parent, int tid)
      : tracer_(tracer),
        name_(name),
        layer_(layer),
        request_(request),
        parent_(parent),
        tid_(tid) {
    if (tracer_ != nullptr) {
      id_ = tracer_->NewSpanId();
      start_us_ = tracer_->NowUs();
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Record(name_, layer_, request_, id_, parent_, tid_, start_us_,
                      tracer_->NowUs(), std::move(args_));
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }
  JsonValue& args() { return args_; }

 private:
  Tracer* const tracer_;
  const char* const name_;
  const char* const layer_;
  const int64_t request_;
  const int64_t parent_;
  const int tid_;
  int64_t id_ = 0;
  double start_us_ = 0.0;
  JsonValue args_ = JsonValue::Object();
};

}  // namespace

Dataset MakeRequestDataset(const serve::DatasetSpec& spec) {
  return spec.name == "synthetic"
             ? MakeSynthetic(static_cast<VertexId>(spec.n), spec.num_topics,
                             spec.pool_fraction, spec.seed)
             : MakeDatasetByName(spec.name, spec.scale, spec.seed);
}

std::shared_ptr<const Campaign> MakeRequestCampaign(
    const serve::DatasetSpec& spec, int num_topics) {
  Rng rng(spec.seed + 4);
  return std::make_shared<const Campaign>(
      Campaign::SampleUniformPieces(spec.ell, num_topics, &rng));
}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void Tracer::Record(const char* name, const char* layer, int64_t request,
                    int64_t id, int64_t parent, int tid, double start_us,
                    double end_us, JsonValue args) {
  args.Set("request", request).Set("id", id).Set("parent", parent);
  JsonValue event = JsonValue::Object();
  event.Set("name", name)
      .Set("cat", layer)
      .Set("ph", "X")
      .Set("ts", start_us)
      .Set("dur", end_us - start_us)
      .Set("pid", 1)
      .Set("tid", tid)
      .Set("args", std::move(args));
  MutexLock lock(&mu_);
  events_.push_back(std::move(event));
}

std::string Tracer::ToChromeJson(JsonValue other_data) const {
  JsonValue events = JsonValue::Array();
  {
    MutexLock lock(&mu_);
    for (const JsonValue& event : events_) events.Append(event);
  }
  JsonValue root = JsonValue::Object();
  root.Set("traceEvents", std::move(events))
      .Set("displayTimeUnit", "ms")
      .Set("otherData", std::move(other_data));
  return root.Dump(-1);
}

Replayer::Replayer(int max_contexts, Tracer* tracer)
    : cache_(max_contexts), tracer_(tracer) {}

double Replayer::Handle(const std::string& line, int64_t request, int tid,
                        JsonValue args) {
  std::optional<serve::WireRequest> missed;
  const auto start = std::chrono::steady_clock::now();
  {
    ScopedSpan root(tracer_, "request", "serve", request, 0, tid);
    if (args.is_object()) root.args() = std::move(args);
    StatusOr<serve::WireRequest> parsed = [&] {
      ScopedSpan span(tracer_, "ParseWireRequest", "serve", request,
                      root.id(), tid);
      return serve::ParseWireRequest(line);
    }();
    if (!parsed.ok()) {
      ScopedSpan span(tracer_, "render", "serve", request, root.id(), tid);
      serve::ErrorResponseLine("", parsed.status());
    } else if (parsed->type == "plan" &&
               HandlePlan(*parsed, request, root.id(), tid)) {
      missed = std::move(*parsed);
    }
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  if (tracer_ != nullptr && missed.has_value()) Probe(*missed, request, tid);
  return ms;
}

bool Replayer::HandlePlan(const serve::WireRequest& request, int64_t id,
                          int64_t parent, int tid) {
  const std::string key = serve::ContextKey(request);
  const int64_t cached_theta = tracer_ != nullptr ? CachedTheta(key) : 0;
  bool hit = false;
  StatusOr<std::shared_ptr<const Entry>> acquired = [&] {
    // Self time: the whole build on a miss; on a hit the lookup, waiting
    // on another request's build, and any growth.
    ScopedSpan span(tracer_, "ContextCache::Acquire", "context", id, parent,
                    tid);
    StatusOr<std::shared_ptr<const Entry>> out = cache_.Acquire(request, &hit);
    if (out.ok() && tracer_ != nullptr) {
      const PlanningContext& context = *(*out)->context;
      const SampleStore::Stats stats = context.sample_store().GetStats();
      span.args().Set("hit", hit);
      if (!hit) {
        span.args().Set("samples", stats.theta + stats.holdout_theta);
      } else if (cached_theta > 0 && cached_theta < request.sampling.theta) {
        span.args().Set("grown_samples", (stats.theta - cached_theta) *
                                             (context.has_holdout() ? 2 : 1));
      }
    }
    return out;
  }();
  if (!acquired.ok()) {
    ScopedSpan span(tracer_, "render", "serve", id, parent, tid);
    serve::ErrorResponseLine(request.id, acquired.status());
    return false;
  }
  if (tracer_ != nullptr) {
    MutexLock lock(&mu_);
    seen_[key] = *acquired;
  }
  const PlanningContext& context = *(*acquired)->context;
  PlanRequest plan = serve::ToPlanRequest(request, (*acquired)->pool);
  plan.deadline_ms = request.plan.deadline_ms;

  const StatusOr<std::vector<PlanResponse>> responses = [&] {
    ScopedSpan span(tracer_, "SolveBatch", "search", id, parent, tid);
    // Progressive rounds grow the store inside SolveBatch; the first
    // progress poll of each round (zero nodes expanded) sees the grown
    // theta, and the growth happened since the previous poll.
    int64_t theta = 0;
    double last_poll_us = 0.0;
    if (tracer_ != nullptr && plan.epsilon > 0.0) {
      theta = context.sample_store().theta();
      last_poll_us = tracer_->NowUs();
      plan.progress = [&, solve = span.id()](const PlanProgress& progress) {
        const double now_us = tracer_->NowUs();
        if (progress.nodes_expanded == 0) {
          const int64_t current = context.sample_store().theta();
          if (current != theta) {
            JsonValue args = JsonValue::Object();
            args.Set("samples", (current - theta) *
                                    (context.has_holdout() ? 2 : 1));
            tracer_->Record("SampleStore::Grow", "rrset", id,
                            tracer_->NewSpanId(), solve, tid, last_poll_us,
                            now_us, std::move(args));
            theta = current;
          }
        }
        last_poll_us = now_us;
        return true;
      };
    }
    StatusOr<std::vector<PlanResponse>> out = SolveBatch(context, plan);
    if (out.ok() && tracer_ != nullptr) {
      int64_t tau_evals = 0;
      int rounds = 0;
      for (const PlanResponse& r : *out) {
        tau_evals += r.tau_evals;
        rounds = std::max(rounds, r.sampling_rounds);
      }
      span.args()
          .Set("tau_evals", tau_evals)
          .Set("sampling_rounds", rounds)
          .Set("index_segments",
               context.samples().mrr->num_index_segments());
    }
    return out;
  }();

  ScopedSpan span(tracer_, "render", "serve", id, parent, tid);
  if (!responses.ok()) {
    serve::ErrorResponseLine(request.id, responses.status());
    return !hit;
  }
  JsonValue results = JsonValue::Array();
  bool cancelled = false;
  for (const PlanResponse& response : *responses) {
    cancelled = cancelled || response.cancelled;
    results.Append(serve::ResultJson(response));
  }
  serve::OkResponseLine(request.id, std::move(results), cancelled,
                        JsonValue::Object());
  return !hit;
}

int64_t Replayer::CachedTheta(const std::string& key) {
  std::shared_ptr<const Entry> entry;
  {
    MutexLock lock(&mu_);
    const auto it = seen_.find(key);
    if (it != seen_.end()) entry = it->second.lock();
  }
  return entry == nullptr ? 0 : entry->context->sample_store().theta();
}

void Replayer::Probe(const serve::WireRequest& request, int64_t id,
                     int tid) {
  const serve::DatasetSpec& d = request.dataset;
  const Dataset dataset = [&] {
    ScopedSpan span(tracer_, "MakeDataset", "data", id, 0, tid);
    return MakeRequestDataset(d);
  }();
  const std::shared_ptr<const Campaign> campaign =
      MakeRequestCampaign(d, dataset.num_topics);
  const std::vector<InfluenceGraph> pieces = [&] {
    ScopedSpan span(tracer_, "BuildPieceGraphs", "topic", id, 0, tid);
    return BuildPieceGraphs(*dataset.graph, *dataset.probs, *campaign);
  }();
  if (extend_probes_.fetch_add(1) >= kExtendProbes) return;
  const serve::SamplingSpec& s = request.sampling;
  MrrCollection samples = MrrCollection::Generate(
      pieces, s.theta / 2, s.seed, DiffusionModel::kIndependentCascade,
      s.threads);
  {
    ScopedSpan span(tracer_, "MrrCollection::Extend", "rrset", id, 0, tid);
    samples.Extend(pieces, s.theta, s.threads);
    span.args().Set("samples", s.theta - s.theta / 2);
  }
  probe_samples_.fetch_add(s.theta);
}

}  // namespace e2e
}  // namespace oipa
