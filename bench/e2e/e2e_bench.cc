// oipa_e2e_bench: end-to-end benchmark of the oipa_serve daemon.
//
//   oipa_e2e_bench --workload=NAME --seed=N --seconds=S [--trace=0|1]
//                  [--out=result.json] [--trace_out=trace.json]
//   oipa_e2e_bench --dry_run --workload=NAME --seed=N --seconds=S
//
// Spawns the oipa_serve binary built from the same tree, sets it up
// (spawn, "listening", warm-up requests) seven times and keeps the last
// instance, then drives the workload's seeded request stream over
// loopback TCP and checks every response (oracle.h). Prints each metric
// as "workload metric value unit"; with --trace=0 the last line is the
// result JSON of the end-to-end metrics. --trace=1 then replays the
// same stream in-process three times, the middle one with spans, and
// writes the spans as Chrome trace-event JSON for trace_summary.py.
// --dry_run only prints the generated stream's fingerprint.
// bench/e2e/run.sh builds and runs it; see bench/e2e/README.md.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/json_writer.h"
#include "daemon_client.h"
#include "oracle.h"
#include "replay.h"
#include "rrset/mrr_collection.h"
#include "serve/json_parser.h"
#include "util/flags.h"
#include "util/thread_annotations.h"
#include "util/threading.h"
#include "workloads.h"

namespace oipa {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupRuns = 7;
constexpr int kMaxContexts = 4;
/// A request with no answer for this long counts as failed, and as this
/// latency in the percentiles.
constexpr int kReadTimeoutMs = 30'000;
/// serve-mix latency limit on p99 for slo_rate_rps.
constexpr double kSloP99Ms = 25.0;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// What the load generator saw for one request.
struct Observation {
  std::optional<std::string> response;
  /// Transport failure, if any.
  std::string error;
  /// Closed loop: from the write. Open loop: from the scheduled time.
  double latency_ms = 0.0;
  /// Open loop: send time behind schedule. Closed loop: time to write
  /// the request.
  double late_ms = 0.0;
  /// Completion, seconds after the measured phase started.
  double done_s = 0.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

const JsonValue* Find(const JsonValue* object, const std::string& key) {
  return object != nullptr && object->is_object() ? object->Find(key)
                                                  : nullptr;
}

const JsonValue* Find(const JsonValue& object, const std::string& key) {
  return Find(&object, key);
}

double Number(const JsonValue* value) {
  return value != nullptr && value->is_number() ? value->double_value() : 0.0;
}

bool Truthy(const JsonValue* value) {
  return value != nullptr && value->is_bool() && value->bool_value();
}

std::vector<std::string> DaemonArgv() {
  return {OIPA_SERVE_PATH, "--port=0", "--workers=2",
          "--max_contexts=" + std::to_string(kMaxContexts)};
}

StatusOr<JsonValue> Exchange(LineConnection* conn, const std::string& line) {
  OIPA_RETURN_IF_ERROR(conn->WriteLine(line));
  StatusOr<std::string> response = conn->ReadLine(kReadTimeoutMs);
  if (!response.ok()) return response.status();
  return serve::ParseJson(*response);
}

/// Spawns a daemon and sends the workload's warm-up lines.
StatusOr<std::unique_ptr<DaemonProcess>> StartAndWarmUp(const Workload& w) {
  StatusOr<std::unique_ptr<DaemonProcess>> daemon =
      DaemonProcess::Spawn(DaemonArgv());
  if (!daemon.ok()) return daemon.status();
  StatusOr<std::unique_ptr<LineConnection>> conn =
      LineConnection::Connect((*daemon)->port());
  if (!conn.ok()) return conn.status();
  for (const std::string& line : w.warmup) {
    const StatusOr<JsonValue> response = Exchange(conn->get(), line);
    if (!response.ok()) return response.status();
    if (!Truthy(Find(*response, "ok"))) {
      return Status::Internal("warm-up request failed: " +
                              response->Dump(-1));
    }
  }
  return daemon;
}

/// Each client on its own persistent connection, one request in flight.
Status RunClosedLoop(const Workload& w, int port, Clock::time_point start,
                     std::vector<Observation>* obs) {
  std::vector<std::unique_ptr<LineConnection>> conns;
  for (int c = 0; c < w.clients; ++c) {
    StatusOr<std::unique_ptr<LineConnection>> conn =
        LineConnection::Connect(port);
    if (!conn.ok()) return conn.status();
    conns.push_back(std::move(*conn));
  }
  // Written only by the owning client's thread.
  std::vector<char> broken(static_cast<size_t>(w.clients), 0);
  RunClients(w, [&](size_t i) {
    const BenchRequest& r = w.requests[i];
    Observation& o = (*obs)[i];
    const size_t c = static_cast<size_t>(r.client);
    if (broken[c] != 0) {
      o.error = "connection lost earlier";
      return;
    }
    const Clock::time_point t0 = Clock::now();
    const Status sent = conns[c]->WriteLine(r.line);
    o.late_ms = Ms(Clock::now() - t0);
    StatusOr<std::string> line = sent;
    if (sent.ok()) line = conns[c]->ReadLine(kReadTimeoutMs);
    const Clock::time_point t1 = Clock::now();
    if (!line.ok()) {
      o.error = line.status().ToString();
      broken[c] = 1;
      return;
    }
    o.response = std::move(*line);
    o.latency_ms = Ms(t1 - t0);
    o.done_s = std::chrono::duration<double>(t1 - start).count();
  });
  return Status::Ok();
}

/// One sender thread writes on schedule over the connections; one
/// reader thread per connection matches responses by id (malformed
/// lines, answered with an empty id, in send order).
Status RunOpenLoop(const Workload& w, int port, Clock::time_point start,
                   std::vector<Observation>* obs) {
  struct Conn {
    std::unique_ptr<LineConnection> line;
    size_t expected = 0;
    Mutex mu;
    std::map<std::string, size_t> pending OIPA_GUARDED_BY(mu);
    std::deque<size_t> malformed OIPA_GUARDED_BY(mu);
  };
  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < w.clients; ++c) {
    StatusOr<std::unique_ptr<LineConnection>> line =
        LineConnection::Connect(port);
    if (!line.ok()) return line.status();
    conns.push_back(std::make_unique<Conn>());
    conns.back()->line = std::move(*line);
  }
  for (const BenchRequest& r : w.requests) {
    ++conns[static_cast<size_t>(r.client)]->expected;
  }
  auto scheduled = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(w.requests[i].at_s));
  };

  std::vector<std::thread> readers;
  for (const std::unique_ptr<Conn>& conn_ptr : conns) {
    Conn* conn = conn_ptr.get();
    readers.emplace_back([&, conn] {
      for (size_t n = 0; n < conn->expected; ++n) {
        StatusOr<std::string> line = conn->line->ReadLine(kReadTimeoutMs);
        const Clock::time_point t = Clock::now();
        if (!line.ok()) return;  // the unanswered keep no response
        const StatusOr<JsonValue> parsed = serve::ParseJson(*line);
        const JsonValue* id = parsed.ok() ? Find(*parsed, "id") : nullptr;
        if (id == nullptr || !id->is_string()) return;
        size_t i = 0;
        {
          MutexLock lock(&conn->mu);
          if (id->string_value().empty()) {
            if (conn->malformed.empty()) return;
            i = conn->malformed.front();
            conn->malformed.pop_front();
          } else {
            const auto it = conn->pending.find(id->string_value());
            if (it == conn->pending.end()) return;
            i = it->second;
            conn->pending.erase(it);
          }
        }
        Observation& o = (*obs)[i];
        o.response = std::move(*line);
        o.latency_ms = Ms(t - scheduled(i));
        o.done_s = std::chrono::duration<double>(t - start).count();
      }
    });
  }

  for (size_t i = 0; i < w.requests.size(); ++i) {
    const BenchRequest& r = w.requests[i];
    Conn& conn = *conns[static_cast<size_t>(r.client)];
    std::this_thread::sleep_until(scheduled(i));
    {
      MutexLock lock(&conn.mu);
      if (r.kind == RequestKind::kMalformed) {
        conn.malformed.push_back(i);
      } else {
        conn.pending[r.id] = i;
      }
    }
    const Status sent = conn.line->WriteLine(r.line);
    (*obs)[i].late_ms = Ms(Clock::now() - scheduled(i));
    if (!sent.ok()) (*obs)[i].error = sent.ToString();
  }
  for (std::thread& reader : readers) reader.join();
  return Status::Ok();
}

/// Everything one run measured.
struct RunResult {
  std::vector<Metric> end_to_end;
  /// Timing and memory as the client and the daemon see them. Their
  /// run-to-run spread exceeds a tenth on a shared host, so they are
  /// per-layer metrics (README, Calibration): reported by every run and,
  /// through the trace, in the traced result line.
  std::vector<Metric> measured;
  std::vector<Metric> extras;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Observation> obs;
  std::vector<std::optional<JsonValue>> responses;
  int64_t rejected = 0;
};

/// Derives the metrics of one measured phase.
void Summarize(const Workload& w, double setup_s, double wall_s,
               double cpu_ms, double rss_mb, RunResult* run) {
  std::vector<double> latencies, utilities, holdouts;
  std::vector<std::vector<double>> phase_latencies(
      std::max<size_t>(1, w.rates_rps.size()));
  std::vector<std::vector<double>> phase_depths(phase_latencies.size());
  int64_t completed = 0, deadline_requests = 0, deadline_exceeded = 0;
  for (size_t i = 0; i < w.requests.size(); ++i) {
    const BenchRequest& r = w.requests[i];
    if (r.kind != RequestKind::kPlan) continue;
    const bool ok = run->failures[i].empty();
    // A failed request counts as missing any latency limit.
    const double latency = ok ? run->obs[i].latency_ms : kReadTimeoutMs;
    latencies.push_back(latency);
    phase_latencies[static_cast<size_t>(r.phase)].push_back(latency);
    const bool has_deadline = r.line.find("deadline_ms") != std::string::npos;
    deadline_requests += has_deadline ? 1 : 0;
    if (!ok) continue;
    ++completed;
    const JsonValue& response = *run->responses[i];
    phase_depths[static_cast<size_t>(r.phase)].push_back(
        Number(Find(Find(response, "serve"), "queue_depth")));
    const JsonValue* rows = Find(response, "results");
    for (size_t j = 0; j < rows->size(); ++j) {
      utilities.push_back(Number(Find(rows->at(j), "utility")));
      holdouts.push_back(Number(Find(rows->at(j), "holdout_utility")));
      if (has_deadline && Truthy(Find(rows->at(j), "deadline_exceeded"))) {
        ++deadline_exceeded;
      }
    }
  }
  const double per_request = completed > 0 ? static_cast<double>(completed)
                                           : 1.0;
  run->end_to_end = {
      {"setup_s", setup_s, "s"},
      {"utility_mean", Mean(utilities), "users"},
      {"holdout_utility_mean", Mean(holdouts), "users"},
  };
  run->measured = {
      {"latency_p50_ms", Percentile(latencies, 0.50), "ms"},
      {"latency_p90_ms", Percentile(latencies, 0.90), "ms"},
      {"throughput_rps", static_cast<double>(completed) / wall_s, "req/s"},
      {"cpu_ms_per_request", cpu_ms / per_request, "ms"},
      {"peak_rss_mb", rss_mb, "MB"},
  };

  run->extras = {
      {"latency_p99_ms", Percentile(latencies, 0.99), "ms"},
      {"failed_frac",
       static_cast<double>(run->failed) /
           static_cast<double>(std::max<int64_t>(1, run->attempted)),
       "ratio"},
      {"plan_requests", static_cast<double>(latencies.size()), "count"},
      {"rejected", static_cast<double>(run->rejected), "count"},
  };
  if (!w.open_loop) return;
  // Open loop: latency at each fixed rate, and the highest rate whose
  // p99 meets the limit while the queue it finds does not keep growing
  // (last quarter of the phase vs. the first).
  double slo_rate = 0.0;
  for (size_t p = 0; p < w.rates_rps.size(); ++p) {
    const std::string rate = std::to_string(std::lround(w.rates_rps[p]));
    const double p99 = Percentile(phase_latencies[p], 0.99);
    const std::vector<double>& depths = phase_depths[p];
    const size_t quarter = depths.size() / 4;
    const auto head = static_cast<std::ptrdiff_t>(quarter);
    const double first =
        Mean(std::vector<double>(depths.begin(), depths.begin() + head));
    const double last =
        Mean(std::vector<double>(depths.end() - head, depths.end()));
    const bool backlog_grows = last > 2.0 * first + 1.0;
    run->extras.push_back({"latency_p50_ms@" + rate,
                           Percentile(phase_latencies[p], 0.50), "ms"});
    run->extras.push_back({"latency_p99_ms@" + rate, p99, "ms"});
    if (p99 <= kSloP99Ms && !backlog_grows) slo_rate = w.rates_rps[p];
  }
  run->extras.push_back({"slo_rate_rps", slo_rate, "req/s"});
  run->extras.push_back(
      {"deadline_exceeded_frac",
       static_cast<double>(deadline_exceeded) /
           static_cast<double>(std::max<int64_t>(1, deadline_requests)),
       "ratio"});
}

/// Daemon-side facts about request i, attached to its replay root span.
JsonValue DaemonArgs(const BenchRequest& r, const Observation& o,
                     const std::optional<JsonValue>& response, bool ok) {
  JsonValue args = JsonValue::Object();
  args.Set("kind", r.kind == RequestKind::kPlan     ? "plan"
                   : r.kind == RequestKind::kHealth ? "health"
                                                    : "malformed")
      .Set("late_ms", o.late_ms);
  if (!ok) return args;
  args.Set("daemon_ms", o.latency_ms);
  const JsonValue* serve = Find(*response, "serve");
  const JsonValue* rows = Find(*response, "results");
  if (serve == nullptr || rows == nullptr) return args;
  args.Set("batch_size", Number(Find(*serve, "batch_size")))
      .Set("queue_depth", Number(Find(*serve, "queue_depth")))
      .Set("cache_hit", Truthy(Find(*serve, "cache_hit")))
      .Set("registry_bytes",
           Number(Find(Find(serve, "store_registry"), "memory_bytes")));
  double tau_evals = 0, nodes = 0, bound_calls = 0;
  bool converged = true, cancelled = false;
  for (size_t j = 0; j < rows->size(); ++j) {
    const JsonValue& row = rows->at(j);
    tau_evals += Number(Find(row, "tau_evals"));
    nodes += Number(Find(row, "nodes_expanded"));
    bound_calls += Number(Find(row, "bound_calls"));
    converged = converged && Truthy(Find(row, "converged"));
    cancelled = cancelled || Truthy(Find(row, "cancelled"));
  }
  args.Set("tau_evals", tau_evals)
      .Set("nodes_expanded", nodes)
      .Set("bound_calls", bound_calls)
      .Set("converged", converged)
      .Set("cancelled", cancelled);
  return args;
}

struct ReplayTotals {
  /// Summed in-process latency of the measured requests.
  double latency_ms = 0.0;
  /// Samples the measured requests drew (set-up and probes excluded).
  int64_t samples_generated = 0;
};

/// Replays the warm-up and then the measured stream in-process, with
/// the workload's client count and order. `args[i]` lands on request
/// i's root span.
ReplayTotals Replay(const Workload& w, Tracer* tracer,
                    std::vector<JsonValue> args) {
  std::vector<double> latency(w.requests.size());
  Replayer replayer(kMaxContexts, tracer);
  for (size_t j = 0; j < w.warmup.size(); ++j) {
    JsonValue setup = JsonValue::Object();
    setup.Set("setup", true);
    replayer.Handle(w.warmup[j], -1 - static_cast<int64_t>(j), 0,
                    std::move(setup));
  }
  const int64_t samples = MrrCollection::GeneratedSampleCount();
  const int64_t probes = replayer.probe_samples();
  RunClients(w, [&](size_t i) {
    latency[i] = replayer.Handle(w.requests[i].line, static_cast<int64_t>(i),
                                 w.requests[i].client, std::move(args[i]));
  });
  ReplayTotals totals;
  for (const double ms : latency) totals.latency_ms += ms;
  totals.samples_generated = MrrCollection::GeneratedSampleCount() -
                             samples - (replayer.probe_samples() - probes);
  return totals;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintMetrics(const std::string& workload,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %s %.6g %s\n", workload.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

int Run(const FlagParser& flags) {
  const std::string name = flags.GetString("workload", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetInt("trace", 0) != 0;
  StatusOr<Workload> generated = MakeWorkload(name, seed, seconds);
  if (!generated.ok()) {
    std::fprintf(stderr, "oipa_e2e_bench: %s\n",
                 generated.status().ToString().c_str());
    return 2;
  }
  const Workload& w = *generated;
  if (flags.Has("dry_run")) {
    std::printf("%s seed=%llu requests=%zu hash=%016llx\n", name.c_str(),
                static_cast<unsigned long long>(seed), w.requests.size(),
                static_cast<unsigned long long>(Fingerprint(w)));
    return 0;
  }
  auto fail = [](const std::string& what, const Status& status) {
    std::fprintf(stderr, "oipa_e2e_bench: %s: %s\n", what.c_str(),
                 status.ToString().c_str());
    return 1;
  };

  // Set-up, several times; the last daemon serves the measured phase.
  std::vector<double> setup_s;
  std::unique_ptr<DaemonProcess> daemon;
  for (int i = 0; i < kSetupRuns; ++i) {
    if (daemon != nullptr) daemon->Stop();
    daemon.reset();
    const Clock::time_point t0 = Clock::now();
    StatusOr<std::unique_ptr<DaemonProcess>> started = StartAndWarmUp(w);
    if (!started.ok()) return fail("set-up", started.status());
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    daemon = std::move(*started);
  }

  RunResult run;
  run.obs.resize(w.requests.size());
  StatusOr<double> cpu0 = daemon->CpuMs();
  if (!cpu0.ok()) return fail("cpu time", cpu0.status());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Status loop = w.open_loop
                          ? RunOpenLoop(w, daemon->port(), start, &run.obs)
                          : RunClosedLoop(w, daemon->port(), start, &run.obs);
  if (!loop.ok()) return fail("load", loop);
  StatusOr<double> cpu1 = daemon->CpuMs();
  StatusOr<double> rss = daemon->PeakRssMb();
  if (!cpu1.ok()) return fail("cpu time", cpu1.status());
  if (!rss.ok()) return fail("peak rss", rss.status());
  {
    StatusOr<std::unique_ptr<LineConnection>> conn =
        LineConnection::Connect(daemon->port());
    const StatusOr<JsonValue> health =
        conn.ok() ? Exchange(conn->get(), R"({"id":"final","type":"health"})")
                  : StatusOr<JsonValue>(conn.status());
    if (!health.ok()) return fail("final health", health.status());
    const JsonValue* h = Find(*health, "health");
    run.rejected = static_cast<int64_t>(
        Number(h == nullptr ? nullptr : Find(*h, "rejected_queue_full")) +
        Number(h == nullptr ? nullptr : Find(*h, "rejected_inflight")));
  }
  const Status stopped = daemon->Stop();
  if (!stopped.ok()) return fail("daemon stop", stopped);

  double wall_s = 0.0;
  run.responses.resize(w.requests.size());
  for (size_t i = 0; i < w.requests.size(); ++i) {
    const Observation& o = run.obs[i];
    wall_s = std::max(wall_s, o.done_s);
    if (!o.response.has_value()) continue;
    StatusOr<JsonValue> parsed = serve::ParseJson(*o.response);
    if (parsed.ok()) run.responses[i] = std::move(*parsed);
  }
  run.failures = CheckResponses(w, run.responses);
  run.attempted = static_cast<int64_t>(w.requests.size());
  for (size_t i = 0; i < w.requests.size(); ++i) {
    if (!run.obs[i].error.empty()) run.failures[i] = run.obs[i].error;
    if (!run.failures[i].empty()) {
      ++run.failed;
      if (run.failed <= 5) {
        std::fprintf(stderr, "oipa_e2e_bench: %s request %zu: %s\n",
                     name.c_str(), i, run.failures[i].c_str());
      }
    }
  }
  const bool correct = run.failed == 0;
  Summarize(w, Percentile(setup_s, 0.5), std::max(wall_s, 1e-9),
            *cpu1 - *cpu0, *rss, &run);

  if (trace) {
    std::vector<JsonValue> args;
    for (size_t i = 0; i < w.requests.size(); ++i) {
      args.push_back(DaemonArgs(w.requests[i], run.obs[i], run.responses[i],
                                run.failures[i].empty()));
    }
    // The traced replay runs between two untraced ones, so that a drift
    // in machine speed across the three cancels out of the overhead.
    const std::vector<JsonValue> no_args(w.requests.size());
    const ReplayTotals before = Replay(w, nullptr, no_args);
    Tracer tracer;
    const ReplayTotals traced = Replay(w, &tracer, std::move(args));
    const double plain_ms =
        (before.latency_ms + Replay(w, nullptr, no_args).latency_ms) / 2.0;
    JsonValue measured = JsonValue::Object();
    for (const Metric& m : run.measured) measured.Set(m.name, m.value);
    JsonValue other = JsonValue::Object();
    other.Set("workload", name)
        .Set("seed", seed)
        .Set("seconds", seconds)
        .Set("correct", correct)
        .Set("attempted", run.attempted)
        .Set("failed", run.failed)
        .Set("rejected", run.rejected)
        .Set("samples_generated", traced.samples_generated)
        .Set("measured", std::move(measured))
        .Set("trace_overhead_frac",
             plain_ms > 0.0 ? (traced.latency_ms - plain_ms) / plain_ms
                            : 0.0);
    const std::string path =
        flags.GetString("trace_out", "trace-" + name + ".json");
    if (!WriteFile(path, tracer.ToChromeJson(std::move(other)))) {
      return fail("trace", Status::IoError("cannot write " + path));
    }
    std::fprintf(stderr, "oipa_e2e_bench: trace written to %s\n",
                 path.c_str());
  }

  PrintMetrics(name, run.end_to_end);
  PrintMetrics(name, run.measured);
  PrintMetrics(name, run.extras);

  JsonValue metrics = JsonValue::Object();
  for (const std::vector<Metric>* list :
       {&run.end_to_end, &run.measured, &run.extras}) {
    for (const Metric& m : *list) {
      JsonValue v = JsonValue::Object();
      v.Set("value", m.value).Set("unit", m.unit);
      metrics.Set(m.name, std::move(v));
    }
  }
  JsonValue failures = JsonValue::Array();
  for (size_t i = 0; i < run.failures.size(); ++i) {
    if (!run.failures[i].empty() && failures.size() < 20) {
      failures.Append("request " + std::to_string(i) + ": " +
                      run.failures[i]);
    }
  }
  JsonValue result = JsonValue::Object();
  result.Set("workload", name)
      .Set("seed", seed)
      .Set("seconds", seconds)
      .Set("trace", trace)
      .Set("correct", correct)
      .Set("attempted", run.attempted)
      .Set("failed", run.failed)
      .Set("metrics", std::move(metrics))
      .Set("failures", std::move(failures));
  const std::string out = flags.GetString("out", "");
  if (!out.empty() && !WriteFile(out, result.Dump(2) + "\n")) {
    return fail("result", Status::IoError("cannot write " + out));
  }

  if (!trace) {
    // The result line: every end-to-end metric, full precision.
    std::string line = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(run.attempted) +
                       ", \"failed\": " + std::to_string(run.failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < run.end_to_end.size(); ++i) {
      const Metric& m = run.end_to_end[i];
      line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
              Num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    std::printf("%s}}\n", line.c_str());
  }
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace oipa

int main(int argc, char** argv) {
  const oipa::FlagParser flags(argc, argv);
  return oipa::e2e::Run(flags);
}
