#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <thread>
#include <utility>

#include "cli/json_writer.h"
#include "util/random.h"
#include "util/thread_annotations.h"
#include "util/threading.h"

namespace oipa {
namespace e2e {
namespace {

// Closed-loop request counts are sized from these rates, measured with
// 2 clients against `oipa_serve --workers=2` on a 4-vCPU machine, so
// that a run takes about `seconds` there and both commits of an A/B
// pair do identical work.
constexpr double kWarmSearchRps = 46.0;
constexpr double kColdContextRps = 20.0;
constexpr double kGrowTenantsPerSecond = 4.5;

// serve-mix offered rates. The top one keeps a 2-worker daemon about
// half busy on these 1-3 ms solves: nearer the knee, queueing amplifies
// run-to-run changes in machine speed into latency spreads beyond the
// benchmark's bounds (see README), and a backlog could hit the queue
// cap.
constexpr double kServeMixRates[] = {200.0, 300.0, 400.0};

JsonValue Obj() { return JsonValue::Object(); }

JsonValue LastFm(uint64_t seed) {
  JsonValue d = Obj();
  d.Set("name", "lastfm").Set("seed", seed);
  return d;
}

JsonValue Sampling(int64_t theta) {
  JsonValue s = Obj();
  s.Set("theta", theta).Set("holdout_theta", theta).Set("threads", 2);
  return s;
}

JsonValue Plan(const char* method, int k, int threads) {
  JsonValue budgets = JsonValue::Array();
  budgets.Append(k);
  JsonValue p = Obj();
  p.Set("method", method).Set("budgets", std::move(budgets));
  p.Set("threads", threads);
  return p;
}

std::string Line(const std::string& id, JsonValue dataset,
                 JsonValue sampling, JsonValue plan) {
  JsonValue j = Obj();
  j.Set("id", id)
      .Set("dataset", std::move(dataset))
      .Set("sampling", std::move(sampling))
      .Set("plan", std::move(plan));
  return j.Dump(-1);
}

/// Appends closed-loop requests in blocks: in each block every client
/// sends each of `shapes` shapes once, in its own seeded order, so the
/// clients do the same work and every seed sends the same multiset.
/// There are as many blocks as fill about `seconds` at `rps`.
/// `line(shape, id)` renders the next request.
void AddBlocks(double seconds, double rps, size_t shapes, Rng* rng,
               Workload* w,
               const std::function<std::string(size_t, const std::string&)>&
                   line) {
  const double per_block = static_cast<double>(shapes * w->clients);
  const long blocks = std::max(1L, std::lround(seconds * rps / per_block));
  std::vector<size_t> order(shapes);
  for (long b = 0; b < blocks; ++b) {
    for (int client = 0; client < w->clients; ++client) {
      for (size_t s = 0; s < shapes; ++s) order[s] = s;
      rng->Shuffle(&order);
      for (const size_t s : order) {
        BenchRequest r;
        r.id = "r" + std::to_string(w->requests.size());
        r.line = line(s, r.id);
        r.client = client;
        w->requests.push_back(std::move(r));
      }
    }
  }
}

// The search layer does almost all the work: two lastfm contexts are
// built during set-up, and every request is a cache hit with no
// sampling. A shape is a (context, method, k, threads) combination.
Workload WarmSearch(uint64_t seed, double seconds) {
  Workload w;
  w.name = "warm-search";
  w.expect_no_sampling = true;
  constexpr int64_t kTheta = 100'000;
  const uint64_t dataset_seeds[] = {1, 2};
  for (const uint64_t d : dataset_seeds) {
    w.warmup.push_back(Line("warm-" + std::to_string(d), LastFm(d),
                            Sampling(kTheta), Plan("bab-p", 10, 1)));
  }
  struct Shape {
    uint64_t dataset_seed;
    const char* method;
    int k;
    int threads;
  };
  std::vector<Shape> shapes;
  for (const uint64_t d : dataset_seeds) {
    for (int k = 20; k <= 60; k += 5) shapes.push_back({d, "bab-p", k, 1});
    for (int k = 10; k <= 40; k += 5) shapes.push_back({d, "bab", k, 1});
  }
  // A quarter of the shapes, spread over both methods and all k, run
  // the parallel engine.
  for (size_t i = 3; i < shapes.size(); i += 4) shapes[i].threads = 2;
  Rng rng(seed);
  AddBlocks(seconds, kWarmSearchRps, shapes.size(), &rng, &w,
            [&](size_t shape, const std::string& id) {
              const Shape& s = shapes[shape];
              return Line(id, LastFm(s.dataset_seed), Sampling(kTheta),
                          Plan(s.method, s.k, s.threads));
            });
  return w;
}

// Every request names a context nobody asked for before, so data/,
// topic/ and rrset generation dominate; the daemon's 4-context cache
// evicts continuously. The dataset seeds count up per dataset type, so
// every seed builds the same contexts, in its own order: the seed moves
// neither the work nor the utilities.
Workload ColdContext(uint64_t seed, double seconds) {
  Workload w;
  w.name = "cold-context";
  constexpr int64_t kTheta = 50'000;
  auto dataset = [](int type, uint64_t dataset_seed) {
    JsonValue d = Obj();
    if (type == 2) {
      d.Set("name", "dblp").Set("scale", 0.01);
    } else {
      d.Set("name", "synthetic").Set("n", type == 0 ? 10'000 : 20'000);
    }
    d.Set("seed", dataset_seed);
    return d;
  };
  // Set-up warms the process with one cold build on a seed no measured
  // request uses.
  w.warmup.push_back(
      Line("warm-0", dataset(0, 999), Sampling(kTheta), Plan("bab-p", 10, 1)));
  Rng rng(seed);
  uint64_t next_seed[3] = {1'000, 1'000, 1'000};
  AddBlocks(seconds, kColdContextRps, 3, &rng, &w,
            [&](size_t type, const std::string& id) {
              const uint64_t dataset_seed = next_seed[type]++;
              return Line(id, dataset(static_cast<int>(type), dataset_seed),
                          Sampling(kTheta), Plan("bab-p", 10, 1));
            });
  return w;
}

// Growth beside reads: per tenant (a fresh lastfm dataset), client 0
// sends two progressive requests that grow the shared store from 5k
// samples, while client 1 reads the same context four times. The tenant
// pool is fixed — how far a tenant grows depends on its dataset — and
// the seed orders it, so every seed does the same growth work.
Workload GrowProgressive(uint64_t seed, double seconds) {
  Workload w;
  w.name = "grow-progressive";
  constexpr int64_t kTheta = 5'000;
  auto progressive = [](double epsilon, const char* stopping) {
    JsonValue s = Obj();
    s.Set("theta", kTheta)
        .Set("epsilon", epsilon)
        .Set("stopping", stopping)
        .Set("max_theta", 320'000)
        .Set("threads", 2);
    return s;
  };
  w.warmup.push_back(Line("warm-0", LastFm(99), progressive(0.02, "holdout"),
                          Plan("bab-p", 20, 1)));
  const int tenants = std::max(
      2, static_cast<int>(std::lround(seconds * kGrowTenantsPerSecond)));
  std::vector<int> order(static_cast<size_t>(tenants));
  for (int t = 0; t < tenants; ++t) order[static_cast<size_t>(t)] = t;
  Rng rng(seed);
  rng.Shuffle(&order);
  for (int g = 0; g < tenants; ++g) {
    const int tenant = order[static_cast<size_t>(g)];
    const uint64_t dataset_seed = 100 + static_cast<uint64_t>(tenant);
    auto add = [&](int client, const JsonValue& sampling) {
      BenchRequest r;
      r.id = "r" + std::to_string(w.requests.size());
      r.line = Line(r.id, LastFm(dataset_seed), sampling,
                    Plan("bab-p", 20, 1));
      r.client = client;
      r.group = g + 1;
      w.requests.push_back(std::move(r));
    };
    const bool holdout_first = tenant % 2 == 0;
    add(0, progressive(holdout_first ? 0.02 : 0.05,
                       holdout_first ? "holdout" : "opim"));
    add(0, progressive(holdout_first ? 0.05 : 0.02,
                       holdout_first ? "opim" : "holdout"));
    for (int i = 0; i < 4; ++i) add(1, Sampling(kTheta));
  }
  return w;
}

// The serve layer (parse, queue, merge, render, socket) on small warm
// solves, under Poisson arrivals at three fixed rates.
Workload ServeMix(uint64_t seed, double seconds) {
  Workload w;
  w.name = "serve-mix";
  w.open_loop = true;
  constexpr int64_t kTheta = 20'000;
  constexpr int kContexts = 4;
  for (int c = 1; c <= kContexts; ++c) {
    w.warmup.push_back(Line("warm-" + std::to_string(c), LastFm(c),
                            Sampling(kTheta), Plan("bab-p", 10, 1)));
  }
  const char* const malformed[] = {
      R"({"id":"m","dataset":{"name":"lastfm")",
      R"({"id":"m","plan":{"budgets":[]}})",
      R"({"id":"m","dataset":{"name":"nosuch"}})",
      R"({"id":"m","sampling":{"theta":"many"}})",
      R"([1,2,3])",
  };
  const int ks[] = {10, 20, 30};
  // Event shares: single solves, deadline-bearing solves, same-key
  // triples (about 10% of requests), health probes, malformed lines.
  const std::vector<double> weights = {0.70, 0.10, 0.035, 0.05, 0.05};

  Rng rng(seed);
  w.rates_rps.assign(std::begin(kServeMixRates), std::end(kServeMixRates));
  const double phase_s = seconds / static_cast<double>(w.rates_rps.size());
  int events = 0;
  for (size_t phase = 0; phase < w.rates_rps.size(); ++phase) {
    const double end = phase_s * static_cast<double>(phase + 1);
    double t = phase_s * static_cast<double>(phase);
    for (;;) {
      t += rng.NextExponential() / w.rates_rps[phase];
      if (t >= end) break;
      const int conn = events++ % 2;
      auto add = [&](RequestKind kind, std::string id, std::string line) {
        BenchRequest r;
        r.kind = kind;
        r.id = std::move(id);
        r.line = std::move(line);
        r.client = conn;
        r.at_s = t;
        r.phase = static_cast<int>(phase);
        w.requests.push_back(std::move(r));
      };
      const std::string id = "r" + std::to_string(w.requests.size());
      const uint64_t context = 1 + rng.NextBounded(kContexts);
      const int k = ks[rng.NextBounded(3)];
      switch (SampleDiscrete(weights, &rng)) {
        case 0:
          add(RequestKind::kPlan, id,
              Line(id, LastFm(context), Sampling(kTheta),
                   Plan("bab-p", k, 1)));
          break;
        case 1: {
          JsonValue plan = Plan("bab-p", k, 1);
          plan.Set("deadline_ms", 50);
          add(RequestKind::kPlan, id,
              Line(id, LastFm(context), Sampling(kTheta), std::move(plan)));
          break;
        }
        case 2:
          // Same context and solver profile: mergeable into one sweep.
          for (const int tk : ks) {
            const std::string tid = "r" + std::to_string(w.requests.size());
            add(RequestKind::kPlan, tid,
                Line(tid, LastFm(context), Sampling(kTheta),
                     Plan("bab-p", tk, 1)));
          }
          break;
        case 3: {
          JsonValue health = Obj();
          health.Set("id", id).Set("type", "health");
          add(RequestKind::kHealth, id, health.Dump(-1));
          break;
        }
        default:
          add(RequestKind::kMalformed, "",
              malformed[rng.NextBounded(std::size(malformed))]);
          break;
      }
    }
  }
  return w;
}

}  // namespace

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                double seconds) {
  if (!(seconds > 0.0)) {
    return Status::InvalidArgument("seconds must be > 0");
  }
  if (name == "warm-search") return WarmSearch(seed, seconds);
  if (name == "cold-context") return ColdContext(seed, seconds);
  if (name == "grow-progressive") return GrowProgressive(seed, seconds);
  if (name == "serve-mix") return ServeMix(seed, seconds);
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

uint64_t Fingerprint(const Workload& workload) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;  // field separator
    h *= 0x100000001b3ULL;
  };
  mix(workload.name);
  for (const std::string& line : workload.warmup) mix(line);
  for (const BenchRequest& r : workload.requests) {
    mix(r.line);
    mix(std::to_string(r.client) + "/" + std::to_string(r.group) + "/" +
        std::to_string(std::llround(r.at_s * 1e6)));
  }
  return h;
}

namespace {

/// Reusable barrier for a fixed number of threads.
class Rendezvous {
 public:
  explicit Rendezvous(int parties) : parties_(parties) {}

  void Arrive() {
    MutexLock lock(&mu_);
    const uint64_t generation = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      cv_.NotifyAll();
      return;
    }
    while (generation == generation_) cv_.Wait(&mu_);
  }

 private:
  const int parties_;
  Mutex mu_;
  CondVar cv_;
  int arrived_ OIPA_GUARDED_BY(mu_) = 0;
  uint64_t generation_ OIPA_GUARDED_BY(mu_) = 0;
};

}  // namespace

void RunClients(const Workload& workload,
                const std::function<void(size_t)>& fn) {
  std::vector<std::vector<size_t>> order(
      static_cast<size_t>(workload.clients));
  for (size_t i = 0; i < workload.requests.size(); ++i) {
    order[static_cast<size_t>(workload.requests[i].client)].push_back(i);
  }
  Rendezvous rendezvous(workload.clients);
  std::vector<std::thread> threads;
  for (const std::vector<size_t>& mine : order) {
    threads.emplace_back([&workload, &fn, &rendezvous, &mine] {
      int group = 0;
      for (const size_t i : mine) {
        if (workload.requests[i].group != group) {
          rendezvous.Arrive();
          group = workload.requests[i].group;
        }
        fn(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace e2e
}  // namespace oipa
