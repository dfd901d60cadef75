// Parallel branch-and-bound scaling bench: solves the same budgets, one
// Solve per budget, at 1..32 worker threads (BAB and BAB-P) and
// reports per-thread-count runtimes, parallel speedups, scaling
// efficiency (speedup / threads), search overhead (total tau evals at
// N workers / at 1: the extra bound work parallel best-first search
// does), and the single-thread throughput CI gates on
// (scripts/check_perf_regression.py compares tau_evals_per_sec and the
// per-thread-count efficiency map against the committed baseline;
// search overhead is recorded, not gated).
//
// The defaults (tight gap, 4000-node cap) are deliberately heavier than
// the figure benches so the frontier stays populated and bound calls
// dominate — the regime the work-stealing engine targets. Counts above
// the machine's cores still run (workers oversubscribe), so the 16/32
// legs double as a contention stress on small CI runners.
//
// Flags: --dataset=lastfm --theta=30000 --ell=3 --k=10,20,40
//        --threads=1,2,4,8,16,32 --gap=0.0001 --max_nodes=4000
//        --output=BENCH_parallel.json

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cli/json_writer.h"
#include "util/flags.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  using namespace oipa;
  using namespace oipa::bench;
  FlagParser flags(argc, argv);
  const std::string dataset = flags.GetString("dataset", "lastfm");
  const int64_t theta = flags.GetInt("theta", 30'000);
  const int ell = static_cast<int>(flags.GetInt("ell", 3));
  const std::vector<int64_t> ks = flags.GetIntList("k", {10, 20, 40});
  const std::vector<int64_t> thread_counts =
      flags.GetIntList("threads", {1, 2, 4, 8, 16, 32});
  const std::string output =
      flags.GetString("output", "BENCH_parallel.json");
  BabOptions base;
  base.gap = flags.GetDouble("gap", 0.0001);
  base.max_nodes = flags.GetInt("max_nodes", 4000);
  // Exact pruning (e/(e-1)-inflated bounds) keeps the frontier wide —
  // these instances otherwise converge in a few hundred nodes, leaving
  // too little open work for the thread scaling to be measurable.
  base.exact_pruning = flags.GetBool("exact_pruning", true);
  const LogisticAdoptionModel model(2.0, 1.0);

  std::printf("=== parallel BAB scaling: %s, theta=%lld, k-sweep of %zu "
              "budgets ===\n",
              dataset.c_str(), static_cast<long long>(theta), ks.size());
  const BenchEnv env = MakeEnv(dataset, RequestedScales(flags), ell,
                               theta, 13);

  JsonValue result = JsonValue::Object();
  result.Set("dataset", dataset)
      .Set("theta", theta)
      .Set("ell", ell)
      .Set("sample_seconds", env.sample_seconds);

  JsonValue methods = JsonValue::Object();
  for (const char* method : {"bab", "bab-p"}) {
    struct Run {
      int threads = 0;
      double total_seconds = 0.0;
      int64_t total_tau_evals = 0;
      int64_t total_nodes = 0;
      JsonValue per_k;
    };
    std::vector<Run> measured;
    for (const int64_t threads64 : thread_counts) {
      const int threads = static_cast<int>(threads64);
      PlanRequest request;
      request.solver = method;
      request.pool = env.dataset.promoter_pool;
      request.options.gap = base.gap;
      request.options.max_nodes = base.max_nodes;
      request.options.variant = base.variant;
      request.options.exact_pruning = base.exact_pruning;
      request.num_threads = threads;
      const std::shared_ptr<const PlanningContext> context =
          env.Context(model);

      Run run;
      run.threads = threads;
      run.per_k = JsonValue::Array();
      // This bench measures the work-stealing search itself, so it
      // solves one budget at a time: a multi-budget SolveBatch would
      // shard the budgets, one search worker each, and flatten the
      // thread-scaling signal.
      for (const int64_t k : ks) {
        request.budgets = {static_cast<int>(k)};
        const StatusOr<PlanResponse> solved = Solve(*context, request);
        OIPA_CHECK(solved.ok()) << solved.status().ToString();
        const PlanResponse& r = *solved;
        run.total_seconds += r.seconds;
        run.total_tau_evals += r.tau_evals;
        run.total_nodes += r.nodes_expanded;
        JsonValue row = JsonValue::Object();
        row.Set("k", r.budget)
            .Set("utility", r.utility)
            .Set("seconds", r.seconds)
            .Set("nodes_expanded", r.nodes_expanded)
            .Set("tau_evals", r.tau_evals)
            .Set("converged", r.converged);
        run.per_k.Append(std::move(row));
      }
      measured.push_back(std::move(run));
    }

    // Speedups and the gated single-thread throughput are computed after
    // the sweep so the 1-thread run may appear anywhere in --threads
    // (or be absent, in which case neither is reported).
    double single_thread_seconds = 0.0;
    int64_t single_thread_tau_evals = 0;
    JsonValue single_thread = JsonValue::Object();
    for (const Run& run : measured) {
      if (run.threads == 1 && run.total_seconds > 0.0) {
        single_thread_seconds = run.total_seconds;
        single_thread_tau_evals = run.total_tau_evals;
        single_thread.Set("seconds", run.total_seconds)
            .Set("tau_evals", run.total_tau_evals)
            .Set("tau_evals_per_sec",
                 run.total_tau_evals / run.total_seconds);
      }
    }
    JsonValue runs = JsonValue::Array();
    JsonValue efficiency = JsonValue::Object();
    for (Run& run : measured) {
      const double speedup =
          run.total_seconds > 0.0 && single_thread_seconds > 0.0
              ? single_thread_seconds / run.total_seconds
              : 0.0;
      // Scaling efficiency: perfect work stealing would hold this at
      // 1.0; the baseline gates a conservative floor per thread count.
      const double eff = speedup / static_cast<double>(run.threads);
      // Search overhead: 1.0 when N workers do exactly one worker's
      // bound work; above it, they evaluate subspaces one worker prunes.
      const double overhead =
          single_thread_tau_evals > 0
              ? static_cast<double>(run.total_tau_evals) /
                    static_cast<double>(single_thread_tau_evals)
              : 0.0;
      std::printf("%-6s threads=%d  total=%.3fs  speedup=%.2fx  "
                  "efficiency=%.2f  search_overhead=%.2fx  "
                  "tau_evals=%lld\n",
                  method, run.threads, run.total_seconds, speedup, eff,
                  overhead, static_cast<long long>(run.total_tau_evals));
      JsonValue row = JsonValue::Object();
      row.Set("threads", run.threads)
          .Set("total_seconds", run.total_seconds)
          .Set("total_tau_evals", run.total_tau_evals)
          .Set("total_nodes_expanded", run.total_nodes)
          .Set("speedup_vs_1_thread", speedup)
          .Set("efficiency", eff)
          .Set("search_overhead", overhead)
          .Set("per_k", std::move(run.per_k));
      runs.Append(std::move(row));
      if (run.threads > 1) {
        efficiency.Set(std::to_string(run.threads), eff);
      }
    }
    JsonValue entry = JsonValue::Object();
    entry.Set("single_thread", std::move(single_thread))
        .Set("efficiency", std::move(efficiency))
        .Set("runs", std::move(runs));
    methods.Set(method, std::move(entry));
  }
  result.Set("methods", std::move(methods));

  const std::string text = result.Dump(2);
  std::ofstream file(output);
  file << text << "\n";
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", output.c_str());
    return 1;
  }
  std::printf("wrote %s\n", output.c_str());
  return 0;
}
