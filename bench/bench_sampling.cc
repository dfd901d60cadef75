// Incremental sampling engine bench: measures MRR generation and
// in-place growth throughput (samples/sec) at several worker-thread
// counts, verifies that growing a collection costs the same per-sample
// as generating it, spot-checks that the threaded collections are
// bit-identical to the single-threaded ones (the PerSampleSeed
// determinism contract), and counts the samples each growth sweep
// draws: every sample is drawn at most once per collection, so growing
// draws exactly the samples it appends and never regenerates old ones.
//
// Emits BENCH_sampling.json (uploaded by CI next to the other bench
// trajectories). The single-threaded samples_per_sec legs are the ones
// scripts/check_perf_regression.py gates against the baseline.
//
// Flags: --dataset=lastfm --ell=3 --theta=20000 --extend_rounds=3
//        --sampling_threads=1,2,4,16  (2 is what oipa_serve contexts use)
//        --output=BENCH_sampling.json

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cli/json_writer.h"
#include "rrset/mrr_collection.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/timer.h"

namespace {

/// Order-sensitive FNV-1a over every root and membership of the
/// collection: two collections hash equal iff they hold the same
/// samples in the same posting order — the property the parallel
/// generation path promises at any thread count.
uint64_t Fingerprint(const oipa::MrrCollection& mrr) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    h = (h ^ v) * 1099511628211ull;
  };
  for (int64_t i = 0; i < mrr.theta(); ++i) {
    mix(static_cast<uint64_t>(mrr.root(i)));
    for (int piece = 0; piece < mrr.num_pieces(); ++piece) {
      for (const oipa::VertexId v : mrr.Set(i, piece)) {
        mix(static_cast<uint64_t>(v));
      }
    }
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oipa;
  using namespace oipa::bench;
  FlagParser flags(argc, argv);
  const std::string dataset = flags.GetString("dataset", "lastfm");
  const int ell = static_cast<int>(flags.GetInt("ell", 3));
  const int64_t theta = flags.GetInt("theta", 20'000);
  const int extend_rounds =
      static_cast<int>(flags.GetInt("extend_rounds", 3));
  const std::string output =
      flags.GetString("output", "BENCH_sampling.json");

  std::printf("=== incremental sampling: %s, ell=%d, theta=%lld ===\n",
              dataset.c_str(), ell,
              static_cast<long long>(theta));
  // MakeEnv samples `theta` sets itself; reuse its dataset + pieces.
  const BenchEnv env = MakeEnv(dataset, RequestedScales(flags), ell,
                               theta, 13);

  JsonValue result = JsonValue::Object();
  result.Set("dataset", dataset).Set("ell", ell).Set("theta", theta);

  const std::vector<int64_t> sampling_threads =
      flags.GetIntList("sampling_threads", {1, 2, 4, 16});

  // ------------------------------------------------ generation throughput
  {
    JsonValue by_threads = JsonValue::Array();
    uint64_t single_thread_hash = 0;
    for (const int64_t threads64 : sampling_threads) {
      const int threads = static_cast<int>(threads64);
      WallTimer timer;
      const MrrCollection fresh = MrrCollection::Generate(
          env.pieces, theta, 29, DiffusionModel::kIndependentCascade,
          threads);
      const double seconds = timer.Seconds();
      const uint64_t hash = Fingerprint(fresh);
      if (threads == 1) single_thread_hash = hash;
      // PerSampleSeed determinism: any thread count must reproduce the
      // single-threaded collection bit for bit.
      if (single_thread_hash != 0) {
        OIPA_CHECK_EQ(hash, single_thread_hash)
            << "parallel generation diverged at " << threads
            << " threads";
      }
      JsonValue j = JsonValue::Object();
      j.Set("threads", threads)
          .Set("samples", theta)
          .Set("seconds", seconds)
          .Set("samples_per_sec", theta / seconds)
          .Set("memberships", fresh.TotalSize())
          .Set("memory_bytes", fresh.MemoryBytes());
      std::printf(
          "generate[threads=%d]: %lld samples in %.3fs (%.0f samples/s)\n",
          threads, static_cast<long long>(theta), seconds,
          theta / seconds);
      // The gated scalar throughput keeps its historical flat shape.
      if (threads == 1) {
        result.Set("generate", j);
      }
      by_threads.Append(std::move(j));
    }
    result.Set("generate_by_threads", std::move(by_threads));
  }

  // ----------------------------------------------------- growth throughput
  {
    JsonValue by_threads = JsonValue::Array();
    uint64_t single_thread_hash = 0;
    for (const int64_t threads64 : sampling_threads) {
      const int threads = static_cast<int>(threads64);
      MrrCollection grown = MrrCollection::Generate(
          env.pieces, theta / 2, 29, DiffusionModel::kIndependentCascade,
          threads);
      const int64_t drawn_before = MrrCollection::GeneratedSampleCount();
      WallTimer timer;
      int64_t grown_samples = 0;
      int64_t target = theta;
      for (int r = 0; r < extend_rounds; ++r, target *= 2) {
        grown_samples += target - grown.theta();
        grown.Extend(env.pieces, target, threads);
      }
      const double seconds = timer.Seconds();
      const int64_t drawn =
          MrrCollection::GeneratedSampleCount() - drawn_before;
      OIPA_CHECK_EQ(drawn, grown_samples)
          << "growth drew a sample more than once per collection";
      const uint64_t hash = Fingerprint(grown);
      if (threads == 1) single_thread_hash = hash;
      if (single_thread_hash != 0) {
        OIPA_CHECK_EQ(hash, single_thread_hash)
            << "parallel growth diverged at " << threads << " threads";
      }
      JsonValue j = JsonValue::Object();
      j.Set("threads", threads)
          .Set("rounds", extend_rounds)
          .Set("samples", grown_samples)
          .Set("total_samples_generated", drawn)
          .Set("final_theta", grown.theta())
          .Set("index_segments", grown.num_index_segments())
          .Set("seconds", seconds)
          .Set("samples_per_sec", grown_samples / seconds);
      std::printf(
          "extend[threads=%d]: %lld samples across %d rounds in %.3fs "
          "(%.0f samples/s, %d index segments)\n",
          threads, static_cast<long long>(grown_samples), extend_rounds,
          seconds, grown_samples / seconds, grown.num_index_segments());
      if (threads == 1) {
        result.Set("extend", j);
      }
      by_threads.Append(std::move(j));
    }
    result.Set("extend_by_threads", std::move(by_threads));
  }

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
