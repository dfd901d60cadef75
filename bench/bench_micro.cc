// Google-benchmark micro benchmarks for the performance-critical
// primitives: dataset and piece-graph builds, RR sampling, MRR
// generation and index builds, fixed-theta RIS, sample-store builds and
// growth, coverage kernels and updates, plan scoring, tangent
// refinement, bound evaluations, and the wire round trip.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "im/imm.h"
#include "oipa/adoption.h"
#include "oipa/bound_evaluator.h"
#include "oipa/tangent_bound.h"
#include "rrset/coverage_kernels.h"
#include "rrset/coverage_state.h"
#include "rrset/mrr_collection.h"
#include "rrset/rr_sampler.h"
#include "rrset/sample_store.h"
#include "serve/wire.h"
#include "topic/campaign.h"
#include "topic/influence_graph.h"
#include "util/random.h"
#include "util/threading.h"
#include "util/timer.h"

namespace oipa {
namespace {

/// Shared lastfm-like environment, built once.
struct MicroEnv {
  MicroEnv() : dataset(MakeLastFmLike(7)) {
    Rng rng(11);
    campaign = Campaign::SampleUniformPieces(3, dataset.num_topics, &rng);
    pieces = BuildPieceGraphs(*dataset.graph, *dataset.probs, campaign);
    mrr = std::make_unique<MrrCollection>(
        MrrCollection::Generate(pieces, 20'000, 13));
  }
  Dataset dataset;
  Campaign campaign;
  std::vector<InfluenceGraph> pieces;
  std::unique_ptr<MrrCollection> mrr;
};

MicroEnv& Env() {
  static MicroEnv* env = new MicroEnv();
  return *env;
}

void BM_RrSample(benchmark::State& state) {
  MicroEnv& env = Env();
  RrSampler sampler(env.dataset.graph->num_vertices());
  Rng rng(17);
  std::vector<VertexId> out;
  const VertexId n = env.dataset.graph->num_vertices();
  for (auto _ : state) {
    out.clear();
    sampler.Sample(env.pieces[0],
                   static_cast<VertexId>(rng.NextBounded(n)), rng.Next(),
                   &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_RrSample);

void BM_MrrGenerate(benchmark::State& state) {
  MicroEnv& env = Env();
  const int64_t theta = state.range(0);
  for (auto _ : state) {
    const MrrCollection mrr =
        MrrCollection::Generate(env.pieces, theta, 19);
    benchmark::DoNotOptimize(mrr.TotalSize());
  }
  state.SetItemsProcessed(state.iterations() * theta);
}
BENCHMARK(BM_MrrGenerate)->Arg(1000)->Arg(10'000);

/// In-place growth of a 10k-sample collection over `pieces` by
/// range(0) samples on range(1) sampling workers: sampling, stitch and
/// index segment.
void RunMrrExtend(benchmark::State& state,
                  const std::vector<InfluenceGraph>& pieces) {
  const int64_t base = 10'000;
  const int64_t grow = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  const MrrCollection seed_collection = MrrCollection::Generate(
      pieces, base, 19, DiffusionModel::kIndependentCascade, threads);
  MrrCollection mrr = seed_collection;
  for (auto _ : state) {
    // A fresh copy, not copy-assignment: that would keep the grown
    // capacity and hide the allocation the timed Extend makes.
    state.PauseTiming();
    mrr = MrrCollection(seed_collection);
    state.ResumeTiming();
    mrr.Extend(pieces, base + grow, threads);
    benchmark::DoNotOptimize(mrr.TotalSize());
  }
  state.SetItemsProcessed(state.iterations() * grow);
}

void BM_MrrExtend(benchmark::State& state) {
  RunMrrExtend(state, Env().pieces);
}
BENCHMARK(BM_MrrExtend)
    ->Args({1'000, 1})
    ->Args({10'000, 1})
    ->Args({10'000, 2})
    ->UseRealTime();

/// The same growth on a dblp-like graph (scale 0.2, n = 100k) where the
/// new samples number fewer than n: the index segment is built on one
/// shard there (its key counts would outweigh the segment), but the
/// sampling must still use every worker.
void BM_MrrExtendLargeGraph(benchmark::State& state) {
  static const auto* env = [] {
    struct LargeEnv {
      Dataset dataset = MakeDblpLike(0.2, 11);
      std::vector<InfluenceGraph> pieces;
    };
    auto* e = new LargeEnv();
    Rng rng(11);
    const Campaign campaign =
        Campaign::SampleUniformPieces(3, e->dataset.num_topics, &rng);
    e->pieces =
        BuildPieceGraphs(*e->dataset.graph, *e->dataset.probs, campaign);
    return e;
  }();
  RunMrrExtend(state, env->pieces);
}
BENCHMARK(BM_MrrExtendLargeGraph)
    ->Args({10'000, 1})
    ->Args({10'000, 2})
    ->UseRealTime();

/// One worker generates 100k lastfm samples: unindexed (range(0) = 0),
/// indexed over every vertex (1), or over the dataset's pool (2). The
/// index-segment build is the gap to the unindexed row;
/// `postings_per_sample` is what the index holds.
void BM_MrrIndex(benchmark::State& state) {
  const MicroEnv& env = Env();
  constexpr int64_t kTheta = 100'000;
  const int mode = static_cast<int>(state.range(0));
  state.SetLabel(mode == 0 ? "unindexed" : mode == 1 ? "every-vertex" : "pool");
  const std::span<const VertexId> pool =
      mode == 2 ? std::span<const VertexId>(env.dataset.promoter_pool)
                : std::span<const VertexId>();
  int64_t index_bytes = 0;
  for (auto _ : state) {
    const MrrCollection mrr = MrrCollection::Generate(
        env.pieces, kTheta, 19, DiffusionModel::kIndependentCascade, 1,
        /*indexed=*/mode != 0, pool);
    index_bytes = mrr.MemoryBytes() -
                  static_cast<int64_t>(sizeof(uint32_t)) *
                      (mrr.TotalSize() + kTheta * mrr.num_pieces() + 1);
    benchmark::DoNotOptimize(mrr.TotalSize());
  }
  state.counters["index_bytes_per_sample"] =
      static_cast<double>(index_bytes) / kTheta;
  state.SetItemsProcessed(state.iterations() * kTheta);
}
BENCHMARK(BM_MrrIndex)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

/// Fixed-theta RIS, the seed selection of the IM and TIM baselines, on
/// range(0) workers: 100k RR sets sampled and indexed over the
/// topic-blind lastfm graph, then CELF-covered for k = 20. The pool is
/// the default (every vertex): the four-argument call also builds
/// against trees whose FixedThetaRis takes no pool, for A/B runs.
void BM_FixedThetaRis(benchmark::State& state) {
  const MicroEnv& env = Env();
  const InfluenceGraph blind =
      InfluenceGraph::TopicBlind(*env.dataset.graph, *env.dataset.probs);
  constexpr int64_t kTheta = 100'000;
  SetNumThreads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const ImmResult result = FixedThetaRis(blind, 20, kTheta, 23);
    benchmark::DoNotOptimize(result.spread_estimate);
  }
  SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * kTheta);
}
BENCHMARK(BM_FixedThetaRis)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// One dataset build (graph generation, topic probabilities and
/// promoter pool) on range(1) workers: range(0) = 0 is lastfm, 1 is
/// synthetic n = 10k, 2 is dblp at scale 0.01 (5k vertices).
void BM_MakeDataset(benchmark::State& state) {
  static constexpr const char* kLabels[] = {"lastfm", "synthetic-10k",
                                            "dblp-0.01"};
  const int64_t dataset = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  state.SetLabel(kLabels[dataset]);
  for (auto _ : state) {
    const Dataset ds =
        dataset == 0   ? MakeLastFmLike(7, threads)
        : dataset == 1 ? MakeSynthetic(10'000, 10, 0.1, 1, threads)
                       : MakeDblpLike(0.01, 11, threads);
    benchmark::DoNotOptimize(ds.graph->num_edges());
  }
}
BENCHMARK(BM_MakeDataset)
    ->ArgsProduct({{0, 1, 2}, {1, 2}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The l = 3 piece graphs of a synthetic n = 10k dataset on range(0)
/// workers.
void BM_BuildPieceGraphs(benchmark::State& state) {
  static const auto* env = [] {
    struct PieceEnv {
      Dataset dataset = MakeSynthetic(10'000, 10, 0.1, 1);
      Campaign campaign;
    };
    auto* e = new PieceEnv();
    Rng rng(5);
    e->campaign =
        Campaign::SampleUniformPieces(3, e->dataset.num_topics, &rng);
    return e;
  }();
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const std::vector<InfluenceGraph> pieces = BuildPieceGraphs(
        *env->dataset.graph, *env->dataset.probs, env->campaign, threads);
    benchmark::DoNotOptimize(pieces.data());
  }
}
BENCHMARK(BM_BuildPieceGraphs)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// The overhead of an empty ParallelFor on range(0) workers: shard 0
/// on the caller, the others handed to pooled workers and joined.
void BM_ParallelFor(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ParallelFor(threads, threads, [](int, int64_t, int64_t) {});
  }
}
BENCHMARK(BM_ParallelFor)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// Non-owning handle on the shared lastfm pieces, for SampleStore.
std::shared_ptr<const std::vector<InfluenceGraph>> EnvPieces() {
  return {std::shared_ptr<const std::vector<InfluenceGraph>>(),
          &Env().pieces};
}

/// The daemon's context build on lastfm: a store of 100k in-sample and
/// 100k holdout samples over the dataset's pool on range(0) sampling
/// workers (0 = every core), timed until the holdout is ready.
/// `insample_ready_ms` is the part until Create returns, with the
/// in-sample collection published (a search could start there). The
/// holdout samples beside the in-sample pass when both fit the cores
/// (2 x workers <= GetNumThreads()) and behind it otherwise, as at /0.
/// Also reports the store's bytes per sample: in-sample (samples plus
/// the pool's inverted index) and holdout (samples only).
void BM_SampleStoreBuild(benchmark::State& state) {
  SampleStore::Options options;
  options.theta = 100'000;
  options.holdout_theta = 100'000;
  options.seed = 19;
  options.sampling_threads = static_cast<int>(state.range(0));
  options.pool = Env().dataset.promoter_pool;
  std::shared_ptr<SampleStore> store;
  double insample_ms = 0.0;
  for (auto _ : state) {
    store.reset();
    const WallTimer timer;
    store = SampleStore::Create(EnvPieces(), options);
    insample_ms += timer.Seconds() * 1e3;
    benchmark::DoNotOptimize(store->snapshot().holdout().get());
  }
  state.counters["insample_ready_ms"] =
      benchmark::Counter(insample_ms, benchmark::Counter::kAvgIterations);
  const SampleSnapshot snap = store->snapshot();
  state.counters["mrr_bytes_per_sample"] =
      static_cast<double>(snap.mrr->MemoryBytes()) / options.theta;
  state.counters["holdout_bytes_per_sample"] =
      static_cast<double>(snap.holdout()->MemoryBytes()) /
      options.holdout_theta;
  state.SetItemsProcessed(state.iterations() * 2 * options.theta);
}
BENCHMARK(BM_SampleStoreBuild)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// SampleStore::Grow on lastfm from 50k to 100k samples (in-sample and
/// holdout) on range(0) sampling workers (0 = every core), until the
/// grown holdout is ready: the copy-on-grow generation copies the
/// existing samples once and samples the rest. `insample_ready_ms` is
/// the part until Grow returns, with the grown in-sample collection
/// published; the passes overlap as in BM_SampleStoreBuild.
void BM_SampleStoreGrow(benchmark::State& state) {
  SampleStore::Options options;
  options.theta = 50'000;
  options.seed = 19;
  options.sampling_threads = static_cast<int>(state.range(0));
  std::shared_ptr<SampleStore> store;
  double insample_ms = 0.0;
  for (auto _ : state) {
    // The previous store dies, and the next is built, untimed.
    state.PauseTiming();
    store.reset();
    store = SampleStore::Create(EnvPieces(), options);
    store->snapshot().holdout();
    state.ResumeTiming();
    const WallTimer timer;
    benchmark::DoNotOptimize(store->Grow(100'000).ok());
    insample_ms += timer.Seconds() * 1e3;
    benchmark::DoNotOptimize(store->snapshot().holdout().get());
  }
  state.counters["insample_ready_ms"] =
      benchmark::Counter(insample_ms, benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * 2 * 50'000);
}
BENCHMARK(BM_SampleStoreGrow)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Plan scoring on lastfm at theta = 100k: one EstimateAdoptionUtility
/// scan for a 20-assignment plan over the promoter pool, on an indexed
/// (range(0) = 1) or unindexed (0) collection.
void BM_EstimateAdoptionUtility(benchmark::State& state) {
  MicroEnv& env = Env();
  const bool indexed = state.range(0) == 1;
  state.SetLabel(indexed ? "indexed" : "unindexed");
  const MrrCollection mrr = MrrCollection::Generate(
      env.pieces, 100'000, 31, DiffusionModel::kIndependentCascade, 1,
      indexed);
  const LogisticAdoptionModel model(2.0, 1.0);
  AssignmentPlan plan(3);
  Rng rng(37);
  const auto& pool = env.dataset.promoter_pool;
  while (plan.size() < 20) {
    plan.Add(static_cast<int>(rng.NextBounded(3)),
             pool[rng.NextBounded(pool.size())]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateAdoptionUtility(mrr, model, plan));
  }
  state.SetItemsProcessed(state.iterations() * mrr.theta());
}
BENCHMARK(BM_EstimateAdoptionUtility)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMicrosecond);

/// The three coverage kernels on one 32-bit posting span of 4096
/// random sample ids over 100k samples (l = 3): range(0) selects the
/// kernel (0 gain, 1 gain + bound, 2 tangent gain).
void BM_CoverageKernels(benchmark::State& state) {
  constexpr int64_t kSamples = 100'000;
  constexpr int kEll = 3;
  const int kernel = static_cast<int>(state.range(0));
  Rng rng(41);
  std::vector<uint32_t> ids(4096);
  for (uint32_t& id : ids) {
    id = static_cast<uint32_t>(rng.NextBounded(kSamples));
  }
  std::sort(ids.begin(), ids.end());
  std::vector<uint16_t> mult(kSamples);
  std::vector<uint8_t> cover_count(kSamples);
  std::vector<uint32_t> greedy_epoch(kSamples);
  std::vector<uint32_t> line_epoch(kSamples);
  std::vector<double> line_value(kSamples);
  for (int64_t i = 0; i < kSamples; ++i) {
    mult[i] = static_cast<uint16_t>(rng.NextBounded(3));
    cover_count[i] = static_cast<uint8_t>(rng.NextBounded(kEll + 1));
    greedy_epoch[i] = static_cast<uint32_t>(rng.NextBounded(3));
    line_epoch[i] = static_cast<uint32_t>(rng.NextBounded(3));
    line_value[i] = rng.NextDouble();
  }
  const std::vector<double> delta_f = {0.4, 0.3, 0.2, 0.0};
  const std::vector<double> sufmax = {0.4, 0.3, 0.2, 0.0};
  const std::vector<double> anchor = {0.1, 0.4, 0.7, 0.9};
  const std::vector<double> slope = {0.3, 0.25, 0.2, 0.1};
  const std::span<const uint32_t> span(ids);
  for (auto _ : state) {
    double acc = 0.0;
    double bound = 0.0;
    if (kernel == 0) {
      acc = CoverageGainSum(span, mult.data(), cover_count.data(),
                            delta_f.data(), 0.0);
    } else if (kernel == 1) {
      CoverageGainBoundSum(span, mult.data(), cover_count.data(),
                           delta_f.data(), sufmax.data(), &acc, &bound);
    } else {
      acc = TangentGainSum(span, mult.data(), greedy_epoch.data(), 1,
                           line_epoch.data(), line_value.data(),
                           cover_count.data(), anchor.data(), slope.data(),
                           0.0);
    }
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(bound);
  }
  state.SetItemsProcessed(state.iterations() * ids.size());
}
BENCHMARK(BM_CoverageKernels)->DenseRange(0, 2)->ArgName("kernel");

void BM_CoverageAddRemove(benchmark::State& state) {
  MicroEnv& env = Env();
  const LogisticAdoptionModel model(2.0, 1.0);
  CoverageState cov(env.mrr.get(), model.AdoptionTable(3));
  Rng rng(23);
  const auto& pool = env.dataset.promoter_pool;
  for (auto _ : state) {
    const VertexId v = pool[rng.NextBounded(pool.size())];
    const int piece = static_cast<int>(rng.NextBounded(3));
    cov.AddSeed(v, piece);
    cov.RemoveSeed(v, piece);
    benchmark::DoNotOptimize(cov.RawSum());
  }
}
BENCHMARK(BM_CoverageAddRemove);

void BM_GainOfAdding(benchmark::State& state) {
  MicroEnv& env = Env();
  const LogisticAdoptionModel model(2.0, 1.0);
  CoverageState cov(env.mrr.get(), model.AdoptionTable(3));
  cov.AddSeed(env.dataset.promoter_pool[0], 0);
  Rng rng(29);
  const auto& pool = env.dataset.promoter_pool;
  for (auto _ : state) {
    const VertexId v = pool[rng.NextBounded(pool.size())];
    benchmark::DoNotOptimize(cov.GainOfAdding(v, 1));
  }
}
BENCHMARK(BM_GainOfAdding);

void BM_RefineTangentSlope(benchmark::State& state) {
  double x0 = -5.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RefineTangentSlope(x0));
    x0 = x0 < -0.1 ? x0 + 0.05 : -5.0;
  }
}
BENCHMARK(BM_RefineTangentSlope);

void BM_ComputeBound(benchmark::State& state) {
  MicroEnv& env = Env();
  const LogisticAdoptionModel model(2.0, 1.0);
  const int k = static_cast<int>(state.range(0));
  BoundEvaluator eval(env.mrr.get(), model, env.dataset.promoter_pool);
  CoverageState cov(env.mrr.get(), model.AdoptionTable(3));
  for (auto _ : state) {
    const BoundResult r = eval.ComputeBound(&cov, k, {});
    benchmark::DoNotOptimize(r.tau);
  }
}
BENCHMARK(BM_ComputeBound)->Arg(10)->Arg(30);

void BM_ComputeBoundPro(benchmark::State& state) {
  MicroEnv& env = Env();
  const LogisticAdoptionModel model(2.0, 1.0);
  const int k = static_cast<int>(state.range(0));
  BoundEvaluator eval(env.mrr.get(), model, env.dataset.promoter_pool);
  CoverageState cov(env.mrr.get(), model.AdoptionTable(3));
  for (auto _ : state) {
    const BoundResult r = eval.ComputeBoundPro(&cov, k, {}, 0.5);
    benchmark::DoNotOptimize(r.tau);
  }
}
BENCHMARK(BM_ComputeBoundPro)->Arg(10)->Arg(30);

/// One request line parsed and validated (serve::ParseWireRequest) and
/// one k = 20, l = 3 result row rendered (serve::ResultJson): the
/// daemon's per-request wire work around a solve.
void BM_WireRoundTrip(benchmark::State& state) {
  const std::string line =
      R"({"id":"r1","dataset":{"name":"lastfm","seed":1},)"
      R"("sampling":{"theta":100000,"holdout_theta":100000,"threads":2},)"
      R"("plan":{"method":"bab-p","budgets":[20],"threads":1}})";
  PlanResponse response;
  response.solver = "bab-p";
  response.budget = 20;
  response.plan = AssignmentPlan(3);
  for (int i = 0; i < 20; ++i) response.plan.Add(i % 3, 7 * i + 1);
  response.utility = 123.456;
  response.holdout_utility = 121.5;
  response.upper_bound = 130.25;
  for (auto _ : state) {
    const StatusOr<serve::WireRequest> request =
        serve::ParseWireRequest(line);
    benchmark::DoNotOptimize(request.ok());
    const std::string row = serve::ResultJson(response).Dump(-1);
    benchmark::DoNotOptimize(row.data());
  }
}
BENCHMARK(BM_WireRoundTrip);

}  // namespace
}  // namespace oipa

BENCHMARK_MAIN();
