#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "util/default_init_allocator.h"
#include "util/flags.h"
#include "util/math.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"
#include "util/threading.h"

namespace oipa {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::vector<int>> v = std::vector<int>{1, 2, 3};
  std::vector<int> taken = std::move(v).value();
  EXPECT_EQ(taken.size(), 3u);
}

Status FailingHelper() { return Status::IoError("disk"); }
Status PropagatingHelper() {
  OIPA_RETURN_IF_ERROR(FailingHelper());
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(PropagatingHelper().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------- Random

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 10'000; ++i) {
    const uint64_t x = rng.NextBounded(7);
    EXPECT_LT(x, 7u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values reachable
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const int64_t x = rng.NextInt(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int trials = 100'000;
  for (int i = 0; i < trials; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(21);
  RunningStats stats;
  for (int i = 0; i < 200'000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(RngTest, GammaMeanMatchesShape) {
  Rng rng(23);
  for (double shape : {0.5, 1.0, 3.0}) {
    RunningStats stats;
    for (int i = 0; i < 100'000; ++i) stats.Add(rng.NextGamma(shape));
    EXPECT_NEAR(stats.mean(), shape, 0.05 * std::max(1.0, shape))
        << "shape=" << shape;
  }
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(29);
  for (double alpha : {0.1, 1.0, 10.0}) {
    const std::vector<double> v = rng.NextDirichlet(8, alpha);
    double sum = 0.0;
    for (double x : v) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RngTest, DirichletIntoBufferDrawsLikeTheVectorForm) {
  Rng vector_rng(37);
  Rng buffer_rng(37);
  std::vector<double> buffer(5);
  for (double alpha : {0.05, 1.0, 4.0}) {
    buffer_rng.NextDirichlet(alpha, buffer);
    EXPECT_EQ(vector_rng.NextDirichlet(5, alpha), buffer) << alpha;
  }
  EXPECT_EQ(vector_rng.Next(), buffer_rng.Next());
}

TEST(DefaultInitVectorTest, ResizeDoesNotOverwriteStorage) {
  // Unsigned char, whose indeterminate values may be read: a regrown
  // slot still holds what the storage held, where std::vector would
  // have zeroed it.
  DefaultInitVector<unsigned char> v(64, 7);
  const unsigned char* storage = v.data();
  v.resize(0);
  v.resize(64);
  ASSERT_EQ(v.data(), storage);
  EXPECT_EQ(v[0], 7);
  EXPECT_EQ(v[63], 7);
  v.resize(80, 9);  // explicit values are still written
  EXPECT_EQ(v[79], 9);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(SampleDiscreteTest, RespectsWeights) {
  Rng rng(37);
  const std::vector<double> w{0.0, 2.0, 1.0, 0.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 90'000; ++i) ++counts[SampleDiscrete(w, &rng)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[3], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[2], 2.0, 0.1);
}

// ------------------------------------------------------------------ Math

TEST(MathTest, SigmoidBasics) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(1.0), 1.0 / (1.0 + std::exp(-1.0)), 1e-15);
  EXPECT_NEAR(Sigmoid(-1.0) + Sigmoid(1.0), 1.0, 1e-15);  // symmetry
  EXPECT_GE(Sigmoid(50.0), 1.0 - 1e-20);
  EXPECT_LT(Sigmoid(-50.0), 1e-20);
}

TEST(MathTest, SigmoidNumericallyStableAtExtremes) {
  EXPECT_FALSE(std::isnan(Sigmoid(-1000.0)));
  EXPECT_FALSE(std::isnan(Sigmoid(1000.0)));
  EXPECT_EQ(Sigmoid(-1000.0), 0.0);
  EXPECT_EQ(Sigmoid(1000.0), 1.0);
}

TEST(MathTest, LogitInvertsSigmoid) {
  for (double x : {-4.0, -0.5, 0.0, 2.0, 6.0}) {
    EXPECT_NEAR(Logit(Sigmoid(x)), x, 1e-9);
  }
}

TEST(MathTest, SigmoidDerivativeMatchesFiniteDifference) {
  const double h = 1e-6;
  for (double x : {-3.0, -1.0, 0.0, 1.0, 3.0}) {
    const double fd = (Sigmoid(x + h) - Sigmoid(x - h)) / (2 * h);
    EXPECT_NEAR(SigmoidDerivative(x), fd, 1e-8);
  }
}

TEST(MathTest, LogBinomialSmallValues) {
  EXPECT_NEAR(LogBinomial(5, 2), std::log(10.0), 1e-9);
  EXPECT_NEAR(LogBinomial(10, 0), 0.0, 1e-9);
  EXPECT_NEAR(LogBinomial(10, 10), 0.0, 1e-9);
  EXPECT_LT(LogBinomial(10, 11), -1e100);  // invalid -> -inf marker
}

TEST(MathTest, NearlyEqualRelativeTolerance) {
  EXPECT_TRUE(NearlyEqual(1e9, 1e9 + 1.0, 1e-8));
  EXPECT_FALSE(NearlyEqual(1.0, 1.1, 1e-8));
  EXPECT_TRUE(NearlyEqual(0.0, 1e-12, 1e-9));
}

// ----------------------------------------------------------------- Stats

TEST(RunningStatsTest, MeanVarianceKnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, MergeEqualsSequential) {
  RunningStats all, a, b;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextGaussian() * 3.0 + 1.0;
    all.Add(x);
    (i % 2 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStatsTest, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.Add(3.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stderr_mean(), 0.0);
}

TEST(QuantileTest, MedianAndExtremes) {
  std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 2.0);
}

TEST(QuantileTest, EmptyReturnsZero) {
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
}

TEST(CorrelationTest, PerfectAndInverse) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2, 4, 6, 8, 10};
  const std::vector<double> z{5, 4, 3, 2, 1};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
}

TEST(CorrelationTest, ConstantSeriesIsZero) {
  const std::vector<double> x{1, 1, 1, 1};
  const std::vector<double> y{1, 2, 3, 4};
  EXPECT_EQ(PearsonCorrelation(x, y), 0.0);
}

TEST(CorrelationTest, SpearmanInvariantToMonotoneTransform) {
  const std::vector<double> x{1, 2, 3, 4, 5, 6};
  std::vector<double> y;
  for (double v : x) y.push_back(std::exp(v));  // nonlinear monotone
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
}

TEST(PowerLawMleTest, RecoversKnownExponent) {
  // Inverse-CDF sampling from a continuous power law with alpha = 2.5.
  Rng rng(41);
  std::vector<double> samples;
  const double alpha = 2.5;
  for (int i = 0; i < 200'000; ++i) {
    double u = rng.NextDouble();
    while (u <= 0.0) u = rng.NextDouble();
    samples.push_back(std::pow(u, -1.0 / (alpha - 1.0)));
  }
  EXPECT_NEAR(PowerLawExponentMle(samples, 1.0), alpha, 0.05);
}

TEST(PowerLawMleTest, DegenerateInputsReturnZero) {
  EXPECT_EQ(PowerLawExponentMle({}, 1.0), 0.0);
  EXPECT_EQ(PowerLawExponentMle({1.0, 1.0}, 1.0), 0.0);
}

// ----------------------------------------------------------------- Flags

TEST(FlagParserTest, ParsesAllForms) {
  // A bare "--flag" followed by a non-flag token consumes it as its
  // value ("--key value" form), so "positional" precedes the flags.
  const char* argv[] = {"prog",   "positional", "--k=25",
                        "--name", "dblp",       "--eps=0.5",
                        "--verbose"};
  FlagParser flags(7, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("k", 0), 25);
  EXPECT_EQ(flags.GetString("name", ""), "dblp");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_DOUBLE_EQ(flags.GetDouble("eps", 0.0), 0.5);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  FlagParser flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("k", 42), 42);
  EXPECT_EQ(flags.GetString("s", "d"), "d");
  EXPECT_FALSE(flags.Has("k"));
}

TEST(FlagParserTest, ParsesLists) {
  const char* argv[] = {"prog", "--k=10,20,30", "--eps=0.1,0.9"};
  FlagParser flags(3, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetIntList("k", {}),
            (std::vector<int64_t>{10, 20, 30}));
  EXPECT_EQ(flags.GetDoubleList("eps", {}),
            (std::vector<double>{0.1, 0.9}));
  EXPECT_EQ(flags.GetIntList("missing", {7}), (std::vector<int64_t>{7}));
}

// ----------------------------------------------------------------- Table

TEST(TextTableTest, CsvRoundtrip) {
  TextTable t({"a", "b"});
  t.AddRow({"1", "2"});
  t.AddRow({"x", "y"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\nx,y\n");
}

TEST(TextTableTest, NumFormatting) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Num(2.0, 0), "2");
}

// ------------------------------------------------------------- Threading

TEST(ThreadingTest, ParallelForCoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(1000, [&](int, int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadingTest, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(0, [&](int, int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadingTest, SingleThreadOverrideRunsInline) {
  SetNumThreads(1);
  EXPECT_EQ(GetNumThreads(), 1);
  int shards = 0;
  ParallelFor(100, [&](int shard, int64_t, int64_t) {
    EXPECT_EQ(shard, 0);
    ++shards;
  });
  EXPECT_EQ(shards, 1);
  SetNumThreads(0);  // restore auto
}

/// Waits (up to 10 s) until at least `count` pooled workers are parked.
bool AwaitIdlePoolWorkers(int count) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (IdlePoolWorkers() < count) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadingTest, ShardZeroRunsOnTheCallingThread) {
  std::vector<std::thread::id> ran_on(3);
  ParallelFor(3, 3, [&](int shard, int64_t, int64_t) {
    ran_on[shard] = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  EXPECT_NE(ran_on[1], std::this_thread::get_id());
  EXPECT_NE(ran_on[2], std::this_thread::get_id());
}

TEST(ThreadingTest, PooledWorkersAreReused) {
  // Let workers that earlier tests used finish parking.
  int parked = IdlePoolWorkers();
  for (int settled = 0; settled < 20;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const int now = IdlePoolWorkers();
    settled = now == parked ? settled + 1 : 0;
    parked = now;
  }
  // Shards this thread has run: a reused worker remembers the first call.
  static thread_local int shards_run = 0;
  std::thread::id first;
  ParallelFor(2, 2, [&](int shard, int64_t, int64_t) {
    if (shard == 1) {
      ++shards_run;
      first = std::this_thread::get_id();
    }
  });
  // The worker parks again after its shard; the next call takes the
  // most recently parked worker.
  ASSERT_TRUE(AwaitIdlePoolWorkers(std::max(parked, 1)));
  std::thread::id second;
  int second_runs = 0;
  ParallelFor(2, 2, [&](int shard, int64_t, int64_t) {
    if (shard == 1) {
      second_runs = ++shards_run;
      second = std::this_thread::get_id();
    }
  });
  EXPECT_EQ(second, first);
  EXPECT_EQ(second_runs, 2);
}

TEST(ThreadingTest, NestedParallelForCompletes) {
  std::vector<std::atomic<int>> hits(4 * 100);
  ParallelFor(4, 4, [&](int, int64_t lo, int64_t hi) {
    for (int64_t outer = lo; outer < hi; ++outer) {
      ParallelFor(100, 2, [&](int, int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) hits[outer * 100 + i] += 1;
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadingTest, ConcurrentCallersEachCoverTheirRangeOnce) {
  constexpr int kCallers = 8;
  constexpr int kCalls = 50;
  std::vector<int> failures(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&failures, c] {
      for (int call = 0; call < kCalls; ++call) {
        std::vector<std::atomic<int>> hits(1000 + call);
        ParallelFor(static_cast<int64_t>(hits.size()), 4,
                    [&](int, int64_t lo, int64_t hi) {
                      for (int64_t i = lo; i < hi; ++i) hits[i] += 1;
                    });
        for (const auto& h : hits) failures[c] += h.load() != 1;
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) EXPECT_EQ(failures[c], 0) << c;
}

TEST(ThreadingTest, IdleWorkersAboveTheCapExit) {
  SetNumThreads(2);
  // All 32 shards run at once, so 31 pooled workers exist together.
  std::atomic<int> running{0};
  ParallelFor(32, 32, [&](int, int64_t, int64_t) {
    ++running;
    while (running.load() < 32) std::this_thread::yield();
  });
  ASSERT_TRUE(AwaitIdlePoolWorkers(2));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(IdlePoolWorkers(), GetNumThreads());
  SetNumThreads(0);  // restore auto
}

TEST(ThreadingTest, BackgroundTaskOnThePoolWaitsForTheHold) {
  auto hold = std::make_unique<HoldBackgroundTasks>();
  std::atomic<bool> ran{false};
  const auto task = BackgroundTask<std::thread::id>::Start([&ran] {
    ran = true;
    return std::this_thread::get_id();
  });
  // The held job keeps its worker; other work still gets workers.
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(100, 4, [&](int, int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[i] += 1;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(ran.load());
  EXPECT_FALSE(task->ready());
  hold.reset();
  EXPECT_NE(task->Wait(), std::this_thread::get_id());
  EXPECT_TRUE(ran.load());
}

// ----------------------------------------------------- Mutex / CondVar

TEST(MutexTest, MutualExclusionUnderContention) {
  Mutex mu;
  int64_t counter = 0;  // guarded by mu (plain int64_t: races would tear)
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  MutexLock lock(&mu);
  EXPECT_EQ(counter, int64_t{kThreads} * kIters);
}

TEST(MutexTest, TryLockReportsContention) {
  Mutex mu;
  ASSERT_TRUE(mu.TryLock());
  std::thread other([&mu] {
    EXPECT_FALSE(mu.TryLock());  // held by the main thread
  });
  other.join();
  mu.AssertHeld();
  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());  // free again
  mu.Unlock();
}

TEST(MutexTest, AssertHeldPassesForTheHolder) {
  Mutex mu;
  MutexLock lock(&mu);
  mu.AssertHeld();  // must not abort
}

TEST(MutexDeathTest, AssertHeldAbortsWhenNeverLocked) {
  Mutex mu;
  EXPECT_DEATH(mu.AssertHeld(), "AssertHeld");
}

TEST(MutexDeathTest, AssertHeldAbortsAfterUnlock) {
  Mutex mu;
  mu.Lock();
  mu.Unlock();
  EXPECT_DEATH(mu.AssertHeld(), "AssertHeld");
}

TEST(MutexDeathTest, AssertHeldAbortsForANonHolderThread) {
  // The owner tag must identify the holding *thread*, not merely a
  // locked state: a different thread asserting on a held mutex dies.
  // The child starts a thread, and once an earlier test has parked
  // pooled workers this process is multi-threaded, so the child
  // re-executes the binary instead of running on from a multi-threaded
  // fork (where TSan refuses to start threads). gtest restores the
  // style after the test.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex mu;
        mu.Lock();
        std::thread holder_checker([&mu] { mu.AssertHeld(); });
        holder_checker.join();
      },
      "AssertHeld");
}

TEST(MutexTest, ReleasableLockSurvivesUnlockRelockCycles) {
  Mutex mu;
  int value = 0;
  {
    ReleasableMutexLock lock(&mu);
    value = 1;
    lock.Unlock();
    // While released, another thread can take the mutex.
    std::thread other([&mu] { MutexLock inner(&mu); });
    other.join();
    lock.Lock();
    mu.AssertHeld();
    value = 2;
  }  // destructor unlocks the re-taken mutex
  ASSERT_TRUE(mu.TryLock());  // fully released on scope exit
  mu.Unlock();
  EXPECT_EQ(value, 2);
}

TEST(MutexTest, ReleasableLockDestructorSkipsReleasedMutex) {
  Mutex mu;
  {
    ReleasableMutexLock lock(&mu);
    lock.Unlock();
  }  // destructor must not unlock an already-released mutex
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(CondVarTest, WaitReleasesAndReacquiresTheMutex) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
    // Wait() re-acquired the mutex: the owner tag must say so.
    mu.AssertHeld();
  });
  {
    // The waiter releases mu while blocked, so this lock is obtainable
    // even before the notify.
    MutexLock lock(&mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
}

TEST(CondVarTest, NotifyAllWakesEveryWaiter) {
  Mutex mu;
  CondVar cv;
  bool go = false;
  int woken = 0;
  constexpr int kWaiters = 4;
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      MutexLock lock(&mu);
      while (!go) cv.Wait(&mu);
      ++woken;
    });
  }
  {
    MutexLock lock(&mu);
    go = true;
  }
  cv.NotifyAll();
  for (auto& t : waiters) t.join();
  MutexLock lock(&mu);
  EXPECT_EQ(woken, kWaiters);
}

TEST(BackgroundTaskTest, WaitReturnsTheValueOnceTheJobHasRun) {
  const auto done = BackgroundTask<int>::Done(7);
  EXPECT_TRUE(done->ready());
  EXPECT_EQ(done->Wait(), 7);

  auto hold = std::make_unique<HoldBackgroundTasks>();
  auto input = std::make_shared<int>(5);
  const std::weak_ptr<int> watch = input;
  const auto task = BackgroundTask<int>::Start(
      [input = std::move(input)] { return *input + 1; });
  EXPECT_FALSE(task->ready());  // held back
  hold.reset();
  EXPECT_EQ(task->Wait(), 6);
  EXPECT_TRUE(task->ready());
  // The job's captures are released before any waiter wakes.
  EXPECT_TRUE(watch.expired());
}

TEST(BackgroundTaskTest, ManyWaitersSeeOneValue) {
  const auto task = BackgroundTask<std::shared_ptr<const int>>::Start(
      [] { return std::make_shared<const int>(11); });
  std::vector<std::thread> waiters;
  std::atomic<int> sum{0};
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&] { sum += *task->Wait(); });
  }
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(sum.load(), 44);
}

// Under ThreadSanitizer, a thread started in the child of a
// multi-threaded fork kills the child with TSan's own message: it still
// dies rather than hangs.
#if defined(__SANITIZE_THREAD__)
#define OIPA_UTIL_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OIPA_UTIL_TEST_TSAN 1
#endif
#endif
#ifdef OIPA_UTIL_TEST_TSAN
constexpr char kForkedShardsDeath[] =
    "ran 2 shards|starting new threads after multi-threaded fork";
#else
constexpr char kForkedShardsDeath[] = "ran 2 shards";
#endif

TEST(ThreadingDeathTest, ForkedChildStartsWorkersOfItsOwn) {
  // A parked worker exists in this process when the death test forks;
  // the child has no thread behind it, so it must not post work to it.
  ParallelFor(2, 2, [](int, int64_t, int64_t) {});
  ASSERT_TRUE(AwaitIdlePoolWorkers(1));
  EXPECT_DEATH(
      {
        std::atomic<int> shards{0};
        ParallelFor(2, 2, [&shards](int, int64_t, int64_t) { ++shards; });
        std::fprintf(stderr, "ran %d shards\n", shards.load());
        std::abort();
      },
      kForkedShardsDeath);
}

}  // namespace
}  // namespace oipa
