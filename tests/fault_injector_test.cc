// Unit tests for the deterministic fault injector (util/fault_injector.h):
// seeded reproducibility, fire-on-Nth-call rules, probability bounds,
// spec parsing, and the disabled fast path.

#include "util/fault_injector.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/status.h"

namespace oipa {
namespace {

class FaultInjectorTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Disable(); }
};

TEST_F(FaultInjectorTest, DisabledNeverFails) {
  FaultInjector::Disable();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(FaultInjector::ShouldFail("serve.read"));
  }
  EXPECT_EQ(FaultInjector::InjectedCount(), 0);
}

TEST_F(FaultInjectorTest, UnarmedSiteNeverFails) {
  ASSERT_TRUE(FaultInjector::Configure("serve.read=1.0", 1).ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(FaultInjector::ShouldFail("serve.write"));
  }
}

TEST_F(FaultInjectorTest, ProbabilityOneAlwaysFails) {
  ASSERT_TRUE(FaultInjector::Configure("io.save=1.0", 7).ok());
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(FaultInjector::ShouldFail("io.save"));
  }
  EXPECT_EQ(FaultInjector::InjectedCount(), 50);
}

TEST_F(FaultInjectorTest, ProbabilityZeroNeverFails) {
  ASSERT_TRUE(FaultInjector::Configure("io.save=0.0", 7).ok());
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(FaultInjector::ShouldFail("io.save"));
  }
}

TEST_F(FaultInjectorTest, NthCallFiresExactlyOnce) {
  ASSERT_TRUE(FaultInjector::Configure("store.grow=@3", 1).ok());
  std::vector<bool> fired;
  fired.reserve(10);
  for (int i = 0; i < 10; ++i) {
    fired.push_back(FaultInjector::ShouldFail("store.grow"));
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fired[i], i == 2) << "call " << i + 1;
  }
  EXPECT_EQ(FaultInjector::InjectedCount(), 1);
}

TEST_F(FaultInjectorTest, SameSeedSameFaultSchedule) {
  auto run = [](uint64_t seed) {
    EXPECT_TRUE(FaultInjector::Configure("serve.read=0.2", seed).ok());
    std::vector<bool> fired;
    fired.reserve(200);
    for (int i = 0; i < 200; ++i) {
      fired.push_back(FaultInjector::ShouldFail("serve.read"));
    }
    return fired;
  };
  const std::vector<bool> a = run(42);
  const std::vector<bool> b = run(42);
  const std::vector<bool> c = run(43);
  EXPECT_EQ(a, b) << "same seed must fire the same call ordinals";
  EXPECT_NE(a, c) << "a different seed should fire a different schedule";
}

TEST_F(FaultInjectorTest, ProbabilityRateIsRoughlyHonored) {
  ASSERT_TRUE(FaultInjector::Configure("serve.write=0.1", 11).ok());
  int fired = 0;
  constexpr int kCalls = 5000;
  for (int i = 0; i < kCalls; ++i) {
    if (FaultInjector::ShouldFail("serve.write")) ++fired;
  }
  // 10% +/- 4 sigma of a binomial(5000, 0.1): [415, 585].
  EXPECT_GT(fired, 400);
  EXPECT_LT(fired, 600);
  EXPECT_EQ(FaultInjector::InjectedCount(), fired);
}

TEST_F(FaultInjectorTest, MultipleSitesTrackIndependentCounters) {
  ASSERT_TRUE(FaultInjector::Configure("a=@1,b=@2", 1).ok());
  EXPECT_TRUE(FaultInjector::ShouldFail("a"));
  EXPECT_FALSE(FaultInjector::ShouldFail("b"));
  EXPECT_TRUE(FaultInjector::ShouldFail("b"));
  const auto stats = FaultInjector::GetSiteStats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].site, "a");
  EXPECT_EQ(stats[0].calls, 1);
  EXPECT_EQ(stats[0].injected, 1);
  EXPECT_EQ(stats[1].site, "b");
  EXPECT_EQ(stats[1].calls, 2);
  EXPECT_EQ(stats[1].injected, 1);
}

TEST_F(FaultInjectorTest, ConfigureRejectsMalformedSpecs) {
  for (const char* bad :
       {"serve.read", "=0.5", "serve.read=", "serve.read=1.5",
        "serve.read=-0.1", "serve.read=abc", "serve.read=@0",
        "serve.read=@-2", "serve.read=@x"}) {
    const Status status = FaultInjector::Configure(bad, 1);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST_F(FaultInjectorTest, EmptySpecDisables) {
  ASSERT_TRUE(FaultInjector::Configure("io.load=1.0", 1).ok());
  EXPECT_TRUE(FaultInjector::ShouldFail("io.load"));
  ASSERT_TRUE(FaultInjector::Configure("", 1).ok());
  EXPECT_FALSE(FaultInjector::ShouldFail("io.load"));
  EXPECT_EQ(FaultInjector::InjectedCount(), 0);
}

TEST_F(FaultInjectorTest, ConcurrentCallsStayConsistent) {
  ASSERT_TRUE(FaultInjector::Configure("shared=0.5", 3).ok());
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        FaultInjector::ShouldFail("shared");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto stats = FaultInjector::GetSiteStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].calls, kThreads * kCallsPerThread);
  EXPECT_EQ(stats[0].injected, FaultInjector::InjectedCount());
  // The decision stream is a pure function of (seed, site, call index),
  // so the total across any interleaving of the same 4000 calls matches
  // a serial replay with the same seed.
  ASSERT_TRUE(FaultInjector::Configure("shared=0.5", 3).ok());
  int serial = 0;
  for (int i = 0; i < kThreads * kCallsPerThread; ++i) {
    if (FaultInjector::ShouldFail("shared")) ++serial;
  }
  EXPECT_EQ(serial, stats[0].injected);
}

TEST_F(FaultInjectorTest, InjectedFaultStatusNamesTheSite) {
  const Status status = InjectedFault("store.grow");
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message(), "injected fault at store.grow");
}

TEST_F(FaultInjectorTest, ConfigureFromEnvIsNoOpWhenUnset) {
  ::unsetenv("OIPA_FAULTS");
  ASSERT_TRUE(FaultInjector::ConfigureFromEnv().ok());
  EXPECT_FALSE(FaultInjector::ShouldFail("serve.read"));
}

TEST_F(FaultInjectorTest, ConfigureFromEnvReadsSpecAndSeed) {
  ::setenv("OIPA_FAULTS", "serve.read=@1", 1);
  ::setenv("OIPA_FAULTS_SEED", "99", 1);
  ASSERT_TRUE(FaultInjector::ConfigureFromEnv().ok());
  EXPECT_TRUE(FaultInjector::ShouldFail("serve.read"));
  ::setenv("OIPA_FAULTS_SEED", "not-a-number", 1);
  EXPECT_EQ(FaultInjector::ConfigureFromEnv().code(),
            StatusCode::kInvalidArgument);
  ::unsetenv("OIPA_FAULTS");
  ::unsetenv("OIPA_FAULTS_SEED");
}

}  // namespace
}  // namespace oipa
