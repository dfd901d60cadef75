#include "util/threading.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <utility>

#include "util/logging.h"

namespace oipa {

namespace {

std::atomic<int> g_num_threads{0};  // 0 = auto

/// OIPA_THREADS, parsed once; 0 when unset, empty, or malformed.
/// Oversized values saturate at the ceiling (never silently fall back
/// to auto-detection, which would hand out FEWER threads).
int EnvNumThreads() {
  static const int value = [] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read exactly once, under
    // the C++11 magic-static guard, before any worker thread exists.
    const char* s = std::getenv("OIPA_THREADS");
    if (s == nullptr || *s == '\0') return 0;
    char* end = nullptr;
    const long parsed = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || parsed < 0) return 0;
    return static_cast<int>(std::min<long>(parsed, kMaxExplicitThreads));
  }();
  return value;
}

}  // namespace

void Mutex::Lock() {
  mu_.lock();
  owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
}

void Mutex::Unlock() {
  owner_.store(std::thread::id(), std::memory_order_relaxed);
  mu_.unlock();
}

bool Mutex::TryLock() {
  if (!mu_.try_lock()) return false;
  owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  return true;
}

void Mutex::AssertHeld() const {
  OIPA_CHECK(owner_.load(std::memory_order_relaxed) ==
             std::this_thread::get_id())
      << "Mutex::AssertHeld failed: calling thread does not hold the mutex";
}

void CondVar::Wait(Mutex* mu) {
  // The wrapped condition_variable atomically releases the underlying
  // std::mutex, so clear the owner tag first (we are about to stop
  // holding it) and restore it after the wakeup re-acquires. Adopting
  // and then releasing the unique_lock keeps ownership with *mu.
  mu->owner_.store(std::thread::id(), std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
  cv_.wait(lock);
  lock.release();
  mu->owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
}

void CondVar::NotifyOne() { cv_.notify_one(); }

void CondVar::NotifyAll() { cv_.notify_all(); }

int GetNumThreads() {
  int n = g_num_threads.load(std::memory_order_relaxed);
  if (n <= 0) n = EnvNumThreads();
  if (n > 0) {
    // Explicit override: honored verbatim (oversubscription is legal and
    // lets tests force multi-shard paths on small machines), with only a
    // generous OS-resource safety ceiling instead of the auto path's 16.
    return std::min(n, kMaxExplicitThreads);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw == 0 ? 1 : hw), 1, 16);
}

void SetNumThreads(int n) {
  OIPA_CHECK_GE(n, 0);
  g_num_threads.store(n, std::memory_order_relaxed);
}

int ResolveThreadCount(int num_threads) {
  if (num_threads > 0) return std::min(num_threads, kMaxExplicitThreads);
  return GetNumThreads();
}

namespace {

/// The long-lived workers behind ParallelFor and BackgroundTask. A
/// worker runs one job, then parks on a mailbox of its own in `idle_`
/// until the next job is posted to it, or exits when GetNumThreads()
/// workers are parked already. Workers are detached and the pool is
/// never destroyed, so a parked worker may outlive main(). It holds no
/// state between jobs.
class WorkerPool {
 public:
  /// Runs `job` on the most recently parked worker, or on a new one.
  void Run(std::function<void()> job) {
    {
      MutexLock lock(&mu_);
      if (!idle_.empty()) {
        Mailbox* box = idle_.back();
        idle_.pop_back();
        box->job = std::move(job);
        box->posted.NotifyOne();
        return;
      }
    }
    std::thread([this, job = std::move(job)]() mutable {
      Work(std::move(job));
    }).detach();
  }

  int idle() {
    MutexLock lock(&mu_);
    return static_cast<int>(idle_.size());
  }

  // pthread_atfork handlers. The forking thread holds mu_ across the
  // fork, so the child never inherits it mid-update; the child has none
  // of its parent's threads, so it forgets the parked ones and starts
  // its own. The lock spans two handlers, which the analysis cannot
  // follow.
  void BeforeFork() OIPA_NO_THREAD_SAFETY_ANALYSIS { mu_.Lock(); }
  void AfterForkInParent() OIPA_NO_THREAD_SAFETY_ANALYSIS { mu_.Unlock(); }
  void AfterForkInChild() OIPA_NO_THREAD_SAFETY_ANALYSIS {
    idle_.clear();
    mu_.Unlock();
  }

 private:
  /// A parked worker's slot: Run posts the next job into it. Lives on
  /// its worker's stack; `job` is read and written under mu_.
  struct Mailbox {
    CondVar posted;
    std::function<void()> job;
  };

  void Work(std::function<void()> job) {
    Mailbox box;
    while (true) {
      job();
      job = nullptr;
      MutexLock lock(&mu_);
      if (static_cast<int>(idle_.size()) >= GetNumThreads()) return;
      idle_.push_back(&box);
      while (!box.job) box.posted.Wait(&mu_);
      job = std::move(box.job);
      box.job = nullptr;
    }
  }

  Mutex mu_;
  std::vector<Mailbox*> idle_ OIPA_GUARDED_BY(mu_);
};

WorkerPool& Pool() {
  static WorkerPool* const pool = [] {
    auto* created = new WorkerPool();
    pthread_atfork([] { Pool().BeforeFork(); },
                   [] { Pool().AfterForkInParent(); },
                   [] { Pool().AfterForkInChild(); });
    return created;
  }();
  return *pool;
}

/// Counts down the shards a ParallelFor handed to the pool.
class ShardCountdown {
 public:
  explicit ShardCountdown(int shards) : pending_(shards) {}

  /// A worker's last touch of the countdown: the notify, under mu_.
  void Done() {
    MutexLock lock(&mu_);
    if (--pending_ == 0) zero_.NotifyAll();
  }

  void Wait() {
    MutexLock lock(&mu_);
    while (pending_ > 0) zero_.Wait(&mu_);
  }

 private:
  Mutex mu_;
  CondVar zero_;
  int pending_ OIPA_GUARDED_BY(mu_);
};

}  // namespace

void ParallelFor(int64_t total,
                 const std::function<void(int shard, int64_t begin,
                                          int64_t end)>& fn) {
  ParallelFor(total, 0, fn);
}

void ParallelFor(int64_t total, int num_threads,
                 const std::function<void(int shard, int64_t begin,
                                          int64_t end)>& fn) {
  if (total <= 0) return;
  const int threads = static_cast<int>(
      std::min<int64_t>(ResolveThreadCount(num_threads), total));
  if (threads <= 1) {
    fn(0, 0, total);
    return;
  }
  const int64_t chunk = (total + threads - 1) / threads;
  const int shards = static_cast<int>((total + chunk - 1) / chunk);
  ShardCountdown pooled(shards - 1);
  for (int t = 1; t < shards; ++t) {
    const int64_t begin = static_cast<int64_t>(t) * chunk;
    const int64_t end = std::min(total, begin + chunk);
    Pool().Run([&fn, &pooled, t, begin, end] {
      fn(t, begin, end);
      pooled.Done();
    });
  }
  // The pooled shards still use `fn` and `pooled`: like an exception in
  // theirs, one in shard 0 ends the program rather than unwind them.
  [&]() noexcept { fn(0, 0, chunk); }();
  pooled.Wait();
}

int IdlePoolWorkers() { return Pool().idle(); }

namespace {

struct BackgroundHolds {
  Mutex mu;
  CondVar released;
  int count OIPA_GUARDED_BY(mu) = 0;
};

/// Never destroyed: a pooled worker may still pass the gate while
/// static destructors run at exit.
BackgroundHolds& Holds() {
  static auto* holds = new BackgroundHolds();
  return *holds;
}

}  // namespace

HoldBackgroundTasks::HoldBackgroundTasks() {
  BackgroundHolds& holds = Holds();
  MutexLock lock(&holds.mu);
  ++holds.count;
}

HoldBackgroundTasks::~HoldBackgroundTasks() {
  BackgroundHolds& holds = Holds();
  MutexLock lock(&holds.mu);
  if (--holds.count == 0) holds.released.NotifyAll();
}

void StartBackgroundJob(std::function<void()> body) {
  Pool().Run([body = std::move(body)] {
    {
      BackgroundHolds& holds = Holds();
      MutexLock lock(&holds.mu);
      while (holds.count > 0) holds.released.Wait(&holds.mu);
    }
    body();
  });
}

}  // namespace oipa
