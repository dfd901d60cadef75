#ifndef OIPA_UTIL_THREADING_H_
#define OIPA_UTIL_THREADING_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace oipa {

class CondVar;

/// Annotated std::mutex wrapper. This is the project's only blessed
/// mutual-exclusion primitive outside src/util/ (enforced by
/// scripts/lint_invariants.py): unlike a raw std::mutex it carries the
/// Clang Thread Safety Analysis capability attribute, so fields can be
/// declared OIPA_GUARDED_BY(mu_) and the locking discipline is checked
/// at compile time on clang builds.
///
/// The wrapper also tracks the owning thread (two relaxed atomic stores
/// per lock/unlock — negligible next to the futex transition) so that
/// AssertHeld() works in every build type, not just debug: lock-contract
/// violations abort in the Release binaries CI actually runs.
class OIPA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() OIPA_ACQUIRE();
  void Unlock() OIPA_RELEASE();
  /// Returns true (holding the lock) iff the mutex was free.
  bool TryLock() OIPA_TRY_ACQUIRE(true);

  /// Aborts unless the calling thread holds this mutex. Also tells the
  /// static analysis the capability is held from here on, so it can
  /// gate entry points whose contract cannot be expressed statically.
  void AssertHeld() const OIPA_ASSERT_CAPABILITY(this);

 private:
  friend class CondVar;

  std::mutex mu_;
  /// Owner for AssertHeld: written only by the holder right after
  /// acquiring / right before releasing, so relaxed order suffices —
  /// a racing reader can only be a *different* thread, and any value it
  /// observes (stale or not) correctly compares unequal to its own id.
  std::atomic<std::thread::id> owner_{};
};

/// RAII lock for the common whole-scope critical section.
class OIPA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) OIPA_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() OIPA_RELEASE() { mu_->Unlock(); }

 private:
  Mutex* const mu_;
};

/// RAII lock that can be dropped and re-taken mid-scope — for loops
/// that hold a lock around shared state but release it across an
/// expensive computation (the parallel-BAB bound evaluation). The
/// destructor unlocks only if currently held; the analysis tracks the
/// held/released state through Unlock()/Lock() pairs.
class OIPA_SCOPED_CAPABILITY ReleasableMutexLock {
 public:
  explicit ReleasableMutexLock(Mutex* mu) OIPA_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ReleasableMutexLock(const ReleasableMutexLock&) = delete;
  ReleasableMutexLock& operator=(const ReleasableMutexLock&) = delete;
  ~ReleasableMutexLock() OIPA_RELEASE() {
    if (held_) mu_->Unlock();
  }

  void Unlock() OIPA_RELEASE() {
    held_ = false;
    mu_->Unlock();
  }
  void Lock() OIPA_ACQUIRE() {
    mu_->Lock();
    held_ = true;
  }

 private:
  Mutex* const mu_;
  bool held_ = true;
};

/// Condition variable paired with oipa::Mutex. Wait() declares via
/// OIPA_REQUIRES that the caller holds the mutex, which is exactly the
/// std::condition_variable precondition TSan can only check at runtime.
/// There is deliberately no predicate overload: writing the
///   while (!condition) cv.Wait(&mu);
/// loop at the call site keeps the guarded reads in the predicate
/// visible to the static analysis (a lambda body would be analyzed
/// without the lock context and produce false positives).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases *mu and blocks; re-acquires *mu before
  /// returning. Subject to spurious wakeups — always wait in a loop.
  void Wait(Mutex* mu) OIPA_REQUIRES(mu);

  void NotifyOne();
  void NotifyAll();

 private:
  std::condition_variable cv_;
};

/// Hard ceiling on explicit thread overrides — an OS-resource guard,
/// far above any sensible worker count.
inline constexpr int kMaxExplicitThreads = 1024;

/// Number of worker threads used by ParallelFor and the parallel
/// branch-and-bound engine. Resolution order:
///   1. SetNumThreads(n > 0)      — programmatic override,
///   2. OIPA_THREADS=n (n > 0)    — environment override,
///   3. hardware concurrency clamped to [1, 16].
/// Explicit overrides (1 and 2) are honored verbatim — large machines
/// can use every core and tests may oversubscribe — bounded only by a
/// 1024-thread OS-resource ceiling, not the auto path's 16.
int GetNumThreads();
void SetNumThreads(int n);

/// Resolves an explicit per-call thread request: n > 0 is honored
/// verbatim (clamped only by the 1024-thread OS-resource ceiling);
/// n <= 0 defers to GetNumThreads(). The shared convention for every
/// API that takes a `num_threads`/`sampling_threads` knob with
/// "0 = auto" semantics.
int ResolveThreadCount(int num_threads);

/// Runs fn(shard, begin, end) on `shards` contiguous slices of [0, total),
/// one slice per worker. Blocks until all shards finish. `fn` must be
/// safe to call concurrently on disjoint ranges.
///
/// Shard 0 runs on the calling thread and every other shard on a pooled
/// worker: an idle one if there is one, a new one otherwise. A worker
/// returns to the pool after its shard; at most GetNumThreads() idle
/// workers stay alive, and any worker above that cap exits. A shard may
/// itself call ParallelFor. With GetNumThreads() == 1 (or total small)
/// the call runs inline, which keeps single-threaded runs fully
/// deterministic and debuggable.
void ParallelFor(int64_t total,
                 const std::function<void(int shard, int64_t begin,
                                          int64_t end)>& fn);

/// ParallelFor with an explicit worker count: `num_threads` follows the
/// ResolveThreadCount convention (<= 0 defers to GetNumThreads()), so
/// callers can plumb a per-call override — e.g. a sampling_threads
/// knob — without touching the process-wide setting.
void ParallelFor(int64_t total, int num_threads,
                 const std::function<void(int shard, int64_t begin,
                                          int64_t end)>& fn);

/// Pooled workers waiting for work right now (at most GetNumThreads()).
int IdlePoolWorkers();

/// Runs `body` on a pooled worker (see ParallelFor); `body` waits while
/// any HoldBackgroundTasks is alive. BackgroundTask's job runner.
void StartBackgroundJob(std::function<void()> body);

/// While any of these is alive, a background task's job waits before it
/// runs (see BackgroundTask). A test seam: it lets a test observe, and
/// act on, work that is still pending. Nothing in the library takes one.
class HoldBackgroundTasks {
 public:
  HoldBackgroundTasks();
  ~HoldBackgroundTasks();
  HoldBackgroundTasks(const HoldBackgroundTasks&) = delete;
  HoldBackgroundTasks& operator=(const HoldBackgroundTasks&) = delete;
};

/// A value that a job computes on a pooled worker. Wait() blocks until
/// the job has returned; ready() never blocks. The job's captures are
/// released before any waiter wakes, and the destructor waits until the
/// worker has let go of the task, so the job may use anything that
/// outlives the task. Tasks are handed out as shared_ptr; the job must
/// not hold one to its own task.
template <typename T>
class BackgroundTask {
 public:
  /// A task that is already done.
  static std::shared_ptr<const BackgroundTask> Done(T value) {
    return std::shared_ptr<const BackgroundTask>(
        new BackgroundTask(std::move(value)));
  }

  /// Starts `job` on a pooled worker (StartBackgroundJob).
  static std::shared_ptr<const BackgroundTask> Start(std::function<T()> job) {
    return std::shared_ptr<const BackgroundTask>(
        new BackgroundTask(std::move(job)));
  }

  /// The worker's last touch of the task is its notify, under mu_.
  ~BackgroundTask() {
    MutexLock lock(&mu_);
    while (!done_) done_cv_.Wait(&mu_);
  }
  BackgroundTask(const BackgroundTask&) = delete;
  BackgroundTask& operator=(const BackgroundTask&) = delete;

  bool ready() const {
    MutexLock lock(&mu_);
    return done_;
  }

  T Wait() const {
    MutexLock lock(&mu_);
    while (!done_) done_cv_.Wait(&mu_);
    return value_;
  }

 private:
  explicit BackgroundTask(T value) : value_(std::move(value)), done_(true) {}

  explicit BackgroundTask(std::function<T()> job) {
    StartBackgroundJob([this, job = std::move(job)]() mutable {
      T value = job();
      job = nullptr;
      MutexLock lock(&mu_);
      value_ = std::move(value);
      done_ = true;
      done_cv_.NotifyAll();
    });
  }

  mutable Mutex mu_;
  mutable CondVar done_cv_;
  T value_ OIPA_GUARDED_BY(mu_);
  bool done_ OIPA_GUARDED_BY(mu_) = false;
};

}  // namespace oipa

#endif  // OIPA_UTIL_THREADING_H_
