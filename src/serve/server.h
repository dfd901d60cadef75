#ifndef OIPA_SERVE_SERVER_H_
#define OIPA_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/context_cache.h"
#include "serve/wire.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/threading.h"

namespace oipa {
namespace serve {

/// Configuration of one PlanServer instance.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  /// Solver worker threads (each handles one request group at a time).
  int workers = 2;
  /// ContextCache capacity.
  int max_contexts = 8;
  /// ContextCache byte budget over its sample stores: a slot outlives
  /// its last cached context only while every store fits it; 0 retains
  /// none.
  int64_t store_budget_bytes = 0;
  /// Work-queue cap: a request arriving while this many are already
  /// queued is rejected with a ResourceExhausted error carrying
  /// error.retry_after_ms, instead of queueing without bound.
  int max_queue_depth = 256;
  /// Per-connection cap on requests queued or solving at once; excess
  /// requests on that connection are rejected with ResourceExhausted
  /// (one greedy pipeliner cannot fill the whole queue).
  int max_inflight_per_conn = 32;
  /// Response-write timeout (SO_SNDTIMEO). A client that stops reading
  /// for this long has its connection severed instead of pinning the
  /// writing worker; the undeliverable response is dropped.
  int write_timeout_ms = 5000;
  /// When non-empty, the context cache's sample stores are checkpointed
  /// here every checkpoint_interval_ms and on Stop(), and recovered at
  /// Start() — a restarted daemon resumes persisted sample streams with
  /// zero regenerated samples.
  std::string checkpoint_dir;
  int checkpoint_interval_ms = 30'000;
};

/// InvalidArgument naming the first option outside its domain (port
/// outside [0, 65535], a non-positive count or interval, a negative
/// store budget); PlanServer::Start() refuses such options with it.
Status ValidateServerOptions(const ServerOptions& options);

/// The oipa_serve planning daemon: accepts newline-delimited JSON plan
/// requests over TCP (see wire.h for the schema), answers each on the
/// same connection in arrival order per connection, and never aborts
/// on wire input — malformed requests get structured error responses.
///
/// Execution model: one accept thread, one reader thread per
/// connection, and a fixed worker pool draining a FIFO work queue.
/// When a worker dequeues a request it also claims every queued
/// request with the same MergeKey() (same context, same solver
/// profile, no deadline) and answers the whole group from a single
/// SolveBatch budget sweep over the merged budget list — each response
/// is bit-identical to solving that request alone, because the shared
/// samples cannot grow mid-sweep for merge-eligible requests.
///
/// Deadlines: PlanSpec::deadline_ms is measured from the moment the
/// reader enqueues the request, so queue wait counts against it. The
/// remaining budget becomes PlanRequest::deadline_ms (clamped to at
/// least 1 ms — a request already past its deadline is cancelled at
/// the solver's first progress poll) and the solver is cut off
/// mid-search through the progress hook; the response rows carry
/// "cancelled"/"deadline_exceeded" plus the partial telemetry of the
/// work done up to the cutoff.
///
/// Shutdown: RequestShutdown() is async-signal-safe (oipa_serve calls
/// it from SIGINT/SIGTERM handlers). Stop() then stops accepting,
/// answers any late requests with a FailedPrecondition error, drains
/// every already-queued solve, and joins all threads.
///
/// Locking: mu_ guards the work queue, the connection table, and the
/// drain flag; each connection carries its own write mutex so workers
/// and its reader serialize response lines without sharing mu_. Lock
/// order: mu_ and conn->write_mu are never held together.
class PlanServer {
 public:
  explicit PlanServer(const ServerOptions& options);
  ~PlanServer();

  PlanServer(const PlanServer&) = delete;
  PlanServer& operator=(const PlanServer&) = delete;

  /// Binds, listens, and spawns the accept/worker threads. IoError on
  /// socket failures (bad host, port in use).
  Status Start();

  /// The bound TCP port (valid after a successful Start()).
  int port() const { return bound_port_; }

  /// Flags the server for shutdown and wakes Wait()/the accept loop.
  /// Async-signal-safe: one atomic store and one pipe write.
  void RequestShutdown();

  /// Blocks until RequestShutdown() is called (signal handlers, tests).
  void Wait();

  /// Graceful shutdown: stop accepting, drain queued solves, join all
  /// threads, close all sockets. Idempotent; implies RequestShutdown().
  void Stop();

 private:
  /// One client connection. The fd is closed by the destructor, i.e.
  /// when the reader thread AND every worker still answering queued
  /// requests for it have dropped their references.
  struct Connection {
    ~Connection();
    int fd = -1;
    /// Serializes response lines (the reader writes parse errors, any
    /// worker writes solve responses).
    Mutex write_mu;
    /// Requests from this connection queued or solving right now;
    /// incremented at enqueue (under mu_), decremented after the
    /// response write. Atomic so workers decrement without mu_.
    std::atomic<int> inflight{0};
  };

  /// One queued request.
  struct Work {
    std::shared_ptr<Connection> conn;
    WireRequest request;
    std::string merge_key;
    std::chrono::steady_clock::time_point accepted_at;
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop();
  /// Answers one merge group from a single SolveBatch sweep.
  /// `queue_depth` is the depth observed at dispatch (telemetry).
  void HandleGroup(std::vector<Work> group, size_t queue_depth);
  /// Answers every request of `group` with `status`, under its own id.
  void FailGroup(const std::vector<Work>& group, const Status& status);
  /// Telemetry block attached to every success response.
  JsonValue ServeTelemetry(const ContextCache::Entry& entry,
                           bool cache_hit, size_t batch_size,
                           size_t queue_depth,
                           int64_t samples_generated) const;
  /// Answers a {"type":"health"} request (reader thread, no queueing).
  std::string HealthResponseLine(const std::string& id) const;
  /// Deterministic client back-off hint for an overload rejection at
  /// the given queue depth.
  int64_t RetryAfterMs(size_t queue_depth) const;

  /// Periodic checkpointing (own thread; wakes every
  /// checkpoint_interval_ms or on shutdown via the wake pipe).
  void CheckpointLoop();
  /// Saves every cached sample store whose size changed since its last
  /// checkpoint, then rewrites the manifest. Never throws or
  /// aborts — failures count into checkpoint_failures. Only called
  /// from the checkpoint thread and from Stop() after joining it, so
  /// checkpointed_ needs no lock.
  void CheckpointNow();
  /// Parks every decodable checkpoint in the cache under its SampleKey
  /// (ContextCache::OfferRecovered); corrupt or unreadable files are
  /// skipped. Called from Start() before the daemon goes live.
  void RecoverCheckpoints();

  void WriteLine(Connection* conn, const std::string& line);

  const ServerOptions options_;
  ContextCache cache_;

  int listen_fd_ = -1;
  int bound_port_ = 0;
  /// Self-pipe waking poll() in AcceptLoop()/Wait(); the payload is
  /// never consumed, so every poller sees it.
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> shutdown_requested_{false};
  bool started_ = false;
  bool stopped_ = false;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::thread checkpoint_thread_;

  mutable Mutex mu_;
  CondVar queue_cv_;
  std::deque<Work> queue_ OIPA_GUARDED_BY(mu_);
  bool draining_ OIPA_GUARDED_BY(mu_) = false;
  std::vector<std::shared_ptr<Connection>> conns_ OIPA_GUARDED_BY(mu_);
  std::vector<std::thread> readers_ OIPA_GUARDED_BY(mu_);
  /// Requests answered as part of a multi-request batch (telemetry).
  int64_t batched_requests_ OIPA_GUARDED_BY(mu_) = 0;

  /// Robustness telemetry, reported by {"type":"health"}. Atomics:
  /// bumped from reader/worker/checkpoint threads without mu_.
  struct Counters {
    std::atomic<int64_t> accepted{0};
    std::atomic<int64_t> rejected_queue_full{0};
    std::atomic<int64_t> rejected_inflight{0};
    std::atomic<int64_t> write_timeouts{0};
    std::atomic<int64_t> write_failures{0};
    std::atomic<int64_t> checkpoint_saves{0};
    std::atomic<int64_t> checkpoint_failures{0};
    std::atomic<int64_t> recovered_snapshots{0};
  };
  mutable Counters counters_;

  /// (in-sample theta, holdout theta) at each store's last successful
  /// checkpoint, keyed by SampleKey — unchanged stores are skipped.
  /// Single-threaded by construction (see CheckpointNow).
  std::map<std::string, std::pair<int64_t, int64_t>> checkpointed_;
};

}  // namespace serve
}  // namespace oipa

#endif  // OIPA_SERVE_SERVER_H_
