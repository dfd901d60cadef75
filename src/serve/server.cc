#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <utility>

#include "oipa/api/solver_registry.h"
#include "rrset/mrr_io.h"
#include "rrset/sample_store.h"
#include "serve/json_parser.h"
#include "util/fault_injector.h"

namespace oipa {
namespace serve {
namespace {

/// Hard cap on one request line; a client exceeding it is answered
/// with an error and disconnected (protects the daemon from unbounded
/// buffering, not a protocol limit a sane request ever hits).
constexpr size_t kMaxLineBytes = 1 << 20;

bool IsBlank(const std::string& line) {
  for (const char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

/// Checkpoint file for a sample slot: its SampleKey can be long and
/// holds filesystem-hostile characters, so the name is an FNV-1a hash
/// of it (the manifest maps names back to keys).
std::string CheckpointFileName(const std::string& sample_key) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : sample_key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "store_%016llx.oipasto",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Atomic-rename write: the manifest (and each snapshot) is either the
/// old complete file or the new complete file, never a torn one — a
/// kill -9 mid-checkpoint leaves a loadable directory.
Status WriteFileAtomically(const std::string& path,
                           const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open " + tmp + " for writing");
    out << contents;
    if (!out) {
      std::remove(tmp.c_str());
      return Status::IoError("write failure on " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename " + tmp + " -> " + path + ": " +
                           std::strerror(errno));
  }
  return Status::Ok();
}

}  // namespace

PlanServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

PlanServer::PlanServer(const ServerOptions& options)
    : options_(options),
      cache_(options.max_contexts, options.store_budget_bytes) {}

PlanServer::~PlanServer() { Stop(); }

Status ValidateServerOptions(const ServerOptions& options) {
  if (options.port < 0 || options.port > 65535) {
    return Status::InvalidArgument("port must be in [0, 65535]");
  }
  if (options.workers < 1) {
    return Status::InvalidArgument("workers must be >= 1");
  }
  if (options.max_contexts < 1) {
    return Status::InvalidArgument("max_contexts must be >= 1");
  }
  if (options.store_budget_bytes < 0) {
    return Status::InvalidArgument("store_budget_bytes must be >= 0");
  }
  if (options.max_queue_depth < 1) {
    return Status::InvalidArgument("max_queue_depth must be >= 1");
  }
  if (options.max_inflight_per_conn < 1) {
    return Status::InvalidArgument("max_inflight_per_conn must be >= 1");
  }
  if (options.write_timeout_ms < 1) {
    return Status::InvalidArgument("write_timeout_ms must be >= 1");
  }
  if (options.checkpoint_interval_ms < 1) {
    return Status::InvalidArgument("checkpoint_interval_ms must be >= 1");
  }
  return Status::Ok();
}

Status PlanServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  OIPA_RETURN_IF_ERROR(ValidateServerOptions(options_));

  if (!options_.checkpoint_dir.empty()) {
    if (::mkdir(options_.checkpoint_dir.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      return Status::IoError("mkdir " + options_.checkpoint_dir + ": " +
                             std::strerror(errno));
    }
    RecoverCheckpoints();
  }

  if (::pipe(wake_pipe_) != 0) {
    return Status::IoError("pipe: " + std::string(std::strerror(errno)));
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError("socket: " + std::string(std::strerror(errno)));
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
               sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparsable IPv4 host '" +
                                   options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::IoError("bind " + options_.host + ":" +
                           std::to_string(options_.port) + ": " +
                           std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    return Status::IoError("listen: " + std::string(std::strerror(errno)));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return Status::IoError("getsockname: " +
                           std::string(std::strerror(errno)));
  }
  bound_port_ = ntohs(bound.sin_port);

  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (!options_.checkpoint_dir.empty()) {
    checkpoint_thread_ = std::thread([this] { CheckpointLoop(); });
  }
  return Status::Ok();
}

void PlanServer::RequestShutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    // The byte is deliberately never consumed: every poll()er of the
    // read end (AcceptLoop, Wait) sees POLLIN from here on.
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void PlanServer::Wait() {
  while (!shutdown_requested_.load(std::memory_order_acquire)) {
    pollfd pfd{wake_pipe_[0], POLLIN, 0};
    ::poll(&pfd, 1, -1);  // EINTR (the signal itself) re-checks the flag
  }
}

void PlanServer::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  RequestShutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();

  // Draining: late requests from still-open connections get an error
  // response (ReaderLoop checks the flag), everything already queued is
  // solved before the workers exit.
  {
    MutexLock lock(&mu_);
    draining_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();

  // Final checkpoint after the drain: every store is at its terminal
  // size, so a graceful shutdown persists exactly what a restart needs
  // (the checkpoint thread was joined above — see CheckpointNow).
  CheckpointNow();

  // Now unblock the readers and wait for them.
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> readers;
  {
    MutexLock lock(&mu_);
    conns = conns_;
    readers = std::move(readers_);
  }
  for (const std::shared_ptr<Connection>& conn : conns) {
    ::shutdown(conn->fd, SHUT_RD);
  }
  for (std::thread& reader : readers) {
    if (reader.joinable()) reader.join();
  }
  {
    MutexLock lock(&mu_);
    conns_.clear();
  }
  conns.clear();  // last references: fds close here

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

void PlanServer::AcceptLoop() {
  while (!shutdown_requested_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0) return;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (FaultInjector::ShouldFail("serve.accept")) {
      // Simulated accept failure: the client sees an immediate close
      // and retries; the daemon carries on.
      ::close(fd);
      continue;
    }
    // Slow-client guard: a peer that stops reading can stall send()
    // for at most write_timeout_ms before WriteLine severs it.
    timeval write_timeout{};
    write_timeout.tv_sec = options_.write_timeout_ms / 1000;
    write_timeout.tv_usec = (options_.write_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &write_timeout,
                 sizeof(write_timeout));
    // Each response is one small write; Nagle's algorithm would hold it
    // while an earlier response on the connection is unacknowledged.
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    MutexLock lock(&mu_);
    if (draining_) continue;  // conn closes via its destructor
    conns_.push_back(conn);
    readers_.emplace_back([this, conn] { ReaderLoop(conn); });
  }
}

void PlanServer::ReaderLoop(std::shared_ptr<Connection> conn) {
  std::string buffer;
  char chunk[4096];
  bool alive = true;
  while (alive) {
    if (FaultInjector::ShouldFail("serve.read")) break;
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t pos = 0;
    while (alive && (pos = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (IsBlank(line)) continue;

      StatusOr<WireRequest> request = ParseWireRequest(line);
      if (!request.ok()) {
        // Malformed input never kills the daemon or the connection —
        // the client gets a structured error and may try again.
        WriteLine(conn.get(), ErrorResponseLine("", request.status()));
        continue;
      }
      if (request->type == "health") {
        // Answered right here, bypassing the work queue: health stays
        // responsive precisely when the queue is full.
        WriteLine(conn.get(), HealthResponseLine(request->id));
        continue;
      }
      // Admission control. Rejections carry error.retry_after_ms so a
      // well-behaved client backs off instead of hammering.
      Status rejection = Status::Ok();
      int64_t retry_after_ms = -1;
      {
        MutexLock lock(&mu_);
        if (draining_) {
          rejection = Status::FailedPrecondition("server is draining");
        } else if (queue_.size() >=
                   static_cast<size_t>(options_.max_queue_depth)) {
          retry_after_ms = RetryAfterMs(queue_.size());
          rejection = Status::ResourceExhausted(
              "work queue is full (" +
              std::to_string(options_.max_queue_depth) + " requests)");
          counters_.rejected_queue_full.fetch_add(
              1, std::memory_order_relaxed);
        } else if (conn->inflight.load(std::memory_order_relaxed) >=
                   options_.max_inflight_per_conn) {
          retry_after_ms = RetryAfterMs(queue_.size());
          rejection = Status::ResourceExhausted(
              "connection has " +
              std::to_string(options_.max_inflight_per_conn) +
              " requests in flight");
          counters_.rejected_inflight.fetch_add(1,
                                                std::memory_order_relaxed);
        } else {
          Work work;
          work.conn = conn;
          work.merge_key = MergeKey(*request);
          work.request = std::move(*request);
          work.accepted_at = std::chrono::steady_clock::now();
          queue_.push_back(std::move(work));
          conn->inflight.fetch_add(1, std::memory_order_relaxed);
          counters_.accepted.fetch_add(1, std::memory_order_relaxed);
          queue_cv_.NotifyOne();
        }
      }
      if (!rejection.ok()) {
        WriteLine(conn.get(), ErrorResponseLine(request->id, rejection,
                                                retry_after_ms));
      }
    }
    if (buffer.size() > kMaxLineBytes) {
      WriteLine(conn.get(),
                ErrorResponseLine(
                    "", Status::InvalidArgument(
                            "request line exceeds 1 MiB; disconnecting")));
      alive = false;
    }
  }
  MutexLock lock(&mu_);
  conns_.erase(std::remove(conns_.begin(), conns_.end(), conn),
               conns_.end());
}

void PlanServer::WorkerLoop() {
  while (true) {
    std::vector<Work> group;
    size_t queue_depth = 0;
    {
      MutexLock lock(&mu_);
      while (queue_.empty() && !draining_) queue_cv_.Wait(&mu_);
      if (queue_.empty()) return;  // draining and nothing left
      queue_depth = queue_.size();
      group.push_back(std::move(queue_.front()));
      queue_.pop_front();
      // Claim every queued batch-compatible request: same context,
      // same solver profile, no deadline (see wire.h MergeKey).
      // Copied, not referenced: push_back below reallocates `group`.
      const std::string key = group.front().merge_key;
      if (!key.empty()) {
        for (auto it = queue_.begin(); it != queue_.end();) {
          if (it->merge_key == key) {
            group.push_back(std::move(*it));
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
      }
      if (group.size() > 1) {
        batched_requests_ += static_cast<int64_t>(group.size());
      }
    }
    HandleGroup(std::move(group), queue_depth);
  }
}

void PlanServer::FailGroup(const std::vector<Work>& group,
                           const Status& status) {
  for (const Work& work : group) {
    WriteLine(work.conn.get(), ErrorResponseLine(work.request.id, status));
    work.conn->inflight.fetch_sub(1, std::memory_order_relaxed);
  }
}

void PlanServer::HandleGroup(std::vector<Work> group,
                             size_t queue_depth) {
  // The whole group shares one ContextKey(); acquire with the largest
  // theta seen so every member's samples are covered by one store.
  WireRequest spec = group.front().request;
  for (const Work& work : group) {
    spec.sampling.theta =
        std::max(spec.sampling.theta, work.request.sampling.theta);
  }
  // An unknown solver builds no context (the merge key names the
  // method, so the whole group shares it).
  if (const StatusOr<const Solver*> solver =
          SolverRegistry::Global().Find(spec.plan.method);
      !solver.ok()) {
    FailGroup(group, solver.status());
    return;
  }
  // Only what this group's own context build and growth draw: other
  // workers may sample at the same time.
  bool cache_hit = false;
  int64_t samples_generated = 0;
  StatusOr<std::shared_ptr<const ContextCache::Entry>> acquired =
      cache_.Acquire(spec, &cache_hit, &samples_generated);
  if (!acquired.ok()) {
    FailGroup(group, acquired.status());
    return;
  }
  std::shared_ptr<const ContextCache::Entry> entry = std::move(*acquired);

  // Merge the group's budget lists into one deduplicated sweep.
  std::vector<int> budgets;
  for (const Work& work : group) {
    for (const int k : work.request.plan.budgets) {
      if (std::find(budgets.begin(), budgets.end(), k) == budgets.end()) {
        budgets.push_back(k);
      }
    }
  }
  std::sort(budgets.begin(), budgets.end());

  PlanRequest plan_request = ToPlanRequest(spec, entry->pool);
  plan_request.budgets = std::move(budgets);
  if (spec.plan.deadline_ms.has_value()) {
    // The deadline runs from enqueue: queue wait has already consumed
    // part of it. An exhausted budget still dispatches with 1 ms left —
    // the solver is cancelled at its first progress poll, which yields
    // the partial-telemetry response the contract promises.
    const int64_t elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - group.front().accepted_at)
            .count();
    plan_request.deadline_ms =
        std::max<int64_t>(1, *spec.plan.deadline_ms - elapsed);
  }

  const StatusOr<std::vector<PlanResponse>> responses =
      SolveBatch(*entry->context, plan_request);
  if (!responses.ok()) {
    FailGroup(group, responses.status());
    return;
  }
  std::map<int, const PlanResponse*> by_budget;
  for (const PlanResponse& response : *responses) {
    by_budget[response.budget] = &response;
    samples_generated += response.samples_drawn;
  }
  // Render every response first, then drop this worker's context
  // reference BEFORE writing: once a client has read its answer, this
  // worker keeps no evicted context's store alive.
  std::vector<std::string> lines;
  lines.reserve(group.size());
  for (const Work& work : group) {
    JsonValue results = JsonValue::Array();
    bool cancelled = false;
    for (const int k : work.request.plan.budgets) {
      const auto it = by_budget.find(k);
      if (it == by_budget.end()) continue;  // cannot happen; be safe
      cancelled = cancelled || it->second->cancelled;
      results.Append(ResultJson(*it->second));
    }
    lines.push_back(
        OkResponseLine(work.request.id, std::move(results), cancelled,
                       ServeTelemetry(*entry, cache_hit, group.size(),
                                      queue_depth, samples_generated)));
  }
  entry.reset();
  for (size_t i = 0; i < group.size(); ++i) {
    WriteLine(group[i].conn.get(), lines[i]);
    group[i].conn->inflight.fetch_sub(1, std::memory_order_relaxed);
  }
}

JsonValue PlanServer::ServeTelemetry(const ContextCache::Entry& entry,
                                     bool cache_hit, size_t batch_size,
                                     size_t queue_depth,
                                     int64_t samples_generated) const {
  JsonValue serve = JsonValue::Object();
  serve.Set("cache_hit", cache_hit)
      .Set("batch_size", static_cast<int64_t>(batch_size))
      .Set("queue_depth", static_cast<int64_t>(queue_depth))
      .Set("samples_generated", samples_generated);
  {
    MutexLock lock(&mu_);
    serve.Set("batched_requests", batched_requests_);
  }

  const ContextCache::Stats cache = cache_.GetStats();
  serve.Set("context_cache", ContextCacheJson(cache))
      .Set("store", StoreJson(entry.context->sample_store().GetStats()))
      .Set("store_registry", StoreRegistryJson(cache));
  return serve;
}

std::string PlanServer::HealthResponseLine(const std::string& id) const {
  JsonValue health = JsonValue::Object();
  {
    MutexLock lock(&mu_);
    health.Set("queue_depth", static_cast<int64_t>(queue_.size()))
        .Set("draining", draining_)
        .Set("batched_requests", batched_requests_);
  }
  health.Set("workers", static_cast<int64_t>(options_.workers))
      .Set("max_queue_depth",
           static_cast<int64_t>(options_.max_queue_depth))
      .Set("accepted", counters_.accepted.load(std::memory_order_relaxed))
      .Set("rejected_queue_full",
           counters_.rejected_queue_full.load(std::memory_order_relaxed))
      .Set("rejected_inflight",
           counters_.rejected_inflight.load(std::memory_order_relaxed))
      .Set("write_timeouts",
           counters_.write_timeouts.load(std::memory_order_relaxed))
      .Set("write_failures",
           counters_.write_failures.load(std::memory_order_relaxed))
      .Set("checkpoint_saves",
           counters_.checkpoint_saves.load(std::memory_order_relaxed))
      .Set("checkpoint_failures",
           counters_.checkpoint_failures.load(std::memory_order_relaxed))
      .Set("recovered_snapshots",
           counters_.recovered_snapshots.load(std::memory_order_relaxed))
      .Set("faults_injected", FaultInjector::InjectedCount());

  const ContextCache::Stats cache = cache_.GetStats();
  health.Set("context_cache", ContextCacheJson(cache))
      .Set("store_registry", StoreRegistryJson(cache));

  JsonValue j = JsonValue::Object();
  j.Set("id", id).Set("ok", true).Set("health", std::move(health));
  return j.Dump(-1);
}

int64_t PlanServer::RetryAfterMs(size_t queue_depth) const {
  // Deterministic, roughly proportional to the backlog per worker: a
  // queue of one per worker suggests ~50 ms, deeper backlogs scale up.
  // Clients add their own jitter (see serve/client.h) so a fixed hint
  // does not synchronize retries.
  const int64_t per_worker = static_cast<int64_t>(queue_depth) /
                             std::max(1, options_.workers);
  return std::min<int64_t>(2000, 25 * (1 + per_worker));
}

void PlanServer::WriteLine(Connection* conn, const std::string& line) {
  const std::string framed = line + "\n";
  MutexLock lock(&conn->write_mu);
  if (FaultInjector::ShouldFail("serve.write")) {
    // Simulated undeliverable response: sever the connection so the
    // client observes a clean drop (and retries) rather than a torn or
    // silently missing line on a live socket.
    counters_.write_failures.fetch_add(1, std::memory_order_relaxed);
    ::shutdown(conn->fd, SHUT_RDWR);
    return;
  }
  size_t sent = 0;
  while (sent < framed.size()) {
    // MSG_NOSIGNAL: a client that hung up must not SIGPIPE the daemon.
    const ssize_t n = ::send(conn->fd, framed.data() + sent,
                             framed.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      // SO_SNDTIMEO expiry surfaces as EAGAIN: the peer stopped reading
      // for write_timeout_ms. Either way the line cannot be completed —
      // sever the connection instead of pinning this worker on it (a
      // partial response is useless to the client anyway).
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        counters_.write_timeouts.fetch_add(1, std::memory_order_relaxed);
      }
      counters_.write_failures.fetch_add(1, std::memory_order_relaxed);
      ::shutdown(conn->fd, SHUT_RDWR);
      return;
    }
    sent += static_cast<size_t>(n);
  }
}

void PlanServer::CheckpointLoop() {
  // oipa::CondVar has no timed wait, so the loop polls the wake pipe
  // with the interval as timeout: shutdown (which writes a never-
  // consumed byte) wakes it immediately, otherwise it ticks on time.
  while (!shutdown_requested_.load(std::memory_order_acquire)) {
    pollfd pfd{wake_pipe_[0], POLLIN, 0};
    const int rc = ::poll(&pfd, 1, options_.checkpoint_interval_ms);
    if (rc < 0 && errno != EINTR) return;
    if (shutdown_requested_.load(std::memory_order_acquire)) return;
    if (rc == 0) CheckpointNow();  // interval elapsed
  }
}

void PlanServer::CheckpointNow() {
  if (options_.checkpoint_dir.empty()) return;
  bool manifest_dirty = false;
  // The cache's slots as contexts, never bare stores: a context keeps
  // the graph its store's piece graphs alias alive while it is saved.
  for (const auto& [key, context] : cache_.Slots()) {
    const SampleSnapshot snap = context->samples();
    const std::pair<int64_t, int64_t> sizes = {snap.mrr->theta(),
                                               snap.holdout_theta};
    const auto it = checkpointed_.find(key);
    if (it != checkpointed_.end() && it->second == sizes) continue;

    const std::string path =
        options_.checkpoint_dir + "/" + CheckpointFileName(key);
    // SaveSampleStore writes in place, so land on a temp name and
    // rename — a crash mid-save never corrupts the previous snapshot.
    const std::string tmp = path + ".tmp";
    Status saved = SaveSampleStore(context->sample_store(), tmp);
    if (saved.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
      saved = Status::IoError("rename " + tmp + ": " +
                              std::strerror(errno));
    }
    if (!saved.ok()) {
      std::remove(tmp.c_str());
      counters_.checkpoint_failures.fetch_add(1,
                                              std::memory_order_relaxed);
      continue;
    }
    counters_.checkpoint_saves.fetch_add(1, std::memory_order_relaxed);
    manifest_dirty = manifest_dirty || it == checkpointed_.end();
    checkpointed_[key] = sizes;
  }
  if (!manifest_dirty) return;

  // The manifest maps snapshot files back to their source keys (the
  // file names are hashes). Written last: every file it references
  // already exists.
  JsonValue stores = JsonValue::Array();
  for (const auto& [key, sizes] : checkpointed_) {
    JsonValue row = JsonValue::Object();
    row.Set("file", CheckpointFileName(key)).Set("source_key", key);
    stores.Append(std::move(row));
  }
  JsonValue manifest = JsonValue::Object();
  manifest.Set("stores", std::move(stores));
  const Status wrote = WriteFileAtomically(
      options_.checkpoint_dir + "/manifest.json", manifest.Dump(2));
  if (!wrote.ok()) {
    counters_.checkpoint_failures.fetch_add(1, std::memory_order_relaxed);
  }
}

void PlanServer::RecoverCheckpoints() {
  std::string manifest_text;
  {
    std::ifstream in(options_.checkpoint_dir + "/manifest.json",
                     std::ios::binary);
    if (!in) return;  // no manifest: nothing to recover
    manifest_text.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
  }
  const StatusOr<JsonValue> manifest = ParseJson(manifest_text);
  if (!manifest.ok() || !manifest->is_object()) return;
  const JsonValue* stores = manifest->Find("stores");
  if (stores == nullptr || !stores->is_array()) return;

  for (size_t i = 0; i < stores->size(); ++i) {
    const JsonValue& row = stores->at(i);
    if (!row.is_object()) continue;
    const JsonValue* file = row.Find("file");
    const JsonValue* key = row.Find("source_key");
    if (file == nullptr || !file->is_string() || key == nullptr ||
        !key->is_string()) {
      continue;
    }
    // Loaded frozen (no piece graphs yet); the parked snapshot becomes
    // growable when the cache builds the slot around its own pieces.
    StatusOr<std::shared_ptr<SampleStore>> loaded =
        LoadSampleStore(options_.checkpoint_dir + "/" +
                        file->string_value());
    if (!loaded.ok()) continue;  // corrupt/unreadable: skip, resample
    const SampleSnapshot snap = (*loaded)->snapshot();
    cache_.OfferRecovered(key->string_value(), snap);
    counters_.recovered_snapshots.fetch_add(1, std::memory_order_relaxed);
    checkpointed_[key->string_value()] = {snap.mrr->theta(),
                                          snap.holdout_theta};
  }
}

}  // namespace serve
}  // namespace oipa
