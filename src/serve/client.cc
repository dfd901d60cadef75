#include "serve/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "serve/json_parser.h"
#include "util/random.h"

namespace oipa {
namespace serve {
namespace {

/// Closes the fd on every exit path.
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;
  ~FdCloser() { ::close(fd_); }

 private:
  const int fd_;
};

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// One connect+send+read attempt under the option timeouts. Transport
/// failures come back as IoError, expired budgets as DeadlineExceeded;
/// the retry loop below distinguishes the retryable codes.
StatusOr<std::string> AttemptOnce(const std::string& host, int port,
                                  const std::string& framed,
                                  const ClientOptions& options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(Errno("socket"));
  FdCloser closer(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparsable IPv4 host '" + host + "'");
  }

  const std::string peer = host + ":" + std::to_string(port);
  // Non-blocking connect + poll: a dead or unreachable daemon costs at
  // most connect_timeout_ms, never the kernel's multi-minute default.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      return Status::IoError(Errno("connect " + peer));
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, options.connect_timeout_ms);
    if (ready == 0) {
      return Status::DeadlineExceeded(
          "connect " + peer + " timed out after " +
          std::to_string(options.connect_timeout_ms) + " ms");
    }
    if (ready < 0) return Status::IoError(Errno("poll"));
    int err = 0;
    socklen_t err_len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
    if (err != 0) {
      return Status::IoError("connect " + peer + ": " +
                             std::strerror(err));
    }
  }
  ::fcntl(fd, F_SETFL, flags);

  // The read budget bounds each recv() — a silent daemon surfaces as
  // DeadlineExceeded instead of hanging the caller forever. A daemon
  // still streaming keeps resetting the clock, so long solves are fine.
  timeval io_timeout{};
  io_timeout.tv_sec = options.read_timeout_ms / 1000;
  io_timeout.tv_usec = (options.read_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &io_timeout,
               sizeof(io_timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &io_timeout,
               sizeof(io_timeout));
  // The request goes out as one small write; do not let Nagle delay it.
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));

  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd, framed.data() + sent,
                             framed.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return Status::DeadlineExceeded("send to " + peer +
                                        " timed out");
      }
      return Status::IoError(Errno("send"));
    }
    sent += static_cast<size_t>(n);
  }

  std::string buffer;
  char chunk[4096];
  while (true) {
    const size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      buffer.resize(newline);
      return buffer;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded(
            "no response from " + peer + " within " +
            std::to_string(options.read_timeout_ms) + " ms");
      }
      return Status::IoError(Errno("recv"));
    }
    if (n == 0) {
      return Status::IoError(
          "connection closed before a full response line");
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

/// Recognizes the daemon's structured overload rejection. Pulls out
/// error.retry_after_ms (left untouched when absent) and the message.
bool IsOverloadRejection(const std::string& line, int64_t* retry_after_ms,
                         std::string* message) {
  const StatusOr<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok() || !parsed->is_object()) return false;
  const JsonValue* ok = parsed->Find("ok");
  if (ok == nullptr || !ok->is_bool() || ok->bool_value()) return false;
  const JsonValue* error = parsed->Find("error");
  if (error == nullptr || !error->is_object()) return false;
  const JsonValue* code = error->Find("code");
  if (code == nullptr || !code->is_string() ||
      code->string_value() != "resource_exhausted") {
    return false;
  }
  const JsonValue* retry = error->Find("retry_after_ms");
  if (retry != nullptr && retry->is_number()) {
    *retry_after_ms = retry->int_value();
  }
  const JsonValue* msg = error->Find("message");
  if (msg != nullptr && msg->is_string()) *message = msg->string_value();
  return true;
}

bool IsRetryableTransportError(const Status& status) {
  return status.code() == StatusCode::kIoError ||
         status.code() == StatusCode::kDeadlineExceeded;
}

}  // namespace

StatusOr<std::string> RequestOverTcp(const std::string& host, int port,
                                     const std::string& line,
                                     const ClientOptions& options) {
  const std::string framed = line + "\n";
  const int attempts = 1 + std::max(0, options.retries);
  Rng rng(options.jitter_seed);
  Status last_error = Status::IoError("no attempt was made");

  for (int attempt = 0; attempt < attempts; ++attempt) {
    int64_t retry_after_ms = -1;
    StatusOr<std::string> response =
        AttemptOnce(host, port, framed, options);
    if (response.ok()) {
      std::string rejection_message = "server overloaded";
      if (!IsOverloadRejection(*response, &retry_after_ms,
                               &rejection_message)) {
        // Any other response — success or structured error — IS the
        // answer; retrying would just repeat it.
        return response;
      }
      last_error = Status::ResourceExhausted(
          rejection_message + " (after " + std::to_string(attempt + 1) +
          " attempt(s))");
    } else {
      if (!IsRetryableTransportError(response.status())) {
        return response.status();
      }
      last_error = response.status();
    }
    if (attempt + 1 == attempts) break;

    // Exponential back-off with seeded jitter; an explicit server hint
    // (retry_after_ms) replaces the exponential base but still gets
    // jitter so synchronized clients do not re-stampede in lockstep.
    int64_t base_ms =
        retry_after_ms >= 0
            ? retry_after_ms
            : std::min<int64_t>(
                  options.backoff_max_ms,
                  static_cast<int64_t>(options.backoff_initial_ms)
                      << std::min(attempt, 20));
    base_ms = std::max<int64_t>(1, base_ms);
    const auto wait_ms = static_cast<int64_t>(
        static_cast<double>(base_ms) * (0.5 + 0.5 * rng.NextDouble()));
    std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
  }
  return last_error;
}

StatusOr<std::string> RequestOverTcp(const std::string& host, int port,
                                     const std::string& line) {
  return RequestOverTcp(host, port, line, ClientOptions());
}

}  // namespace serve
}  // namespace oipa
