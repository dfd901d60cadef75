#ifndef OIPA_BENCH_E2E_DAEMON_CLIENT_H_
#define OIPA_BENCH_E2E_DAEMON_CLIENT_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace oipa {
namespace e2e {

/// A spawned oipa_serve process. The destructor stops it (SIGTERM, then
/// SIGKILL if it has not exited within a few seconds) and reaps it; the
/// child also gets SIGTERM if the benchmark process dies first.
class DaemonProcess {
 public:
  /// Starts `argv[0]` with the given arguments and waits (up to 30 s)
  /// for its "listening on host:port" line.
  static StatusOr<std::unique_ptr<DaemonProcess>> Spawn(
      const std::vector<std::string>& argv);

  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  int port() const { return port_; }

  /// User plus system CPU time of the whole process, in milliseconds
  /// (/proc/<pid>/stat).
  StatusOr<double> CpuMs() const;

  /// Peak resident set size (VmHWM of /proc/<pid>/status), in MB.
  StatusOr<double> PeakRssMb() const;

  /// Graceful stop; idempotent. Error when the daemon had to be killed
  /// or exited non-zero.
  Status Stop();

 private:
  DaemonProcess() = default;

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

/// A blocking, newline-framed TCP connection to the daemon on loopback.
class LineConnection {
 public:
  static StatusOr<std::unique_ptr<LineConnection>> Connect(int port);

  ~LineConnection();
  LineConnection(const LineConnection&) = delete;
  LineConnection& operator=(const LineConnection&) = delete;

  /// Sends `line` plus the newline.
  Status WriteLine(const std::string& line);

  /// Returns the next response line (without the newline).
  /// DeadlineExceeded when nothing arrives for `timeout_ms`.
  StatusOr<std::string> ReadLine(int timeout_ms);

 private:
  explicit LineConnection(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string buffer_;
};

}  // namespace e2e
}  // namespace oipa

#endif  // OIPA_BENCH_E2E_DAEMON_CLIENT_H_
