#include "daemon_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

namespace oipa {
namespace e2e {
namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// Waits for `pid` to exit for up to `timeout_ms`; true when reaped.
bool WaitExit(pid_t pid, int timeout_ms, int* status) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const pid_t r = ::waitpid(pid, status, WNOHANG);
    if (r == pid || (r < 0 && errno != EINTR)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

StatusOr<std::unique_ptr<DaemonProcess>> DaemonProcess::Spawn(
    const std::vector<std::string>& argv) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) return Errno("pipe");
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out[0]);
    ::close(out[1]);
    return Errno("fork");
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out[1], STDOUT_FILENO);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(out[1]);
  std::unique_ptr<DaemonProcess> daemon(new DaemonProcess());
  daemon->pid_ = pid;
  daemon->stdout_fd_ = out[0];

  // "oipa_serve listening on 127.0.0.1:PORT"
  std::string text;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (text.find('\n') == std::string::npos) {
    const int left = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count());
    pollfd pfd{out[0], POLLIN, 0};
    if (left <= 0 || ::poll(&pfd, 1, left) <= 0) {
      return Status::DeadlineExceeded("daemon did not report listening");
    }
    char chunk[256];
    const ssize_t n = ::read(out[0], chunk, sizeof(chunk));
    if (n <= 0) return Status::IoError("daemon exited before listening");
    text.append(chunk, static_cast<size_t>(n));
  }
  const size_t colon = text.rfind(':', text.find('\n'));
  if (text.find("listening on") == std::string::npos ||
      colon == std::string::npos) {
    return Status::IoError("unexpected daemon banner: " + text);
  }
  daemon->port_ = std::atoi(text.c_str() + colon + 1);
  return daemon;
}

DaemonProcess::~DaemonProcess() { Stop(); }

Status DaemonProcess::Stop() {
  if (pid_ < 0) return Status::Ok();
  const pid_t pid = pid_;
  pid_ = -1;
  int status = 0;
  bool killed = false;
  ::kill(pid, SIGTERM);
  if (!WaitExit(pid, 10'000, &status)) {
    ::kill(pid, SIGKILL);
    WaitExit(pid, 10'000, &status);
    killed = true;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  if (killed) return Status::Internal("daemon ignored SIGTERM; killed");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("daemon exited abnormally");
  }
  return Status::Ok();
}

StatusOr<double> DaemonProcess::CpuMs() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return Status::IoError("bad /proc stat");
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

StatusOr<double> DaemonProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return Status::IoError("no VmHWM in /proc status");
}

StatusOr<std::unique_ptr<LineConnection>> LineConnection::Connect(
    int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  std::unique_ptr<LineConnection> conn(new LineConnection(fd));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("connect");
  }
  // Requests are single small lines; do not hold them back for
  // coalescing.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return conn;
}

LineConnection::~LineConnection() {
  if (fd_ >= 0) ::close(fd_);
}

Status LineConnection::WriteLine(const std::string& line) {
  const std::string framed = line + "\n";
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Errno("send");
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

StatusOr<std::string> LineConnection::ReadLine(int timeout_ms) {
  for (;;) {
    const size_t pos = buffer_.find('\n');
    if (pos != std::string::npos) {
      std::string line = buffer_.substr(0, pos);
      buffer_.erase(0, pos + 1);
      return line;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return Status::DeadlineExceeded("no response from daemon");
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Errno("recv");
    if (n == 0) return Status::IoError("daemon closed the connection");
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace e2e
}  // namespace oipa
