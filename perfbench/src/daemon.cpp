#include "daemon.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hpp"
#include "voprof/serve/socket.hpp"
#include "voprof/util/numeric.hpp"

namespace perfbench {

namespace {

/// First whitespace-separated number of a file; 0 when unreadable.
std::int64_t first_number(const std::string& path) {
  std::ifstream in(path);
  std::int64_t value = 0;
  in >> value;
  return in ? value : 0;
}

/// utime + stime of a process from /proc/<pid>/stat, in nanoseconds.
std::int64_t stat_cpu_ns(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  long long utime = 0;
  long long stime = 0;
  // Fields after the command: state is field 3, utime 14, stime 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stoll(field);
    if (i == 15) stime = std::stoll(field);
  }
  const long ticks = ::sysconf(_SC_CLK_TCK);
  return ticks > 0 ? (utime + stime) * (kNsPerS / ticks) : 0;
}

}  // namespace

DaemonProcess::DaemonProcess(const DaemonArgs& args) : socket_(args.socket) {
  std::vector<std::string> argv_text = {
      args.binary,
      "--socket",
      args.socket,
      "--jobs",
      std::to_string(args.jobs),
      "--queue-capacity",
      std::to_string(args.queue_capacity),
      "--train-duration",
      voprof::util::format_double(args.train_duration_s),
      "--seed",
      std::to_string(args.seed)};
  if (!args.metrics_out.empty()) {
    argv_text.push_back("--metrics-out");
    argv_text.push_back(args.metrics_out);
  }
  if (!args.trace_out.empty()) {
    argv_text.push_back("--trace-out");
    argv_text.push_back(args.trace_out);
  }
  std::vector<char*> argv;
  for (std::string& arg : argv_text) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const int log_fd = ::open(args.log.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    throw std::runtime_error("cannot open " + args.log + ": " +
                             std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  const int fork_errno = errno;
  ::close(log_fd);
  if (pid < 0) {
    throw std::runtime_error(std::string("fork: ") + std::strerror(fork_errno));
  }
  pid_ = pid;
}

DaemonProcess::~DaemonProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

bool DaemonProcess::wait_ready(std::int64_t timeout_ns) {
  const std::int64_t deadline = now_ns() + timeout_ns;
  while (now_ns() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    if (voprof::serve::connect_unix(socket_).ok()) return true;
    sleep_ns(kNsPerMs);
  }
  return false;
}

bool DaemonProcess::stop(std::int64_t timeout_ns) {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  const std::int64_t deadline = now_ns() + timeout_ns;
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    if (r < 0 && errno != EINTR) {
      pid_ = -1;
      return false;
    }
    if (now_ns() >= deadline) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
      return false;
    }
    sleep_ns(kNsPerMs);
  }
}

double DaemonProcess::peak_rss_mib() const {
  return peak_rss_mib_of(std::to_string(pid_));
}

std::int64_t DaemonProcess::cpu_ns() const {
  // Per-thread schedstat counts nanoseconds; fall back to the clock
  // ticks of /proc/<pid>/stat where the kernel does not provide it.
  std::int64_t total = 0;
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid_) + "/task", ec)) {
    total += first_number(task.path().string() + "/schedstat");
  }
  return total > 0 ? total : stat_cpu_ns(pid_);
}

double peak_rss_mib_of(const std::string& proc_entry) {
  std::ifstream in("/proc/" + proc_entry + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
