#pragma once
/// \file daemon.hpp
/// voprofd as a child process of the benchmark: spawn, readiness,
/// graceful stop, and the /proc readings the serve workloads report
/// (peak resident set and CPU time).

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

struct DaemonArgs {
  std::string binary;                   ///< path of voprofd
  std::string socket = "voprofd.sock";  ///< relative to the working dir
  int jobs = 2;
  int queue_capacity = 64;
  double train_duration_s = 30.0;
  int seed = 1;
  std::string metrics_out;  ///< --metrics-out file; empty = none
  std::string trace_out;    ///< --trace-out file; empty = none
  std::string log = "voprofd.log";
};

/// One voprofd process, started in the current working directory.
class DaemonProcess {
 public:
  /// Fork and exec; throws std::runtime_error when that fails.
  explicit DaemonProcess(const DaemonArgs& args);
  /// Kills (SIGKILL) and reaps a daemon that is still running.
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Wait until the socket accepts connections; false on timeout or exit.
  [[nodiscard]] bool wait_ready(std::int64_t timeout_ns);
  /// SIGTERM (graceful drain) and reap, SIGKILL after the timeout. True
  /// when the daemon exited with status 0 in time.
  bool stop(std::int64_t timeout_ns);

  /// Peak resident set (VmHWM) in MiB.
  [[nodiscard]] double peak_rss_mib() const;
  /// CPU time of all its threads in nanoseconds.
  [[nodiscard]] std::int64_t cpu_ns() const;

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

/// VmHWM of /proc/<entry> ("self" or a pid) in MiB; 0 when unreadable.
[[nodiscard]] double peak_rss_mib_of(const std::string& proc_entry);

}  // namespace perfbench
