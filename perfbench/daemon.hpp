// Child processes of the benchmark: the openmdd_serve daemon under test
// and one-shot tool runs (`openmdd version`, `openmdd dict build`).
//
// Every child is started with PR_SET_PDEATHSIG, so it dies with the
// benchmark, and every Daemon is reaped by its destructor (shutdown op,
// then SIGKILL after a grace period), so a failing run leaves nothing
// behind.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Runs `argv` to completion; returns its stdout. Throws on a nonzero
/// exit or a failed spawn. stderr goes to `log_path`.
std::string run_tool(const std::vector<std::string>& argv,
                     const std::string& log_path);

/// utime + stime of `pid` in milliseconds, from /proc/<pid>/stat.
double process_cpu_ms(pid_t pid);
/// VmHWM (peak resident set) of `pid` in MiB, from /proc/<pid>/status.
double process_peak_rss_mb(pid_t pid);

class Daemon {
 public:
  /// Spawns `argv` (which must include `--port 0`) and waits until the
  /// daemon reports its listening port on stderr. stderr is copied to
  /// `log_path`.
  Daemon(const std::vector<std::string>& argv, const std::string& log_path);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

  /// Asks the daemon to drain and exit, then waits for it; SIGKILL after
  /// `grace_ms`. Idempotent.
  void stop(int grace_ms = 5000);

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  int err_fd_ = -1;
  std::thread drain_;  ///< copies the rest of stderr into the log
};

}  // namespace perfbench
