#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "server/serve.hpp"

namespace perfbench {

namespace {

/// fork + exec with stdout to `out_fd` (or /dev/null when -1) and stderr
/// to `err_fd`. Only async-signal-safe calls run between fork and exec.
pid_t spawn(const std::vector<std::string>& argv, int out_fd, int err_fd) {
  std::vector<char*> args;
  for (const std::string& a : argv)
    args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int null_fd = ::open("/dev/null", O_RDWR);
    ::dup2(null_fd, 0);
    ::dup2(out_fd >= 0 ? out_fd : null_fd, 1);
    ::dup2(err_fd, 2);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  return pid;
}

int wait_exit(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

std::string join(const std::vector<std::string>& argv) {
  std::string s;
  for (const std::string& a : argv) s += (s.empty() ? "" : " ") + a;
  return s;
}

}  // namespace

std::string run_tool(const std::vector<std::string>& argv,
                     const std::string& log_path) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    ::close(out[0]);
    ::close(out[1]);
    throw std::runtime_error("cannot open " + log_path);
  }
  pid_t pid = -1;
  try {
    pid = spawn(argv, out[1], log_fd);
  } catch (...) {
    ::close(out[0]);
    ::close(out[1]);
    ::close(log_fd);
    throw;
  }
  ::close(out[1]);
  ::close(log_fd);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(out[0], buf, sizeof buf);
    if (n > 0) text.append(buf, static_cast<std::size_t>(n));
    else if (n == 0 || errno != EINTR) break;
  }
  ::close(out[0]);
  const int status = wait_exit(pid);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("'" + join(argv) + "' failed (see " + log_path +
                             ")");
  return text;
}

double process_cpu_ms(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesized command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos)
    throw std::runtime_error("cannot read /proc/<pid>/stat");
  std::istringstream fields(line.substr(close + 2));
  std::string f;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> f; ++i) {
    if (i == 14) utime = std::stoull(f);
    if (i == 15) stime = std::stoull(f);
  }
  return 1000.0 * static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double process_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/<pid>/status");
}

Daemon::Daemon(const std::vector<std::string>& argv,
               const std::string& log_path) {
  int err[2];
  if (::pipe2(err, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  try {
    pid_ = spawn(argv, -1, err[1]);
  } catch (...) {
    ::close(err[0]);
    ::close(err[1]);
    throw;
  }
  ::close(err[1]);
  err_fd_ = err[0];

  try {
    auto log = std::make_shared<std::ofstream>(log_path);
    std::string pending;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    const std::string marker = "listening on 127.0.0.1:";
    while (port_ == 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      pollfd pfd{err_fd_, POLLIN, 0};
      char buf[4096];
      ssize_t n = -1;
      if (left.count() > 0 &&
          ::poll(&pfd, 1, static_cast<int>(left.count())) > 0)
        n = ::read(err_fd_, buf, sizeof buf);
      if (n <= 0)
        throw std::runtime_error("daemon did not start (see " + log_path + ")");
      pending.append(buf, static_cast<std::size_t>(n));
      log->write(buf, n);
      const std::size_t at = pending.find(marker);
      if (at != std::string::npos &&
          pending.find('\n', at) != std::string::npos)
        port_ = static_cast<std::uint16_t>(
            std::stoul(pending.substr(at + marker.size())));
    }
    log->flush();
    drain_ = std::thread([fd = err_fd_, log] {
      char buf[4096];
      for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n > 0) log->write(buf, n);
        else if (n == 0 || errno != EINTR) break;
      }
    });
  } catch (...) {
    stop(0);  // the destructor will not run for a throwing constructor
    throw;
  }
}

Daemon::~Daemon() { stop(); }

void Daemon::stop(int grace_ms) {
  if (pid_ > 0) {
    if (port_ != 0 && grace_ms > 0) {
      try {
        mdd::server::TcpLineClient client("127.0.0.1", port_, 1000);
        client.roundtrip("{\"op\":\"shutdown\"}");
      } catch (const std::exception&) {
        // Already gone or wedged: the kill below settles it.
      }
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(grace_ms);
    int status = 0;
    pid_t got = 0;
    while ((got = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (got == 0) {
      ::kill(pid_, SIGKILL);
      wait_exit(pid_);
    }
    pid_ = -1;
  }
  if (drain_.joinable()) drain_.join();
  if (err_fd_ >= 0) {
    ::close(err_fd_);
    err_fd_ = -1;
  }
}

}  // namespace perfbench
