#include "server/serve.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <istream>
#include <list>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "obs/metrics.hpp"

namespace mdd::server {

namespace {

struct ServeMetrics {
  obs::Counter& connections =
      obs::registry().counter("server.connections");
  /// Failed response writes (client hung up mid-request). These used to
  /// be swallowed silently; now each one is counted and logged.
  obs::Counter& connection_errors =
      obs::registry().counter("server.connection_errors");
  obs::Counter& parse_errors = obs::registry().counter("server.parse_errors");
  /// Writes that hit a full socket buffer and had to wait for POLLOUT —
  /// a slow reader behind a multi-KB response (streamed batches, big
  /// reports). Waiting is fine; only a stall past the write deadline
  /// fails the connection.
  obs::Counter& write_stalls = obs::registry().counter("server.write_stalls");
  /// Connections closed for a request line past kMaxRequestLineBytes.
  obs::Counter& line_too_long =
      obs::registry().counter("server.line_too_long");
};

ServeMetrics& serve_metrics() {
  static ServeMetrics m;
  return m;
}

bool blank(const std::string& line) {
  for (const char c : line)
    if (c != ' ' && c != '\t' && c != '\r') return false;
  return true;
}

/// Tracks in-flight requests so shutdown/EOF can drain before returning.
class Outstanding {
 public:
  void add() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++count_;
  }
  void done() {
    // Notify under the lock: wait_idle()'s waker may destroy this object
    // the moment it returns, so the last touch here must happen before
    // the waiter can reacquire the mutex.
    std::lock_guard<std::mutex> lock(mutex_);
    --count_;
    idle_.notify_all();
  }
  void wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return count_ == 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable idle_;
  std::size_t count_ = 0;
};

Json parse_error_response(const std::string& what) {
  Json r;
  r.set("status", "error");
  r.set("error", what);
  return r;
}

/// How long one response write may make zero progress before the
/// connection is declared dead. Generous: a scraper or batch client that
/// stops reading for 30s has effectively hung up.
constexpr int kWriteStallTimeoutMs = 30000;

// MSG_NOSIGNAL: a client that disconnects mid-response must surface as
// EPIPE here, not as a process-killing SIGPIPE. A short write is never
// dropped: the loop resumes at the unwritten tail, and a full socket
// buffer (EAGAIN — possible under SO_SNDTIMEO or a nonblocking fd) waits
// for POLLOUT instead of discarding the remainder.
void write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        serve_metrics().write_stalls.inc();
        pollfd p{fd, POLLOUT, 0};
        const int ready = ::poll(&p, 1, kWriteStallTimeoutMs);
        if (ready < 0 && errno == EINTR) continue;
        if (ready <= 0)
          throw std::runtime_error("write: receiver stalled past deadline");
        continue;
      }
      throw std::runtime_error(std::string("write: ") + std::strerror(errno));
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// The TCP accept loop: one reader thread per connection, all feeding
/// the shared service queue; a shutdown op drains, acknowledges, and
/// closes the listener.
int serve_on_listener(DiagnosisService& service, int listen_fd,
                      std::ostream& log) {
  ServeMetrics& metrics = serve_metrics();
  std::atomic<bool> stop{false};
  std::mutex log_mutex;  // connection threads share `log`
  const auto log_event = [&](const char* event, int fd,
                             const std::string& error) {
    Json record;
    record.set("event", event);
    record.set("fd", fd);
    record.set("error", error);
    std::lock_guard<std::mutex> lock(log_mutex);
    log << record.dump() << "\n";
    log.flush();
  };

  const auto connection_main = [&](int fd) {
    metrics.connections.inc();
    std::mutex write_mutex;
    Outstanding outstanding;
    // One log line per connection, not per failed write: once the client
    // is gone every queued response for it fails the same way.
    bool write_failed = false;
    const auto respond = [&](const Json& response) {
      const std::string line = response.dump() + "\n";
      std::lock_guard<std::mutex> lock(write_mutex);
      if (write_failed) return;
      try {
        write_all(fd, line.data(), line.size());
      } catch (const std::exception& e) {
        // Client went away; outstanding work still drains harmlessly —
        // but the event is counted and logged, not swallowed.
        write_failed = true;
        metrics.connection_errors.inc();
        log_event("connection_error", fd, e.what());
      }
    };

    // Every byte is scanned for '\n' once and every consumed line is
    // dropped by one compaction per read, so a long line arriving in small
    // reads or a pipelined burst costs linear time. A line past
    // kMaxRequestLineBytes ends the connection before it can grow further.
    std::string buffer;
    std::size_t scanned = 0;  // buffer[0, scanned) holds no '\n'
    char chunk[4096];
    bool shutdown_server = false;
    bool too_long = false;
    while (!shutdown_server && !too_long) {
      const ssize_t r = ::read(fd, chunk, sizeof chunk);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(r));
      std::size_t start = 0;  // first byte of the next unconsumed line
      std::size_t nl;
      while ((nl = buffer.find('\n', scanned)) != std::string::npos) {
        if (nl - start > kMaxRequestLineBytes) {
          too_long = true;
          break;
        }
        const std::string line = buffer.substr(start, nl - start);
        start = scanned = nl + 1;
        if (blank(line)) continue;
        Json request;
        try {
          request = Json::parse(line);
        } catch (const std::exception& e) {
          metrics.parse_errors.inc();
          respond(parse_error_response(e.what()));
          continue;
        }
        if (request.get_string("op") == "shutdown") {
          outstanding.wait_idle();
          Json ack;
          if (const Json* id = request.find("id")) ack.set("id", *id);
          ack.set("status", "ok");
          ack.set("op", "shutdown");
          respond(ack);
          shutdown_server = true;
          break;
        }
        if (request.get_string("op") == "ping") {
          // Answered on the reader thread, ahead of the queue: a
          // supervisor's health probe must measure process liveness, not
          // queue depth (a daemon deep into a batch is busy, not hung).
          respond(service.handle(request));
          continue;
        }
        outstanding.add();
        service.submit(
            std::move(request),
            [&](Json response) {
              respond(response);
              outstanding.done();
            },
            [&](const Json& streamed) { respond(streamed); });
      }
      buffer.erase(0, start);
      scanned = buffer.size();
      if (buffer.size() > kMaxRequestLineBytes) too_long = true;
    }
    if (too_long) {
      metrics.line_too_long.inc();
      respond(parse_error_response(
          "request line exceeds " + std::to_string(kMaxRequestLineBytes) +
          " bytes; send large datalog lots by path in 'datalog_files'"));
    }
    outstanding.wait_idle();
    ::close(fd);
    if (shutdown_server) {
      stop.store(true);
      ::shutdown(listen_fd, SHUT_RDWR);  // unblocks accept()
    }
  };

  // Only this loop touches `connections`. A connection's thread sets its
  // `finished` flag as its last act; each accept drops (and so joins) the
  // finished ones, so closed connections do not keep their stacks mapped
  // until shutdown. Declared after everything the threads use.
  struct Connection {
    Connection() = default;
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;
    ~Connection() {
      if (thread.joinable()) thread.join();
    }
    std::thread thread;
    std::atomic<bool> finished{false};
  };
  std::list<Connection> connections;
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed (shutdown) or fatal
    }
    if (stop.load()) {
      ::close(fd);
      break;
    }
    connections.remove_if(
        [](const Connection& c) { return c.finished.load(); });
    Connection& c = connections.emplace_back();
    try {
      c.thread = std::thread([&, fd, finished = &c.finished] {
        // An exception escaping a thread entry would std::terminate the
        // whole daemon; downgrade to one logged, counted connection error.
        try {
          connection_main(fd);
        } catch (const std::exception& e) {
          metrics.connection_errors.inc();
          log_event("connection_thread_error", fd, e.what());
          ::close(fd);
        }
        finished->store(true);
      });
    } catch (const std::system_error& e) {
      // No thread for this connection (thread or mapping limits): refuse
      // it rather than let the exception abort the daemon.
      connections.pop_back();
      metrics.connection_errors.inc();
      log_event("connection_spawn_error", fd, e.what());
      ::close(fd);
    }
  }
  ::close(listen_fd);
  connections.clear();  // waits for every live connection
  log << "openmdd_serve: shut down\n";
  return 0;
}

}  // namespace

int serve_stdio(DiagnosisService& service, std::istream& in,
                std::ostream& out) {
  std::mutex out_mutex;
  Outstanding outstanding;
  const auto respond = [&](const Json& response) {
    std::lock_guard<std::mutex> lock(out_mutex);
    out << response.dump() << "\n";
    out.flush();
  };

  std::string line;
  while (std::getline(in, line)) {
    if (blank(line)) continue;
    Json request;
    try {
      request = Json::parse(line);
    } catch (const std::exception& e) {
      serve_metrics().parse_errors.inc();
      respond(parse_error_response(e.what()));
      continue;
    }
    if (request.get_string("op") == "shutdown") {
      outstanding.wait_idle();
      Json ack;
      if (const Json* id = request.find("id")) ack.set("id", *id);
      ack.set("status", "ok");
      ack.set("op", "shutdown");
      respond(ack);
      return 0;
    }
    if (request.get_string("op") == "ping") {
      respond(service.handle(request));  // liveness probe: jumps the queue
      continue;
    }
    outstanding.add();
    service.submit(
        std::move(request),
        [&](Json response) {
          respond(response);
          outstanding.done();
        },
        [&](const Json& streamed) { respond(streamed); });
  }
  outstanding.wait_idle();
  return 0;
}

int serve_tcp(DiagnosisService& service, std::uint16_t port,
              std::ostream& log,
              const std::function<void(std::uint16_t)>& on_listening) {
  const int listen_fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) {
    log << "openmdd_serve: socket: " << std::strerror(errno) << "\n";
    return 1;
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd, 64) < 0) {
    log << "openmdd_serve: bind/listen: " << std::strerror(errno) << "\n";
    ::close(listen_fd);
    return 1;
  }
  socklen_t addr_len = sizeof addr;
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  const std::uint16_t bound_port = ntohs(addr.sin_port);
  log << "openmdd_serve: listening on 127.0.0.1:" << bound_port << "\n";
  log.flush();
  if (on_listening) on_listening(bound_port);
  return serve_on_listener(service, listen_fd, log);
}

int connect_tcp_fd(const std::string& host, std::uint16_t port,
                   int connect_timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("bad host address: " + host);
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(connect_timeout_ms);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
      throw std::runtime_error(std::string("socket: ") +
                               std::strerror(errno));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
      return fd;
    ::close(fd);
    if (std::chrono::steady_clock::now() >= give_up)
      throw std::runtime_error("cannot connect to " + host + ":" +
                               std::to_string(port));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

void LineClient::send_line(const std::string& line) {
  const std::string framed = line + "\n";
  write_all(fd_, framed.data(), framed.size());
}

std::string LineClient::recv_line() {
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t r = ::read(fd_, chunk, sizeof chunk);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) throw std::runtime_error("connection closed by server");
    buffer_.append(chunk, static_cast<std::size_t>(r));
  }
}

std::string LineClient::roundtrip(const std::string& line) {
  send_line(line);
  return recv_line();
}

}  // namespace mdd::server
