#include "server/metrics_http.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace mdd::server {

namespace {

struct ScrapeMetrics {
  obs::Counter& scrapes = obs::registry().counter("metrics.scrapes");
  /// Connections dropped for misbehaving: never sent a request within
  /// the poll deadline, or stopped reading the response mid-send.
  obs::Counter& slow_clients =
      obs::registry().counter("metrics.slow_clients");
};

ScrapeMetrics& scrape_metrics() {
  static ScrapeMetrics m;
  return m;
}

/// Returns false if the client stalled (send buffer full past the
/// deadline) or vanished; a short write always resumes at the tail, so a
/// multi-KB exposition is never silently truncated for a healthy reader.
bool send_all(int fd, const char* data, std::size_t n, int timeout_ms) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd p{fd, POLLOUT, 0};
        const int ready = ::poll(&p, 1, timeout_ms);
        if (ready < 0 && errno == EINTR) continue;
        if (ready <= 0) return false;  // reader stalled past the deadline
        continue;
      }
      return false;  // scraper went away; nothing to salvage
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

MetricsHttpServer::MetricsHttpServer(
    std::uint16_t port, std::ostream& log,
    const std::function<void(std::uint16_t)>& on_listening)
    : log_(log) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error(std::string("metrics socket: ") +
                             std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("metrics bind/listen: " + what);
  }
  socklen_t addr_len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  log_ << "openmdd_serve: metrics on http://127.0.0.1:" << port_
       << "/metrics\n";
  log_.flush();
  if (on_listening) on_listening(port_);
  thread_ = std::thread([this] { run(); });
}

MetricsHttpServer::~MetricsHttpServer() { stop(); }

void MetricsHttpServer::stop() {
  if (stopped_) return;
  stopped_ = true;
  ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks accept()
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void MetricsHttpServer::run() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down
    }
    // Wait (bounded) for the request head, then read and discard it so
    // the client sees its request consumed; one read is plenty for a
    // scraper's GET line + headers. The responder is single-threaded, so
    // a client that connects and sends nothing must NOT hold the line
    // open forever — it is cut off at the poll deadline and the next
    // scraper is served.
    pollfd p{fd, POLLIN, 0};
    int ready;
    do {
      ready = ::poll(&p, 1, io_timeout_ms_);
    } while (ready < 0 && errno == EINTR);
    if (ready <= 0) {
      scrape_metrics().slow_clients.inc();
      ::close(fd);
      continue;
    }
    char head[2048];
    const ssize_t r = ::recv(fd, head, sizeof head, 0);
    (void)r;
    const std::string body =
        obs::render_prometheus(obs::registry().snapshot());
    std::string response =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: " +
        std::to_string(body.size()) +
        "\r\n"
        "Connection: close\r\n"
        "\r\n" +
        body;
    if (send_all(fd, response.data(), response.size(), io_timeout_ms_))
      scrape_metrics().scrapes.inc();
    else
      scrape_metrics().slow_clients.inc();
    ::close(fd);
  }
}

}  // namespace mdd::server
