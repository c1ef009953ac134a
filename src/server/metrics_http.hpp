// openmdd — Prometheus metrics endpoint.
//
// A deliberately tiny HTTP/1.0 responder on its own loopback socket and
// thread, separate from the JSONL protocol port so scrapers need no
// knowledge of the diagnosis protocol (and a wedged diagnosis queue
// never blocks a scrape). Every request, whatever the path, is answered
// with the text exposition (format 0.0.4) of the process-wide metric
// registry and the connection is closed: the subset of HTTP that `curl`
// and a Prometheus scraper actually need.
//
// Robustness: the responder is single-threaded, so one hostile client
// must not wedge scraping for everyone. A client that connects but never
// sends its request is cut off after a poll deadline, and a client that
// stops reading a multi-KB exposition mid-send is abandoned once the
// socket buffer stays full past the same deadline — both paths counted,
// never blocking stop().
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <thread>

namespace mdd::server {

/// Serves the obs registry over HTTP until stop() — loopback only, like
/// the protocol socket (unauthenticated by design).
class MetricsHttpServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the serving
  /// thread. Reports the bound port through `on_listening`. Throws
  /// std::runtime_error if the socket cannot be bound.
  MetricsHttpServer(
      std::uint16_t port, std::ostream& log,
      const std::function<void(std::uint16_t)>& on_listening = {});
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  std::uint16_t port() const { return port_; }

  /// Per-connection poll deadline for both the request read and a
  /// stalled response write, milliseconds. Exposed for tests; set before
  /// traffic.
  void set_io_timeout_ms(int ms) { io_timeout_ms_ = ms; }

  /// Stops accepting and joins the serving thread. Idempotent; the
  /// destructor calls it.
  void stop();

 private:
  void run();

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::ostream& log_;
  int io_timeout_ms_ = 2000;
  std::thread thread_;
  bool stopped_ = false;
};

}  // namespace mdd::server
