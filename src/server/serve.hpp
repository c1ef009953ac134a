// openmdd — transports for the diagnosis daemon.
//
// The service itself is transport-free (JSON in, JSON out); this layer
// frames it as line-delimited JSON over two transports:
//
//  * serve_stdio — one request object per stdin line, one response object
//    per stdout line. Responses are written as they complete, so they can
//    arrive out of order relative to requests — clients match on `id`.
//  * serve_tcp — same framing on a loopback-only TCP socket, one reader
//    thread per connection, all feeding the shared service queue. A
//    connection's thread is joined by the accept loop once it finishes,
//    and a request line longer than kMaxRequestLineBytes is answered
//    with an error and closes its connection.
//
// Both loops understand {"op":"shutdown"}: drain outstanding work,
// acknowledge, and return. `ping` is answered on the reader thread, ahead
// of the queue, so it probes liveness for an external supervisor. The
// blocking TCP client (TcpLineClient) is used by openmdd_loadgen,
// perfbench, and the smoke tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "server/service.hpp"

namespace mdd::server {

/// The longest request line serve_tcp reads, newline excluded: 64 MiB,
/// about 1,700x the largest line perfbench sends (a 37.7 KB inline
/// g1k `diagnose_batch`). Larger datalog lots go by path in
/// `datalog_files`.
constexpr std::size_t kMaxRequestLineBytes = std::size_t{64} << 20;

/// Serves until EOF or a shutdown op; returns 0 on clean exit.
int serve_stdio(DiagnosisService& service, std::istream& in,
                std::ostream& out);

/// Binds 127.0.0.1:`port` (0 = ephemeral), reports the bound port through
/// `on_listening`, serves until a shutdown op. Returns 0 on clean exit,
/// nonzero on socket errors. Loopback only by design — the daemon speaks
/// an unauthenticated protocol.
int serve_tcp(DiagnosisService& service, std::uint16_t port,
              std::ostream& log,
              const std::function<void(std::uint16_t)>& on_listening = {});

/// Connects a blocking TCP socket to `host`:`port`, retrying for up to
/// `connect_timeout_ms` (server startup races). Returns the connected fd
/// (CLOEXEC); throws std::runtime_error on timeout.
int connect_tcp_fd(const std::string& host, std::uint16_t port,
                   int connect_timeout_ms = 5000);

/// Blocking JSONL client over an adopted stream socket: one line out, one
/// line in. Throws std::runtime_error on IO failure.
class LineClient {
 public:
  /// Adopts `fd` (closed by the destructor).
  explicit LineClient(int fd) : fd_(fd) {}
  ~LineClient();

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Sends one request line and blocks for one response line.
  std::string roundtrip(const std::string& line);

  void send_line(const std::string& line);
  std::string recv_line();

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// LineClient connected to 127.0.0.1:`port`, retrying the connect for up
/// to `connect_timeout_ms` (server startup races in scripts/CI).
class TcpLineClient : public LineClient {
 public:
  TcpLineClient(const std::string& host, std::uint16_t port,
                int connect_timeout_ms = 5000)
      : LineClient(connect_tcp_fd(host, port, connect_timeout_ms)) {}
};

}  // namespace mdd::server
