// Transport-layer tests: a client that disconnects mid-request must leave
// a counted, logged connection error (the original code swallowed the
// failed write in an empty catch — and worse, an unhandled SIGPIPE on the
// raw ::write could kill the whole daemon), malformed request lines move
// the parse-error counter, closed connections give back their threads, an
// overlong request line is refused without unbounded buffering on either
// transport, and the Prometheus endpoint serves a parseable exposition
// over plain HTTP. Builds into the tsan-labelled binary.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "server/metrics_http.hpp"
#include "server/serve.hpp"
#include "server/service.hpp"

namespace mdd::server {
namespace {

std::uint64_t counter_value(const std::string& name) {
  return obs::registry().counter(name).value();
}

/// serve_tcp on an ephemeral port in a background thread; joins on scope
/// exit (the test sends {"op":"shutdown"} to unblock it).
struct TcpServerFixture {
  DiagnosisService service;
  std::ostringstream log;
  std::uint16_t port = 0;
  std::thread thread;

  TcpServerFixture() {
    std::promise<std::uint16_t> bound;
    auto bound_future = bound.get_future();
    thread = std::thread([this, &bound] {
      serve_tcp(service, 0, log,
                [&bound](std::uint16_t p) { bound.set_value(p); });
    });
    port = bound_future.get();
  }

  ~TcpServerFixture() {
    if (thread.joinable()) thread.join();
  }

  void shutdown() {
    TcpLineClient client("127.0.0.1", port);
    client.roundtrip("{\"op\":\"shutdown\"}");
  }
};

TEST(ServeTcp, ClientGoneMidRequestIsCountedAndLogged) {
  TcpServerFixture server;
  const std::uint64_t errors_before =
      counter_value("server.connection_errors");

  {
    // Raw client: submit a slow request, then close with SO_LINGER{1,0}
    // so the kernel sends RST — by the time the worker finishes and
    // writes the response, the connection is dead and the write fails.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    const std::string request = "{\"op\":\"sleep\",\"ms\":300}\n";
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const linger hard_close{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close, sizeof hard_close);
    ::close(fd);
  }

  // The worker is still sleeping; wait for it to finish, fail the write,
  // and count the error.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (counter_value("server.connection_errors") == errors_before &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GT(counter_value("server.connection_errors"), errors_before)
      << "a failed response write must be counted, not swallowed";

  server.shutdown();
  server.thread.join();  // log is single-owner again after the join
  EXPECT_NE(server.log.str().find("connection_error"), std::string::npos)
      << "log was:\n"
      << server.log.str();
}

TEST(ServeTcp, MalformedLineAnswersErrorAndCountsParseError) {
  TcpServerFixture server;
  const std::uint64_t parse_before = counter_value("server.parse_errors");
  {
    TcpLineClient client("127.0.0.1", server.port);
    const std::string response = client.roundtrip("this is not json");
    EXPECT_NE(response.find("\"error\""), std::string::npos);
  }
  EXPECT_GT(counter_value("server.parse_errors"), parse_before);
  server.shutdown();
}

TEST(ServeTcp, PingBypassesABusyQueue) {
  // Pings are answered on the connection's reader thread, ahead of the
  // work queue — a supervisor's health probe must measure process
  // liveness, so a daemon saturated with slow work still answers promptly.
  TcpServerFixture server;
  TcpLineClient busy("127.0.0.1", server.port);
  busy.send_line("{\"op\":\"sleep\",\"ms\":2000}");
  busy.send_line("{\"op\":\"sleep\",\"ms\":2000}");

  TcpLineClient prober("127.0.0.1", server.port);
  const auto t0 = std::chrono::steady_clock::now();
  const std::string response = prober.roundtrip("{\"op\":\"ping\"}");
  const auto elapsed = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_NE(response.find("\"op\":\"ping\""), std::string::npos) << response;
  EXPECT_LT(elapsed, 1000.0)
      << "ping waited behind the queue instead of jumping it";

  // Drain the sleeps so shutdown is quick and deterministic.
  EXPECT_NE(busy.recv_line().find("\"ok\""), std::string::npos);
  EXPECT_NE(busy.recv_line().find("\"ok\""), std::string::npos);
  server.shutdown();
}

namespace {

bool send_all(int fd, const std::string& bytes) {
  for (std::size_t off = 0; off < bytes.size();) {
    const ssize_t w = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

TEST(ServeTcp, PipelinedBurstInOneWriteIsAllAnswered) {
  // Several reads' worth of requests sent in one write: lines straddle the
  // reader's chunk boundaries and every one must be answered, in order
  // (pings are answered on the reader thread). The burst is sent from its
  // own thread so the answers drain while it is still being written.
  TcpServerFixture server;
  constexpr int kRequests = 1000;
  std::string burst;
  for (int i = 0; i < kRequests; ++i)
    burst += "{\"op\":\"ping\",\"id\":" + std::to_string(i) + "}\n";
  EXPECT_GT(burst.size(), 4 * 4096u);
  {
    TcpLineClient client("127.0.0.1", server.port);
    bool sent = false;
    std::thread sender([&] { sent = send_all(client.fd(), burst); });
    for (int i = 0; i < kRequests; ++i) {
      const std::string response = client.recv_line();
      EXPECT_NE(response.find("\"id\":" + std::to_string(i) + ","),
                std::string::npos)
          << response;
    }
    sender.join();
    EXPECT_TRUE(sent);
  }
  server.shutdown();
}

TEST(ServeTcp, RequestInOneByteWritesIsAnswered) {
  TcpServerFixture server;
  {
    TcpLineClient client("127.0.0.1", server.port);
    const std::string request = "{\"op\":\"ping\",\"id\":\"trickle\"}\n";
    for (const char c : request) {
      EXPECT_TRUE(send_all(client.fd(), std::string(1, c)));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const std::string response = client.recv_line();
    EXPECT_NE(response.find("\"id\":\"trickle\""), std::string::npos)
        << response;
    EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos)
        << response;
  }
  server.shutdown();
}

namespace {

std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

}  // namespace

TEST(ServeTcp, ClosedConnectionsAreReaped) {
  // Regression: every accepted connection's thread used to be joined only
  // at shutdown, so each closed connection left its stack mapped. A
  // health checker opening one connection per probe ran the daemon into
  // vm.max_map_count, and the failed thread start aborted it.
  TcpServerFixture server;
  const auto ping_once = [&] {
    TcpLineClient client("127.0.0.1", server.port);
    return client.roundtrip("{\"op\":\"ping\"}");
  };
  // Allocator arenas and sanitizer runtimes map regions for the first few
  // hundred threads; let that settle before the baseline.
  for (int i = 0; i < 250; ++i) ping_once();
  const std::size_t before = mapping_count();
  for (int i = 0; i < 500; ++i)
    ASSERT_NE(ping_once().find("\"status\":\"ok\""), std::string::npos);
  const std::size_t after = mapping_count();
  EXPECT_LE(after, before + 50)
      << "500 closed connections grew /proc/self/maps from " << before
      << " to " << after << " lines";
  server.shutdown();
}

TEST(ServeTcp, OverlongLineIsRefusedAndServingContinues) {
  // A client that never sends a newline must not grow the reader's
  // buffer without bound: one byte past the cap gets an error pointing
  // at datalog_files, a counted event, and a closed connection.
  TcpServerFixture server;
  const std::uint64_t before = counter_value("server.line_too_long");
  {
    TcpLineClient client("127.0.0.1", server.port);
    const std::string block(std::size_t{1} << 20, 'x');
    std::size_t left = kMaxRequestLineBytes + 1;
    while (left > 0) {
      const std::size_t n = std::min(left, block.size());
      ASSERT_TRUE(send_all(client.fd(), block.substr(0, n)));
      left -= n;
    }
    const std::string response = client.recv_line();
    EXPECT_NE(response.find("\"status\":\"error\""), std::string::npos)
        << response;
    EXPECT_NE(response.find("datalog_files"), std::string::npos) << response;
    EXPECT_THROW(client.recv_line(), std::runtime_error)
        << "the connection must be closed after the error";
  }
  EXPECT_EQ(counter_value("server.line_too_long"), before + 1);
  {
    TcpLineClient client("127.0.0.1", server.port);
    EXPECT_NE(client.roundtrip("{\"op\":\"ping\"}").find("\"status\":\"ok\""),
              std::string::npos);
  }
  server.shutdown();
}

/// A stream of `head`, then `n` 'x' bytes, then `tail`, produced one
/// block at a time: an overlong line costs the test no memory.
class GeneratedInput : public std::streambuf {
 public:
  GeneratedInput(std::string head, std::size_t n, std::string tail)
      : head_(std::move(head)), left_(n), tail_(std::move(tail)) {}

 protected:
  int_type underflow() override {
    std::string* next = nullptr;
    if (stage_ == 0) {
      next = &head_;
    } else if (left_ > 0) {
      const std::size_t n = std::min(left_, block_.size());
      left_ -= n;
      setg(block_.data(), block_.data(), block_.data() + n);
      return traits_type::to_int_type(*gptr());
    } else if (stage_ == 1) {
      next = &tail_;
    }
    if (next == nullptr || next->empty()) return traits_type::eof();
    ++stage_;
    setg(next->data(), next->data(), next->data() + next->size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::string head_;
  std::size_t left_;
  std::string tail_;
  std::string block_ = std::string(std::size_t{1} << 16, 'x');
  int stage_ = 0;  ///< 0: head next, 1: block bytes then tail, 2: done
};

TEST(ServeStdio, OverlongLineIsSkippedAndServingContinues) {
  // std::getline used to buffer a line of any length. Past the cap the
  // line now gets the TCP transport's error, is counted, and is read to
  // its newline without being kept; the next request is still served.
  DiagnosisService service;
  const std::uint64_t before = counter_value("server.line_too_long");
  GeneratedInput source("{\"op\":\"ping\",\"id\":0}\n",
                        kMaxRequestLineBytes + 1,
                        "\n{\"op\":\"ping\",\"id\":1}\n");
  std::istream in(&source);
  std::ostringstream out;
  EXPECT_EQ(serve_stdio(service, in, out), 0);
  EXPECT_EQ(counter_value("server.line_too_long"), before + 1);

  std::istringstream lines(out.str());
  std::vector<Json> responses;
  for (std::string line; std::getline(lines, line);)
    responses.push_back(Json::parse(line));
  ASSERT_EQ(responses.size(), 3u) << out.str();
  EXPECT_EQ(responses[0].get_number("id", -1), 0);
  EXPECT_EQ(responses[1].get_string("status"), "error");
  EXPECT_NE(responses[1].get_string("error").find("datalog_files"),
            std::string::npos);
  EXPECT_EQ(responses[2].get_string("status"), "ok");
  EXPECT_EQ(responses[2].get_number("id", -1), 1);
}

namespace {

/// One blocking HTTP GET against the metrics endpoint.
std::string http_get(std::uint16_t port) {
  const int fd = connect_tcp_fd("127.0.0.1", port);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return {};
  }
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t r = ::recv(fd, chunk, sizeof chunk, 0);
    if (r <= 0) break;
    response.append(chunk, static_cast<std::size_t>(r));
  }
  ::close(fd);
  return response;
}

}  // namespace

TEST(MetricsHttp, IdleClientIsCutOffAndScrapingContinues) {
  // Regression: the single-threaded responder used to block in recv()
  // on a client that connected and sent nothing — one such client wedged
  // scraping (and stop()) forever. Now it is cut off at the poll
  // deadline, counted, and the next scrape is served normally.
  std::ostringstream log;
  MetricsHttpServer server(0, log);
  server.set_io_timeout_ms(100);
  const std::uint64_t slow_before = counter_value("metrics.slow_clients");

  const int idle_fd = connect_tcp_fd("127.0.0.1", server.port());
  char byte;
  const ssize_t r = ::recv(idle_fd, &byte, 1, 0);  // until the cutoff
  EXPECT_EQ(r, 0) << "idle client should be dropped, not served";
  ::close(idle_fd);
  EXPECT_GT(counter_value("metrics.slow_clients"), slow_before);

  const std::string response = http_get(server.port());
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos)
      << "scraping must survive a hostile client";
  server.stop();
}

TEST(MetricsHttp, ServesPrometheusExposition) {
  obs::registry().counter("obs_test.http_probe").inc(41);
  std::ostringstream log;
  MetricsHttpServer server(0, log);
  ASSERT_GT(server.port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));

  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t r = ::recv(fd, chunk, sizeof chunk, 0);
    if (r <= 0) break;
    response.append(chunk, static_cast<std::size_t>(r));
  }
  ::close(fd);
  server.stop();

  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  // Dotted registry names arrive underscored, with a TYPE line each.
  EXPECT_NE(response.find("# TYPE obs_test_http_probe counter"),
            std::string::npos);
  EXPECT_NE(response.find("obs_test_http_probe 41"), std::string::npos);
}

}  // namespace
}  // namespace mdd::server
