// openmdd_serve — long-lived diagnosis daemon.
//
//   openmdd_serve [--stdio] [--port N] [--workers N] [--queue N]
//                 [--cache-mb N] [--memo-mb N] [--composite-mb N]
//                 [--exec-threads N] [--default-deadline-ms N]
//                 [--metrics-port N] [--slow-ms N] [--kernel NAME]
//                 [--store-dir DIR] [--batch-threads N]
//
// Speaks line-delimited JSON (one request object per line, one response
// per line; protocol in src/server/service.hpp and DESIGN.md §7) either
// on stdin/stdout (--stdio, the default) or on a loopback-only TCP port
// (--port N; N=0 binds an ephemeral port and prints it on stderr).
// Circuits are parsed and good-simulated once per (netlist, patterns)
// pair and kept in an LRU session cache, so steady-state requests skip
// straight to diagnosis. --metrics-port serves the Prometheus text
// exposition of the obs registry on a second loopback socket; --slow-ms
// writes one structured JSON line to stderr per slow request.
//
// One daemon per host scales with --workers; crash isolation comes from
// an external supervisor that restarts it, probing liveness with `ping`
// (DESIGN.md §7, "Crash isolation and scale-out").
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/exec.hpp"
#include "core/version.hpp"
#include "server/metrics_http.hpp"
#include "sim/kernel.hpp"
#include "server/serve.hpp"
#include "server/service.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: openmdd_serve [--stdio | --port N] [--workers N]"
         " [--queue N]\n"
         "                     [--cache-mb N] [--exec-threads N]"
         " [--default-deadline-ms N]\n"
         "  --stdio                serve JSONL on stdin/stdout (default)\n"
         "  --port N               serve JSONL on 127.0.0.1:N (0 ="
         " ephemeral)\n"
         "  --workers N            request worker threads (default 2)\n"
         "  --queue N              job-queue depth before 'overloaded'"
         " (default 64)\n"
         "  --cache-mb N           session-cache budget in MiB"
         " (default 256)\n"
         "  --memo-mb N            per-session signature-memo budget in"
         " MiB (default 256)\n"
         "  --composite-mb N       per-session composite-memo budget in"
         " MiB (default 64)\n"
         "  --exec-threads N       intra-request threads for the signature"
         " warm (default 0 = serial)\n"
         "  --default-deadline-ms N  deadline for requests without one"
         " (default 0 = none)\n"
         "  --metrics-port N       Prometheus text exposition on"
         " 127.0.0.1:N (0 = ephemeral)\n"
         "  --slow-ms N            log slow requests (>= N ms end-to-end)"
         " as JSON on stderr\n"
         "  --store-dir DIR        serve candidate signatures from"
         " prebuilt dictionary stores\n"
         "                         (openmdd dict build) found in DIR\n"
         "  --batch-threads N      datalog-level threads inside one"
         " diagnose_batch request\n"
         "                         (default 0 = --workers; request"
         " 'threads' overrides)\n"
         "  --kernel NAME          simulation kernel (available: "
      << mdd::kernel_names()
      << "; default: widest, or MDD_KERNEL)\n";
  return 2;
}

std::size_t parse_count(const std::string& value, const std::string& flag) {
  std::size_t pos = 0;
  long long n = 0;
  try {
    n = std::stoll(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != value.size() || n < 0)
    throw std::runtime_error(flag + " wants a non-negative integer, got '" +
                             value + "'");
  return static_cast<std::size_t>(n);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mdd;
  server::ServiceOptions options;
  bool use_tcp = false;
  std::uint16_t port = 0;
  std::size_t exec_threads = 0;
  std::optional<std::uint16_t> metrics_port;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc)
          throw std::runtime_error("missing value for " + a);
        return argv[++i];
      };
      if (a == "--stdio") {
        use_tcp = false;
      } else if (a == "--port") {
        use_tcp = true;
        const std::size_t p = parse_count(value(), a);
        if (p > 65535) throw std::runtime_error("--port out of range");
        port = static_cast<std::uint16_t>(p);
      } else if (a == "--workers") {
        options.n_workers = parse_count(value(), a);
        if (options.n_workers == 0)
          throw std::runtime_error("--workers must be at least 1");
      } else if (a == "--queue") {
        options.queue_depth = parse_count(value(), a);
        if (options.queue_depth == 0)
          throw std::runtime_error("--queue must be at least 1");
      } else if (a == "--cache-mb") {
        options.cache_bytes = parse_count(value(), a) << 20;
      } else if (a == "--memo-mb") {
        options.memo_bytes = parse_count(value(), a) << 20;
      } else if (a == "--composite-mb") {
        options.composite_bytes = parse_count(value(), a) << 20;
      } else if (a == "--exec-threads") {
        exec_threads = parse_count(value(), a);
      } else if (a == "--default-deadline-ms") {
        options.default_deadline =
            std::chrono::milliseconds(parse_count(value(), a));
      } else if (a == "--metrics-port") {
        const std::size_t p = parse_count(value(), a);
        if (p > 65535) throw std::runtime_error("--metrics-port out of range");
        metrics_port = static_cast<std::uint16_t>(p);
      } else if (a == "--slow-ms") {
        options.slow_ms = static_cast<double>(parse_count(value(), a));
      } else if (a == "--store-dir") {
        options.store_dir = value();
      } else if (a == "--batch-threads") {
        options.batch_threads = parse_count(value(), a);
      } else if (a == "--kernel") {
        options.kernel = value();
      } else if (a == "--help" || a == "-h") {
        return usage();
      } else {
        std::cerr << "openmdd_serve: unknown option '" << a << "'\n";
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "openmdd_serve: " << e.what() << "\n";
    return 2;
  }
  if (exec_threads > 0) options.exec = ExecPolicy::parallel(exec_threads);

  std::unique_ptr<server::DiagnosisService> service;
  try {
    service = std::make_unique<server::DiagnosisService>(options);
  } catch (const std::invalid_argument& e) {
    std::cerr << "openmdd_serve: " << e.what() << "\n";
    return 2;
  }
  std::cerr << "openmdd_serve " << kVersion << ": " << options.n_workers
            << " workers, queue " << options.queue_depth << ", cache "
            << (options.cache_bytes >> 20) << " MiB, kernel "
            << current_kernel().name;
  if (!options.store_dir.empty()) std::cerr << ", store " << options.store_dir;
  std::cerr << "\n";
  std::unique_ptr<server::MetricsHttpServer> metrics;
  if (metrics_port) {
    try {
      metrics =
          std::make_unique<server::MetricsHttpServer>(*metrics_port, std::cerr);
    } catch (const std::exception& e) {
      std::cerr << "openmdd_serve: " << e.what() << "\n";
      return 1;
    }
  }
  if (use_tcp) return server::serve_tcp(*service, port, std::cerr);
  return server::serve_stdio(*service, std::cin, std::cout);
}
