// openmdd_loadgen — closed-loop load generator for the diagnosis daemon.
//
//   openmdd_loadgen --circuit g200 [--cases 50] [--concurrency 1,4,8]
//   openmdd_loadgen --circuit g200 --connect 127.0.0.1:7411 [--shutdown]
//   openmdd_loadgen --circuit g200 --coldstart
//   openmdd_loadgen --circuit g1k --batch 16        # volume mode
//
// Builds a seed-deterministic corpus of tester datalogs (campaign-style
// defect sampling) for one circuit, then replays it at each requested
// concurrency and prints a throughput + latency-quantile table. Three
// execution modes:
//
//   inproc (default)  an in-process DiagnosisService: the resident
//                     serving path — session cache, bounded queue,
//                     worker pool — without socket overhead.
//   --connect H:P     an external openmdd_serve over TCP, one blocking
//                     connection per closed-loop worker.
//   --coldstart       the one-process-per-datalog baseline: every request
//                     re-parses the circuit, re-reads the patterns, and
//                     re-simulates the good machine before diagnosing.
//
// --batch N switches to volume mode: the corpus is chunked into
// `op=diagnose_batch` requests of N datalogs each (inproc or --connect),
// so the table's dlogs/s column measures the amortized streaming path
// against the per-request numbers from a plain run.
//
// After the runs the tool prints a per-op status breakdown and, for
// serving modes, the session memo hit rates (signature + composite
// layers, computed from stats deltas per concurrency level).
//
// With --circuit NAME the netlist/pattern files are emitted into
// --workdir first (the daemon loads sessions from files), so the tool is
// self-contained: no checked-in benchmark data needed.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/cancel.hpp"
#include "diag/multiplet.hpp"
#include "diag/single_fault.hpp"
#include "diag/slat.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/verilog_parser.hpp"
#include "server/serve.hpp"
#include "server/service.hpp"
#include "sim/sim2.hpp"
#include "workload/circuits.hpp"
#include "workload/loadgen.hpp"
#include "workload/table.hpp"
#include "workload/textio.hpp"

namespace {

using namespace mdd;

int usage() {
  std::cerr
      << "usage: openmdd_loadgen (--circuit NAME | --netlist F --patterns F)"
         " [options]\n"
         "  --circuit NAME        registry circuit (c17, add8, add32, par64,"
         " mux16, g200, g1k, g5k);\n"
         "                        emits NAME.bench/NAME.patterns into"
         " --workdir\n"
         "  --netlist F           netlist file (.bench or .v)\n"
         "  --patterns F          pattern file\n"
         "  --workdir DIR         where --circuit emits files (default .)\n"
         "  --cases N             corpus size (default 50)\n"
         "  --repeat N            replay the corpus N times per run"
         " (default 1)\n"
         "  --concurrency LIST    comma-separated client counts"
         " (default 1,4)\n"
         "  --seed N              corpus seed (default 1)\n"
         "  --method M            multiplet|slat|single|all"
         " (default multiplet)\n"
         "  --max-failing N       ATE-style truncation: stop each datalog"
         " after N failing patterns\n"
         "  --deadline-ms N       per-request deadline (default 0 = none)\n"
         "  --connect HOST:PORT   drive an external openmdd_serve over TCP\n"
         "  --coldstart           per-request circuit reload baseline\n"
         "  --batch N             volume mode: diagnose_batch requests of N"
         " datalogs each\n"
         "  --batch-threads N     datalog-level threads per batch request"
         " (inproc; default workers)\n"
         "  --workers N           inproc service workers (default 4)\n"
         "  --queue N             inproc queue depth (default 64)\n"
         "  --cache-mb N          inproc cache budget MiB (default 256)\n"
         "  --memo-mb N           inproc per-session signature-memo budget"
         " MiB (default 256)\n"
         "  --emit-corpus DIR     also write the datalogs to DIR\n"
         "  --shutdown            send {\"op\":\"shutdown\"} after the runs"
         " (--connect only)\n"
         "  --trace               request per-stage traces and print a"
         " stage breakdown table\n"
         "  --csv                 CSV instead of the aligned table\n";
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

std::vector<std::size_t> parse_concurrency(const std::string& list) {
  std::vector<std::size_t> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const std::size_t c = parse_count(item, "--concurrency");
    if (c == 0) throw std::runtime_error("--concurrency entries must be > 0");
    out.push_back(c);
  }
  if (out.empty()) throw std::runtime_error("--concurrency: empty list");
  return out;
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Netlist load_netlist(const std::string& path) {
  if (ends_with(path, ".bench")) return parse_bench_file(path).netlist;
  if (ends_with(path, ".v")) {
    static const CellLibrary lib;
    return parse_verilog_file(path, lib).netlist;
  }
  throw std::runtime_error("unknown netlist extension (want .bench or .v): " +
                           path);
}

struct RunConfig {
  std::string netlist_path;
  std::string patterns_path;
  std::string method = "multiplet";
  double deadline_ms = 0.0;
  bool trace = false;
};

server::Json make_request(const RunConfig& cfg, const LoadgenCase& lc,
                          std::size_t id) {
  server::Json r;
  r.set("id", id);
  r.set("op", "diagnose");
  r.set("netlist", cfg.netlist_path);
  r.set("patterns", cfg.patterns_path);
  r.set("datalog", lc.datalog_text);
  r.set("method", cfg.method);
  if (cfg.deadline_ms > 0.0) r.set("deadline_ms", cfg.deadline_ms);
  if (cfg.trace) r.set("trace", true);
  return r;
}

/// Volume-mode request: datalogs [first, first+count) of the replayed
/// corpus inline in one diagnose_batch.
server::Json make_batch_request(const RunConfig& cfg,
                                const std::vector<LoadgenCase>& corpus,
                                std::size_t first, std::size_t count,
                                std::size_t threads, std::size_t id) {
  server::Json r;
  r.set("id", id);
  r.set("op", "diagnose_batch");
  r.set("netlist", cfg.netlist_path);
  r.set("patterns", cfg.patterns_path);
  server::JsonArray datalogs;
  datalogs.reserve(count);
  for (std::size_t k = 0; k < count; ++k)
    datalogs.emplace_back(corpus[(first + k) % corpus.size()].datalog_text);
  r.set("datalogs", server::Json(std::move(datalogs)));
  r.set("method", cfg.method);
  if (threads > 0) r.set("threads", threads);
  if (cfg.deadline_ms > 0.0) r.set("deadline_ms", cfg.deadline_ms);
  return r;
}

/// Status counts per op across every response seen, plus per-datalog
/// failures inside diagnose_batch responses (which answer "ok" as a
/// request even when individual items errored).
class OpBreakdown {
 public:
  void add(const std::string& op, const server::Json& response) {
    std::lock_guard<std::mutex> lock(mutex_);
    Row& row = rows_[op];
    const std::string status = response.get_string("status", "error");
    if (status == "ok") ++row.ok;
    else if (status == "timeout") ++row.timeout;
    else if (status == "overloaded") ++row.overloaded;
    else ++row.error;
    row.item_errors +=
        static_cast<std::size_t>(response.get_number("n_errors", 0.0));
  }

  void print(std::ostream& os, bool csv) {
    TextTable table(
        {"op", "ok", "timeout", "overld", "err", "item_err"});
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [op, row] : rows_)
      table.add_row({op, std::to_string(row.ok),
                     std::to_string(row.timeout),
                     std::to_string(row.overloaded),
                     std::to_string(row.error),
                     std::to_string(row.item_errors)});
    if (csv)
      table.print_csv(os);
    else
      table.print(os);
  }

 private:
  struct Row {
    std::size_t ok = 0, timeout = 0, overloaded = 0, error = 0;
    std::size_t item_errors = 0;
  };
  std::mutex mutex_;
  std::map<std::string, Row> rows_;
};

/// Hit/miss totals of one memo layer pulled from a stats snapshot.
struct MemoSample {
  double sig_hits = 0, sig_misses = 0;
  double comp_hits = 0, comp_misses = 0;
};

MemoSample memo_sample(const server::Json& stats) {
  MemoSample s;
  if (const server::Json* memos = stats.find("memos")) {
    if (const server::Json* sig = memos->find("signature")) {
      s.sig_hits = sig->get_number("hits");
      s.sig_misses = sig->get_number("misses");
    }
    if (const server::Json* comp = memos->find("composite")) {
      s.comp_hits = comp->get_number("hits");
      s.comp_misses = comp->get_number("misses");
    }
  }
  return s;
}

/// "97.2" or "-" when the layer saw no traffic during the run.
std::string hit_rate(double hits, double misses) {
  const double total = hits + misses;
  if (total <= 0) return "-";
  return fmt(100.0 * hits / total, 1);
}

/// Accumulates the top-level stages of `"trace"` arrays across responses
/// (any worker thread) and prints mean/quantile rows per stage.
class StageStats {
 public:
  void add(const server::Json& response) {
    const server::Json* trace = response.find("trace");
    if (trace == nullptr || !trace->is_array()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const server::Json& span : trace->as_array()) {
      if (span.get_number("depth", 0.0) != 0.0) continue;
      samples_[span.get_string("stage")].push_back(span.get_number("ms"));
    }
  }

  void print(std::ostream& os, bool csv) {
    TextTable table(
        {"stage", "n", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"});
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [stage, samples] : samples_) {
      const LatencySummary s = summarize_latencies(samples);
      table.add_row({stage, std::to_string(s.n), fmt(s.mean_ms, 3),
                     fmt(s.p50_ms, 3), fmt(s.p95_ms, 3), fmt(s.p99_ms, 3),
                     fmt(s.max_ms, 3)});
    }
    if (csv)
      table.print_csv(os);
    else
      table.print(os);
  }

 private:
  std::mutex mutex_;
  std::map<std::string, std::vector<double>> samples_;
};

struct RunStats {
  std::size_t n_ok = 0;
  std::size_t n_timeout = 0;
  std::size_t n_overloaded = 0;
  std::size_t n_error = 0;
  double wall_s = 0.0;
  LatencySummary latency;

  void count(const std::string& status) {
    if (status == "ok") ++n_ok;
    else if (status == "timeout") ++n_timeout;
    else if (status == "overloaded") ++n_overloaded;
    else ++n_error;
  }
};

/// Issues `total` requests across `concurrency` closed-loop workers;
/// `make` builds request i, `execute` maps one request to a response
/// status string.
template <typename Make, typename Execute>
RunStats run_closed_loop(std::size_t total, std::size_t concurrency,
                         Make&& make, Execute&& execute) {
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<double>> latencies(concurrency);
  std::vector<RunStats> partial(concurrency);
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(concurrency);
    for (std::size_t w = 0; w < concurrency; ++w) {
      workers.emplace_back([&, w] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= total) return;
          const auto r0 = std::chrono::steady_clock::now();
          std::string status;
          try {
            status = execute(w, make(i));
          } catch (const std::exception& e) {
            std::cerr << "loadgen worker: " << e.what() << "\n";
            status = "error";
          }
          latencies[w].push_back(
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - r0)
                  .count());
          partial[w].count(status);
        }
      });
    }
    for (std::thread& t : workers) t.join();
  }
  RunStats stats;
  stats.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  std::vector<double> all;
  all.reserve(total);
  for (std::size_t w = 0; w < concurrency; ++w) {
    all.insert(all.end(), latencies[w].begin(), latencies[w].end());
    stats.n_ok += partial[w].n_ok;
    stats.n_timeout += partial[w].n_timeout;
    stats.n_overloaded += partial[w].n_overloaded;
    stats.n_error += partial[w].n_error;
  }
  stats.latency = summarize_latencies(std::move(all));
  return stats;
}

/// One cold request: what a fresh `openmdd diagnose` process pays —
/// parse the netlist, read the patterns, simulate the good machine,
/// then diagnose. The session cache's reason for existing.
std::string execute_cold(const RunConfig& cfg, const server::Json& request) {
  const Netlist nl = load_netlist(cfg.netlist_path);
  const PatternSet patterns = read_patterns_file(cfg.patterns_path);
  if (patterns.n_signals() != nl.n_inputs())
    throw std::runtime_error("pattern width does not match netlist inputs");
  std::istringstream log_in(request.get_string("datalog"));
  const Datalog log = read_datalog(log_in, nl);

  std::optional<CancelToken> token;
  const CancelToken* cancel = nullptr;
  if (cfg.deadline_ms > 0.0) {
    token.emplace(CancelToken::Clock::now() +
                  std::chrono::milliseconds(
                      static_cast<long>(cfg.deadline_ms)));
    cancel = &*token;
  }
  DiagnosisContext ctx(nl, patterns, log);
  bool timed_out = false;
  const auto run = [&](const DiagnosisReport& report) {
    timed_out |= report.timed_out;
  };
  if (cfg.method == "multiplet" || cfg.method == "all") {
    MultipletOptions opt;
    opt.cancel = cancel;
    run(diagnose_multiplet(ctx, opt));
  }
  if (cfg.method == "slat" || cfg.method == "all") {
    SlatOptions opt;
    opt.cancel = cancel;
    run(diagnose_slat(ctx, opt));
  }
  if (cfg.method == "single" || cfg.method == "all") {
    SingleFaultOptions opt;
    opt.cancel = cancel;
    run(diagnose_single_fault(ctx, opt));
  }
  return timed_out ? "timeout" : "ok";
}

}  // namespace

int main(int argc, char** argv) {
  std::string circuit, netlist_path, patterns_path, workdir = ".";
  std::string connect, emit_corpus, concurrency_list = "1,4";
  RunConfig cfg;
  CorpusConfig corpus_cfg;
  std::size_t repeat = 1, batch = 0;
  bool coldstart = false, send_shutdown = false, csv = false;
  server::ServiceOptions service_opts;
  service_opts.n_workers = 4;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc)
          throw std::runtime_error("missing value for " + a);
        return argv[++i];
      };
      if (a == "--circuit") circuit = value();
      else if (a == "--netlist") netlist_path = value();
      else if (a == "--patterns") patterns_path = value();
      else if (a == "--workdir") workdir = value();
      else if (a == "--cases") corpus_cfg.n_cases = parse_count(value(), a);
      else if (a == "--repeat") repeat = parse_count(value(), a);
      else if (a == "--concurrency") concurrency_list = value();
      else if (a == "--seed") corpus_cfg.seed = parse_count(value(), a);
      else if (a == "--max-failing")
        corpus_cfg.datalog.max_failing_patterns = parse_count(value(), a);
      else if (a == "--method") cfg.method = value();
      else if (a == "--deadline-ms")
        cfg.deadline_ms = static_cast<double>(parse_count(value(), a));
      else if (a == "--connect") connect = value();
      else if (a == "--coldstart") coldstart = true;
      else if (a == "--batch") {
        batch = parse_count(value(), a);
        if (batch == 0) throw std::runtime_error("--batch must be at least 1");
      } else if (a == "--batch-threads")
        service_opts.batch_threads = parse_count(value(), a);
      else if (a == "--workers") {
        service_opts.n_workers = parse_count(value(), a);
        if (service_opts.n_workers == 0)
          throw std::runtime_error("--workers must be at least 1");
      } else if (a == "--queue") {
        service_opts.queue_depth = parse_count(value(), a);
        if (service_opts.queue_depth == 0)
          throw std::runtime_error("--queue must be at least 1");
      } else if (a == "--cache-mb") {
        service_opts.cache_bytes = parse_count(value(), a) << 20;
      } else if (a == "--memo-mb") {
        service_opts.memo_bytes = parse_count(value(), a) << 20;
      } else if (a == "--emit-corpus") emit_corpus = value();
      else if (a == "--shutdown") send_shutdown = true;
      else if (a == "--trace") cfg.trace = true;
      else if (a == "--csv") csv = true;
      else if (a == "--help" || a == "-h") return usage();
      else {
        std::cerr << "openmdd_loadgen: unknown option '" << a << "'\n";
        return usage();
      }
    }
    if (repeat == 0) throw std::runtime_error("--repeat must be at least 1");
    if (circuit.empty() == (netlist_path.empty() && patterns_path.empty()))
      throw std::runtime_error(
          "need exactly one of --circuit or --netlist/--patterns");
    if (coldstart && !connect.empty())
      throw std::runtime_error("--coldstart and --connect are exclusive");
    if (coldstart && cfg.trace)
      throw std::runtime_error(
          "--trace needs a serving response (inproc or --connect)");
    if (coldstart && batch > 0)
      throw std::runtime_error(
          "--batch needs a serving mode (inproc or --connect)");

    const std::vector<std::size_t> concurrencies =
        parse_concurrency(concurrency_list);

    // Materialize circuit + pattern files and the in-memory data the
    // corpus generator needs.
    Netlist netlist;
    PatternSet patterns;
    if (!circuit.empty()) {
      BenchCircuit bench = load_bench_circuit(circuit);
      netlist = std::move(bench.netlist);
      patterns = std::move(bench.patterns);
      std::filesystem::create_directories(workdir);
      cfg.netlist_path = workdir + "/" + circuit + ".bench";
      cfg.patterns_path = workdir + "/" + circuit + ".patterns";
      {
        std::ofstream os(cfg.netlist_path);
        if (!os) throw std::runtime_error("cannot write " + cfg.netlist_path);
        write_bench(os, netlist);
      }
      write_patterns_file(cfg.patterns_path, patterns);
    } else {
      if (netlist_path.empty() || patterns_path.empty())
        throw std::runtime_error("--netlist and --patterns go together");
      netlist = load_netlist(netlist_path);
      patterns = read_patterns_file(patterns_path);
      if (patterns.n_signals() != netlist.n_inputs())
        throw std::runtime_error(
            "pattern width does not match netlist inputs");
      cfg.netlist_path = netlist_path;
      cfg.patterns_path = patterns_path;
    }

    const PatternSet good = simulate(netlist, patterns);
    const std::vector<LoadgenCase> corpus =
        make_corpus(netlist, patterns, good, corpus_cfg);
    if (corpus.empty())
      throw std::runtime_error("corpus is empty (defect sampling failed "
                               "for every case; try a larger circuit)");
    std::cerr << "openmdd_loadgen: " << corpus.size() << " datalogs for "
              << netlist.name() << " (" << patterns.n_patterns()
              << " patterns, seed " << corpus_cfg.seed << ")\n";

    if (!emit_corpus.empty()) {
      std::filesystem::create_directories(emit_corpus);
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        std::ostringstream name;
        name << emit_corpus << "/case_" << i << ".datalog";
        std::ofstream os(name.str());
        if (!os) throw std::runtime_error("cannot write " + name.str());
        os << corpus[i].datalog_text;
      }
      std::cerr << "openmdd_loadgen: wrote corpus to " << emit_corpus
                << "\n";
    }

    const std::string mode =
        coldstart ? "coldstart" : (!connect.empty() ? "tcp" : "inproc");
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    if (!connect.empty()) {
      const std::size_t colon = connect.rfind(':');
      if (colon == std::string::npos)
        throw std::runtime_error("--connect wants HOST:PORT");
      host = connect.substr(0, colon);
      port = static_cast<std::uint16_t>(
          parse_count(connect.substr(colon + 1), "--connect port"));
    }

    std::unique_ptr<server::DiagnosisService> service;
    if (mode == "inproc") {
      // Make sure closed-loop clients never trip backpressure: they issue
      // at most `concurrency` requests at a time.
      std::size_t max_conc = 0;
      for (const std::size_t c : concurrencies)
        max_conc = std::max(max_conc, c);
      service_opts.queue_depth =
          std::max(service_opts.queue_depth, 2 * max_conc);
      service = std::make_unique<server::DiagnosisService>(service_opts);
    }

    // Stats snapshot of the serving side, for memo hit-rate deltas (one
    // sample before and after each concurrency level). Coldstart has no
    // serving side; its samples stay zero and the columns print "-".
    const auto fetch_stats = [&]() -> server::Json {
      if (mode == "inproc") return service->stats_json();
      if (mode == "tcp") {
        server::TcpLineClient client(host, port);
        server::Json req;
        req.set("op", "stats");
        const server::Json r = server::Json::parse(
            client.roundtrip(req.dump()));
        if (const server::Json* stats = r.find("stats")) return *stats;
      }
      return server::Json();
    };

    const std::string run_mode = batch > 0 ? "batch" : mode;
    TextTable table({"mode", "conc", "reqs", "dlogs", "ok", "timeout",
                     "overld", "err", "wall_s", "req/s", "dlogs/s",
                     "sig_hit%", "comp_hit%", "p50_ms", "p95_ms", "p99_ms",
                     "max_ms"});
    StageStats stage_stats;
    OpBreakdown breakdown;
    bool any_error = false;
    const std::string op = batch > 0 ? "diagnose_batch" : "diagnose";
    for (const std::size_t conc : concurrencies) {
      const std::size_t n_datalogs = corpus.size() * repeat;
      const std::size_t reqs =
          batch > 0 ? (n_datalogs + batch - 1) / batch : n_datalogs;
      const auto make = [&](std::size_t i) {
        if (batch == 0) return make_request(cfg, corpus[i % corpus.size()], i);
        const std::size_t first = i * batch;
        return make_batch_request(cfg, corpus, first,
                                  std::min(batch, n_datalogs - first),
                                  service_opts.batch_threads, i);
      };
      const MemoSample before = memo_sample(fetch_stats());
      RunStats stats;
      if (mode == "coldstart") {
        stats = run_closed_loop(
            reqs, conc, make, [&](std::size_t, server::Json request) {
              const std::string status = execute_cold(cfg, request);
              server::Json response;
              response.set("status", status);
              breakdown.add(op, response);
              return status;
            });
      } else if (mode == "tcp") {
        std::vector<std::unique_ptr<server::TcpLineClient>> clients;
        for (std::size_t w = 0; w < conc; ++w)
          clients.push_back(
              std::make_unique<server::TcpLineClient>(host, port));
        // Warm the session once so every timed concurrency level measures
        // resident serving, not the first parse.
        clients[0]->roundtrip(make_request(cfg, corpus[0], 0).dump());
        stats = run_closed_loop(
            reqs, conc, make, [&](std::size_t w, server::Json request) {
              const server::Json response = server::Json::parse(
                  clients[w]->roundtrip(request.dump()));
              if (cfg.trace) stage_stats.add(response);
              breakdown.add(op, response);
              return response.get_string("status", "error");
            });
      } else {
        service->handle(make_request(cfg, corpus[0], 0));  // warm
        stats = run_closed_loop(
            reqs, conc, make, [&](std::size_t, server::Json request) {
              std::promise<std::string> done;
              auto got = done.get_future();
              service->submit(std::move(request), [&](server::Json r) {
                if (cfg.trace) stage_stats.add(r);
                breakdown.add(op, r);
                done.set_value(r.get_string("status", "error"));
              });
              return got.get();
            });
      }
      const MemoSample after = memo_sample(fetch_stats());
      any_error |= stats.n_error > 0;
      table.add_row(
          {run_mode, std::to_string(conc), std::to_string(reqs),
           std::to_string(n_datalogs), std::to_string(stats.n_ok),
           std::to_string(stats.n_timeout),
           std::to_string(stats.n_overloaded), std::to_string(stats.n_error),
           fmt(stats.wall_s, 3),
           fmt(stats.wall_s > 0 ? reqs / stats.wall_s : 0.0, 1),
           fmt(stats.wall_s > 0 ? n_datalogs / stats.wall_s : 0.0, 1),
           hit_rate(after.sig_hits - before.sig_hits,
                    after.sig_misses - before.sig_misses),
           hit_rate(after.comp_hits - before.comp_hits,
                    after.comp_misses - before.comp_misses),
           fmt(stats.latency.p50_ms, 2), fmt(stats.latency.p95_ms, 2),
           fmt(stats.latency.p99_ms, 2), fmt(stats.latency.max_ms, 2)});
    }
    if (csv)
      table.print_csv(std::cout);
    else
      table.print(std::cout);
    std::cout << "\n";
    breakdown.print(std::cout, csv);
    if (cfg.trace) {
      std::cout << "\n";
      stage_stats.print(std::cout, csv);
    }

    if (send_shutdown && mode == "tcp") {
      server::TcpLineClient client(host, port);
      server::Json req;
      req.set("op", "shutdown");
      client.roundtrip(req.dump());
      std::cerr << "openmdd_loadgen: server shut down\n";
    }
    return any_error ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "openmdd_loadgen: " << e.what() << "\n";
    return 1;
  }
}
