// openmdd served-diagnosis benchmark.
//
//   mdd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --bin-dir DIR [--work-root DIR]
//
// One run: build the workload's circuit and datalogs from the seed, set
// up a fresh openmdd_serve daemon (several times; the median is setup_s),
// drive the last one closed-loop over TCP for a ramp plus S measured
// seconds, then replay the same requests in-process with spans around
// every layer. The served reports must equal the replay's byte for byte.
// The last stdout line is the result object: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Spans and a run record
// (kernel, nproc, seed, registry deltas) are written under the work root.
//
// Workloads (see README.md for why each exists):
//   g1k-distinct       every datalog once, k = 2..6, 4 clients
//   g200-hot           a small k = 1..3 corpus replayed hot, 4 clients
//   g1k-volume-tiered  streamed diagnose_batch over a dictionary store
//                      with memory tiers below the working set
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "corpus.hpp"
#include "daemon.hpp"
#include "load.hpp"
#include "netlist/bench_parser.hpp"
#include "obs/metrics.hpp"
#include "replay.hpp"
#include "server/json.hpp"
#include "server/serve.hpp"
#include "sim/sim2.hpp"
#include "store/format.hpp"
#include "store/reader.hpp"
#include "workload/textio.hpp"

namespace fs = std::filesystem;
using mdd::server::Json;
using namespace perfbench;

namespace {

/// Closed-loop clients (and the daemon's workers, and the replay's
/// threads): one per core of the 4-core target machine.
constexpr std::size_t kClients = 4;
/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 11;
/// Load served before the measured window (see load.hpp), and the number
/// of slices the window is cut into.
constexpr double kRampSeconds = 2.0;
constexpr std::size_t kSlices = 5;
/// Distinct datalogs of the hot workload: large enough that the rate and
/// latency do not hinge on the defects one seed happened to draw.
constexpr std::size_t kHotCorpus = 480;
/// The least share of the traced replay's thread time its layer spans
/// must account for on the per-datalog workloads.
constexpr double kMinCoverage = 0.9;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;
  std::string work_root = ".bench_runs";
};

struct WorkloadConfig {
  std::string circuit;
  bool volume = false;  ///< streamed diagnose_batch over a store
  bool hot = false;     ///< warm-up pass, then the corpus replayed
  std::size_t memo_mb = 256;
  std::size_t composite_mb = 64;
};

WorkloadConfig workload_config(const std::string& name) {
  WorkloadConfig w;
  if (name == "g1k-distinct") {
    w.circuit = "g1k";
  } else if (name == "g200-hot") {
    w.circuit = "g200";
    w.hot = true;
  } else if (name == "g1k-volume-tiered") {
    w.circuit = "g1k";
    w.volume = true;
    // Far below the stream's working set: both memos evict on every
    // batch (about a million signature evictions per 15 s window), so
    // misses fall through to the store and the .cspill tier.
    w.memo_mb = 16;
    w.composite_mb = 2;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) { return 1000.0 * seconds_since(t0); }

std::string request_line(const Circuit& c, std::int64_t id,
                         const std::string& datalog) {
  Json r;
  r.set("id", id);
  r.set("op", "diagnose");
  r.set("netlist", c.netlist_path);
  r.set("patterns", c.patterns_path);
  r.set("datalog", datalog);
  r.set("method", "multiplet");
  return r.dump();
}

// ---------------------------------------------------------------------------
// Inputs per workload.

struct Inputs {
  std::vector<mdd::LoadgenCase> cases;  ///< indexed by datalog id
  std::vector<Request> requests;  ///< the measured sequence (cycled if hot)
};

/// Draws of the streams taken in turn (round robin) up to the shortest
/// one (make_corpus skips a case whose defect sampling fails).
std::vector<mdd::LoadgenCase> interleave(
    std::vector<std::vector<mdd::LoadgenCase>> streams) {
  std::size_t n = SIZE_MAX;
  for (const auto& s : streams) n = std::min(n, s.size());
  std::vector<mdd::LoadgenCase> out;
  for (std::size_t i = 0; i < n; ++i)
    for (auto& s : streams) out.push_back(std::move(s[i]));
  return out;
}

Inputs make_inputs(const WorkloadConfig& w, const Circuit& c,
                   const Args& args) {
  // The load runs closed-loop, so the sequence must outlast the ramp and
  // the window at any rate a faster build may reach: about ten times
  // today's served rate (20 datalogs/s on g1k-distinct, 2.4 batches/s on
  // the tiered workload, 4-vCPU VM). A run whose sequence runs out fails.
  const double load_s = kRampSeconds + args.seconds;
  if (!w.volume) {
    // g200-hot: k = 1..3, replayed; g1k-distinct: k = 2..6, sent once.
    std::vector<Stream> streams;
    if (w.hot) {
      for (std::size_t k = 1; k <= 3; ++k)
        streams.push_back({k, kHotCorpus / 3});
    } else {
      const auto per_k =
          static_cast<std::size_t>(std::ceil(load_s * 200 / 5));
      for (std::size_t k = 2; k <= 6; ++k) streams.push_back({k, per_k});
    }
    Inputs in{interleave(make_streams(c, streams, args.seed)), {}};
    for (std::size_t i = 0; i < in.cases.size(); ++i)
      in.requests.push_back(
          {request_line(c, static_cast<std::int64_t>(i),
                        in.cases[i].datalog_text),
           {static_cast<std::int64_t>(i)}});
    return in;
  }
  // Each batch: two of the 16 recurring systematic defects (taken in
  // turn, so each recurs every 8 batches, its truncation rotating over
  // full / 12 / 6 failing patterns so it arrives under different windows)
  // plus one fresh random multiplet of each k = 1..3, full and truncated
  // to 8. Sixteen rather than fewer: a quarter of the datalogs come from
  // them, so few of them would make the rate hinge on the seed's draw.
  constexpr std::size_t kSystematic = 16, kSystematicPerBatch = 2;
  const auto n_batches = static_cast<std::size_t>(std::ceil(load_s * 24));
  const std::size_t truncations[] = {SIZE_MAX, 12, 6};
  std::vector<Stream> streams = {{1, kSystematic / 2}, {2, kSystematic / 2}};
  for (std::size_t k = 1; k <= 3; ++k)
    for (std::size_t cut : {SIZE_MAX, std::size_t{8}})
      streams.push_back({k, n_batches, cut});
  const auto drawn = make_streams(c, streams, args.seed);
  const std::vector<mdd::LoadgenCase> systematic =
      interleave({drawn[0], drawn[1]});
  std::size_t n_random = SIZE_MAX;
  for (std::size_t s = 2; s < drawn.size(); ++s)
    n_random = std::min(n_random, drawn[s].size());
  if (systematic.size() != kSystematic || n_random < n_batches)
    throw std::runtime_error("defect sampling failed for the tiered mix");
  // The systematic defects' datalogs under each truncation.
  std::vector<std::vector<mdd::LoadgenCase>> variants(kSystematic);
  for (std::size_t s = 0; s < kSystematic; ++s)
    for (std::size_t cut : truncations)
      variants[s].push_back(case_of(c, systematic[s].defect, cut));

  Inputs in;
  for (std::size_t b = 0; b < n_batches; ++b) {
    std::vector<std::int64_t> ids;
    for (std::size_t j = 0; j < kSystematicPerBatch; ++j) {
      const std::size_t slot = b * kSystematicPerBatch + j;
      ids.push_back(static_cast<std::int64_t>(in.cases.size()));
      in.cases.push_back(
          variants[slot % kSystematic][(slot / kSystematic) % 3]);
    }
    for (std::size_t s = 2; s < drawn.size(); ++s) {
      ids.push_back(static_cast<std::int64_t>(in.cases.size()));
      in.cases.push_back(drawn[s][b]);
    }
    Json r;
    r.set("id", static_cast<std::int64_t>(b));
    r.set("op", "diagnose_batch");
    r.set("netlist", c.netlist_path);
    r.set("patterns", c.patterns_path);
    mdd::server::JsonArray texts;
    for (std::int64_t id : ids)
      texts.emplace_back(in.cases[static_cast<std::size_t>(id)].datalog_text);
    r.set("datalogs", Json(std::move(texts)));
    r.set("method", "multiplet");
    r.set("stream", true);
    r.set("threads", kClients);
    in.requests.push_back({r.dump(), std::move(ids)});
  }
  return in;
}

// ---------------------------------------------------------------------------
// Counters.

std::map<std::string, double> local_counters() {
  std::map<std::string, double> out;
  for (const mdd::obs::CounterSample& c :
       mdd::obs::registry().snapshot().counters)
    out[c.name] = static_cast<double>(c.value);
  return out;
}

std::map<std::string, double> delta(const std::map<std::string, double>& a,
                                    const std::map<std::string, double>& b) {
  std::map<std::string, double> out;
  for (const auto& [name, v] : b) {
    const auto it = a.find(name);
    out[name] = v - (it == a.end() ? 0.0 : it->second);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Set-up: fresh store copy (volume), fresh daemon, session load, warm-up.

struct Setup {
  std::unique_ptr<Daemon> daemon;
  double setup_s = 0.0;
  double dict_build_s = 0.0;
};

Setup set_up(const Args& args, const WorkloadConfig& w, const Circuit& c,
             const fs::path& dir) {
  fs::create_directories(dir);
  Setup s;
  const auto t0 = Clock::now();
  std::vector<std::string> argv = {args.bin_dir + "/openmdd_serve", "--port",
                                   "0", "--workers", std::to_string(kClients)};
  if (w.volume) {
    const fs::path dict = dir / "dict";
    run_tool({args.bin_dir + "/openmdd", "dict", "build", c.netlist_path,
              "--patterns", c.patterns_path, "--store-dir", dict.string(),
              "--threads", std::to_string(kClients)},
             (dir / "dict_build.log").string());
    s.dict_build_s = seconds_since(t0);
    // The daemon gets a copy holding only the dictionary: its .journal and
    // .cspill start empty.
    const fs::path store = dir / "store";
    fs::create_directories(store);
    const std::string name =
        fs::path(mdd::store::store_path_for(dict.string(), c.netlist,
                                            c.patterns))
            .filename()
            .string();
    fs::copy_file(dict / name, store / name);
    argv.insert(argv.end(),
                {"--store-dir", store.string(), "--memo-mb",
                 std::to_string(w.memo_mb), "--composite-mb",
                 std::to_string(w.composite_mb), "--batch-threads",
                 std::to_string(kClients)});
  }
  s.daemon = std::make_unique<Daemon>(argv, (dir / "daemon.log").string());
  {
    // A datalog without failures loads the session and diagnoses nothing.
    mdd::server::TcpLineClient client("127.0.0.1", s.daemon->port());
    const std::string empty =
        "datalog\napplied " + std::to_string(c.patterns.n_patterns()) + "\n";
    const Json r = Json::parse(client.roundtrip(request_line(c, -1, empty)));
    if (r.get_string("status") != "ok")
      throw std::runtime_error("session load failed: " + r.dump());
  }
  s.setup_s = seconds_since(t0);
  return s;
}

/// The hot workload's warm-up: one pass over the corpus, on the serving
/// daemon only. Its time is a per-layer metric rather than part of
/// setup_s: a memo-filling pass over hundreds of datalogs would make
/// setup_s mostly diagnosis time.
double warm_up(const Daemon& daemon, const Inputs& in) {
  const auto t0 = Clock::now();
  const Served warm =
      serve_diagnose(daemon.port(), in.requests, kClients, t0, 0, false);
  if (warm.not_ok > 0) throw std::runtime_error("warm-up pass failed");
  return seconds_since(t0);
}

// ---------------------------------------------------------------------------
// One-off layer probes on the circuit files (median of three).

struct Probes {
  double netlist_parse_ms = 0, good_ms = 0, gate_words_per_s = 0;
  double baseline_ms = 0, store_open_ms = 0;
};

Probes probe_layers(const Circuit& c, const std::string& store_file) {
  std::vector<double> parse, good, baseline, open;
  for (int rep = 0; rep < 3; ++rep) {
    auto t = Clock::now();
    const mdd::Netlist nl = mdd::parse_bench_file(c.netlist_path).netlist;
    parse.push_back(ms_since(t));
    const mdd::PatternSet patterns = mdd::read_patterns_file(c.patterns_path);
    t = Clock::now();
    const mdd::PatternSet g = mdd::simulate(nl, patterns);
    good.push_back(ms_since(t));
    t = Clock::now();
    const auto b = mdd::SingleFaultPropagator::make_baseline(nl, patterns);
    baseline.push_back(ms_since(t));
    if (!store_file.empty()) {
      t = Clock::now();
      const auto reader = mdd::store::DictReader::open(store_file);
      reader->validate_for(nl, patterns);
      open.push_back(ms_since(t));
    }
  }
  Probes p;
  p.netlist_parse_ms = median(parse);
  p.good_ms = median(good);
  p.gate_words_per_s = static_cast<double>(c.netlist.n_gates()) *
                       static_cast<double>(c.patterns.n_blocks()) /
                       (p.good_ms / 1000.0);
  p.baseline_ms = median(baseline);
  p.store_open_ms = median(open);
  return p;
}

// ---------------------------------------------------------------------------

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--bin-dir") a.bin_dir = v;
    else if (k == "--work-root") a.work_root = v;
    else throw std::invalid_argument("unknown option " + k);
  }
  if (a.workload.empty() || a.bin_dir.empty() || !(a.seconds > 0))
    throw std::invalid_argument(
        "usage: mdd_perfbench --workload NAME --seed N --seconds S "
        "--trace 0|1 --bin-dir DIR [--work-root DIR]");
  return a;
}

std::string kernel_of(const Args& args, const fs::path& dir) {
  const std::string out = run_tool({args.bin_dir + "/openmdd", "version"},
                                   (dir / "version.log").string());
  const std::string key = "fsim.kernel: ";
  const std::size_t at = out.find(key);
  if (at == std::string::npos) return "unknown";
  const std::size_t end = out.find(' ', at + key.size());
  return out.substr(at + key.size(), end - at - key.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Generated circuits are kept between runs under a directory named by
/// this executable's content hash, so a rebuilt generator never reads
/// circuits an older build wrote.
fs::path circuit_cache(const fs::path& root) {
  std::ifstream exe("/proc/self/exe", std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(exe)),
                          std::istreambuf_iterator<char>());
  if (bytes.empty()) throw std::runtime_error("cannot read /proc/self/exe");
  std::ostringstream name;
  name << "circuits-" << std::hex
       << mdd::store::fnv1a(bytes.data(), bytes.size());
  const fs::path dir = root / name.str();
  fs::create_directories(dir);
  return dir;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int run(const Args& args) {
  const WorkloadConfig w = workload_config(args.workload);
  const fs::path root = fs::absolute(args.work_root);
  const std::string tag = args.workload + "-seed" + std::to_string(args.seed) +
                          "-trace" + std::to_string(args.trace ? 1 : 0);
  const fs::path dir = root / ("run-" + tag + "-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto t_start = Clock::now();
  const std::string kernel = kernel_of(args, dir);
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const Circuit circuit =
      make_circuit(w.circuit, circuit_cache(root).string(), dir.string());
  const double circuit_s = seconds_since(t_start);
  const Inputs in = make_inputs(w, circuit, args);
  const double prep_s = seconds_since(t_start);

  // Set-up, kSetups times on fresh directories; the last daemon serves.
  std::vector<double> setup_s, dict_build_s;
  Setup live;
  for (std::size_t rep = 0; rep < kSetups; ++rep) {
    Setup s = set_up(args, w, circuit, dir / ("setup" + std::to_string(rep)));
    setup_s.push_back(s.setup_s);
    dict_build_s.push_back(s.dict_build_s);
    if (rep + 1 == kSetups) live = std::move(s);
    else s.daemon->stop();
  }
  Daemon& daemon = *live.daemon;
  const double warmup_s = w.hot ? warm_up(daemon, in) : 0.0;

  // The load: a ramp, then the measured window. A sampler thread reads
  // the daemon's registry and CPU time at the window's slice boundaries.
  const auto start = Clock::now();
  std::vector<double> cpu_at(kSlices + 1, 0.0);
  std::map<std::string, double> counters_before;
  std::string sampler_error;
  std::thread sampler([&] {
    try {
      for (std::size_t k = 0; k < kSlices; ++k) {
        const double at = kRampSeconds + args.seconds *
                                             static_cast<double>(k) /
                                             static_cast<double>(kSlices);
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(at)));
        if (k == 0) counters_before = registry_counters(daemon.port());
        cpu_at[k] = process_cpu_ms(daemon.pid());
      }
    } catch (const std::exception& e) {
      sampler_error = e.what();
    }
  });
  Served served;
  try {
    served = w.volume
                 ? serve_batches(daemon.port(), in.requests, start,
                                 kRampSeconds + args.seconds)
                 : serve_diagnose(daemon.port(), in.requests, kClients, start,
                                  kRampSeconds + args.seconds, w.hot);
  } catch (...) {
    sampler.join();
    throw;
  }
  sampler.join();
  if (!sampler_error.empty()) throw std::runtime_error(sampler_error);
  cpu_at[kSlices] = process_cpu_ms(daemon.pid());
  const double peak_rss_mb = process_peak_rss_mb(daemon.pid());
  const auto served_counters =
      delta(counters_before, registry_counters(daemon.port()));
  daemon.stop();
  const WindowStats window =
      window_stats(served, kRampSeconds, args.seconds, cpu_at);

  const auto t_replay = Clock::now();
  // The traced in-process replay of the same requests.
  ReplayOptions ro;
  ro.memo_bytes = w.memo_mb << 20;
  ro.composite_bytes = w.composite_mb << 20;
  std::string store_file;
  if (w.volume) {
    const fs::path store = dir / "replay-store";
    fs::create_directories(store);
    const std::string name =
        fs::path(mdd::store::store_path_for("", circuit.netlist,
                                            circuit.patterns))
            .filename()
            .string();
    fs::copy_file(
        dir / ("setup" + std::to_string(kSetups - 1)) / "dict" / name,
        store / name);
    ro.store_dir = store.string();
    store_file = (store / name).string();
  }
  const Probes probes = probe_layers(circuit, store_file);
  Replay replay(circuit, in.cases, ro);
  replay.load_session();
  if (w.hot) replay.run_diagnose(in.requests, false);  // set-up warm-up pass
  const auto local_before = local_counters();
  const std::vector<Request> sent(
      in.requests.begin(),
      in.requests.begin() +
          static_cast<std::ptrdiff_t>(
              std::min(served.requests_sent, in.requests.size())));
  if (w.volume) {
    replay.run_batches(sent);
  } else if (w.hot) {
    replay.run_diagnose(in.requests, true);
  } else {
    replay.run_diagnose(sent, true);
  }
  const auto local = delta(local_before, local_counters());
  const double replay_s = seconds_since(t_replay);

  // Output check: every served datalog's reports equal the replay's.
  std::size_t mismatched = 0;
  double hit_sum = 0, precision_sum = 0, candidates_sum = 0;
  for (const auto& [id, variants] : served.reports) {
    const auto it = replay.results().find(id);
    if (it == replay.results().end() || variants.size() != 1 ||
        *variants.begin() != it->second.reports)
      ++mismatched;
  }
  for (const auto& [id, r] : replay.results()) {
    hit_sum += r.hit_rate;
    precision_sum += r.precision;
    candidates_sum += static_cast<double>(r.n_candidates);
  }
  const double n_checked = static_cast<double>(replay.results().size());
  const double datalogs = window.datalogs;

  // Per-layer self times from the replay's spans. Coverage: their sum
  // over the replay's thread time (wall time × threads), which also holds
  // what no span covers (truth evaluation, hand-off between requests,
  // idle threads at the end of a pass).
  const std::vector<SpanRecord> spans = replay.spans();
  const auto layers = layer_totals(spans);
  double layer_ms = 0.0;
  for (const auto& [name, t] : layers)
    if (name != "request" && name != "batch" && name != "sessions.load")
      layer_ms += t.self_ms;
  const double thread_ms =
      1000.0 * replay.wall_s() * static_cast<double>(ro.threads);
  const double coverage = ratio(layer_ms, thread_ms);
  const bool coverage_low = !w.volume && coverage < kMinCoverage;
  if (coverage_low)
    std::cerr << "perfbench: layer spans cover " << coverage
              << " of the traced replay's thread time, below "
              << kMinCoverage << "\n";
  const std::size_t failed =
      served.not_ok + mismatched + (coverage_low ? 1 : 0);
  const auto self_ms = [&](const std::string& name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_ms;
  };
  const auto count_of = [&](const std::string& name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const double traced = static_cast<double>(replay.datalogs());
  const auto per_datalog = [&](const std::string& name) {
    return ratio(self_ms(name), traced);
  };
  const auto c =[&](const std::string& name) {
    const auto it = served_counters.find(name);
    return it == served_counters.end() ? 0.0 : it->second;
  };
  const auto lc = [&](const std::string& name) {
    const auto it = local.find(name);
    return it == local.end() ? 0.0 : it->second;
  };
  const double sig_lookups =
      c("memo.signature.hits") + c("memo.signature.misses");
  const double comp_lookups =
      c("memo.composite.hits") + c("memo.composite.misses");
  const double store_lookups = c("store.hits") + c("store.misses");
  const double spill_lookups = c("store.spill_hits") + c("store.spill_misses");

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"datalogs_per_s", window.datalogs_per_s, "1/s"},
        {"latency_p50_ms", window.latency_p50_ms, "ms"},
        {"latency_tail_ms", window.latency_tail_ms, "ms"},
        {"cpu_ms_per_datalog", window.cpu_ms_per_datalog, "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"diag_hit_rate", ratio(hit_sum, n_checked), "ratio"},
        {"diag_precision", ratio(precision_sum, n_checked), "ratio"},
    };
  } else {
    metrics = {
        {"server.request_parse_ms", per_datalog("server.request_parse"), "ms"},
        {"server.serialize_ms", per_datalog("server.serialize"), "ms"},
        {"server.queue_wait_ms", window.queue_wait_ms, "ms"},
        {"sessions.load_ms", self_ms("sessions.load"), "ms"},
        {"server.warmup_s", warmup_s, "s"},
        {"sessions.get_ms",
         ratio(self_ms("sessions.get"), count_of("sessions.get")), "ms"},
        {"memo.signature.hit_ratio",
         ratio(c("memo.signature.hits"), sig_lookups), "ratio"},
        {"memo.signature.lookups", sig_lookups, "count"},
        {"memo.composite.hit_ratio",
         ratio(c("memo.composite.hits"), comp_lookups), "ratio"},
        {"memo.composite.lookups", comp_lookups, "count"},
        {"memo.signature.evictions", c("memo.signature.evictions"), "count"},
        {"memo.composite.evictions", c("memo.composite.evictions"), "count"},
        {"netlist.parse_ms", probes.netlist_parse_ms, "ms"},
        {"sim.good_ms", probes.good_ms, "ms"},
        {"sim.gate_words_per_s", probes.gate_words_per_s, "1/s"},
        {"propagate.baseline_ms", probes.baseline_ms, "ms"},
        {"diag.datalog_parse_ms", per_datalog("diag.datalog_parse"), "ms"},
        {"diag.context_ms", per_datalog("diag.context"), "ms"},
        {"diag.extract_ms", per_datalog("diag.extract"), "ms"},
        {"diag.candidates", ratio(candidates_sum, n_checked), "count"},
        {"diag.solo_warm_ms", per_datalog("diag.solo_warm"), "ms"},
        {"diag.solo_computes", ratio(c("diag.solo_computes"), datalogs),
         "count"},
        {"diag.rank_ms", per_datalog("diag.rank"), "ms"},
        {"diag.composite_evals", ratio(c("diag.composite_evals"), datalogs),
         "count"},
        {"diag.composite_evals_per_s",
         ratio(lc("diag.composite_evals"), self_ms("diag.rank") / 1000.0),
         "1/s"},
        {"volume.aggregate_ms",
         ratio(self_ms("volume.aggregate"), count_of("batch")), "ms"},
        {"store.dict_build_s", median(dict_build_s), "s"},
        {"store.open_ms", probes.store_open_ms, "ms"},
        {"store.warm_ms", per_datalog("store.warm"), "ms"},
        {"store.hit_ratio", ratio(c("store.hits"), store_lookups), "ratio"},
        {"store.lookups", store_lookups, "count"},
        {"store.spill_hit_ratio",
         ratio(c("store.spill_hits"), spill_lookups), "ratio"},
        {"store.spill_lookups", spill_lookups, "count"},
        {"trace.coverage", coverage, "ratio"},
        {"trace.datalogs_per_s", ratio(traced, replay.wall_s()), "1/s"},
        {"trace.served_datalogs_per_s", window.datalogs_per_s, "1/s"},
    };
  }

  // Human-readable report, then the run record and spans on disk.
  std::cout << "perfbench " << args.workload << " seed " << args.seed
            << " kernel " << kernel << " nproc " << nproc << "\n"
            << "  served " << served.attempted << " datalogs in "
            << served.requests.size() << " requests over " << served.wall_s
            << " s (" << window.datalogs << " in the measured window); traced"
            << " replay " << replay.datalogs() << " datalogs at "
            << ratio(traced, replay.wall_s()) << "/s vs served "
            << window.datalogs_per_s << "/s\n"
            << "  latency tail = p" << window.tail_percentile << " of "
            << window.latency_samples << " requests, median of "
            << window.latency_groups << " groups; coverage " << coverage
            << "; failed " << failed << " (not ok " << served.not_ok
            << ", mismatched " << mismatched << ")\n"
            << "  phases: circuit " << circuit_s << " s, inputs " << prep_s
            << " s, replay " << replay_s << " s, total "
            << seconds_since(t_start) << " s\n";
  for (const Metric& m : metrics)
    std::cout << "  " << std::left << std::setw(32) << m.name << " "
              << m.value << " " << m.unit << "\n";

  Json record;
  record.set("workload", args.workload);
  record.set("seed", static_cast<double>(args.seed));
  record.set("seconds", args.seconds);
  record.set("kernel", kernel);
  record.set("nproc", static_cast<double>(nproc));
  record.set("ramp_s", kRampSeconds);
  mdd::server::JsonArray slice_rates;
  for (double r : window.slice_rates) slice_rates.emplace_back(r);
  record.set("slice_datalogs_per_s", Json(std::move(slice_rates)));
  record.set("latency_tail_percentile", window.tail_percentile);
  record.set("latency_samples_per_group", window.latency_samples);
  record.set("latency_groups", window.latency_groups);
  Json setups;
  for (std::size_t i = 0; i < setup_s.size(); ++i)
    setups.set(std::to_string(i), setup_s[i]);
  record.set("setup_s", std::move(setups));
  record.set("warmup_s", warmup_s);
  record.set("trace_coverage", coverage);
  Json registry;
  for (const auto& [name, v] : served_counters)
    if (v != 0) registry.set(name, v);
  record.set("registry_delta", std::move(registry));
  Json result;
  result.set("correct", failed == 0);
  result.set("attempted",
             static_cast<double>(std::max<std::size_t>(1, served.attempted)));
  result.set("failed", static_cast<double>(failed));
  Json metric_json;
  for (const Metric& m : metrics) {
    Json v;
    v.set("value", m.value);
    v.set("unit", m.unit);
    metric_json.set(m.name, std::move(v));
  }
  result.set("metrics", std::move(metric_json));
  record.set("result", result);
  {
    std::ofstream os(root / (tag + ".json"));
    os << record.dump() << "\n";
  }
  write_spans((root / (tag + ".spans.jsonl")).string(), spans,
              spans.empty() ? Clock::now() : spans.front().start);
  fs::remove_all(dir);
  std::cout << result.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
