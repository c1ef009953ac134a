// Perf F — volume-diagnosis streaming throughput (google-benchmark).
//
// Measures the tentpole claim of the batch pipeline on g1k: a stream of
// tester datalogs (a few distinct defects, each recurring several times
// — the volume-diagnosis shape) diagnosed three ways:
//
//   IndependentSingles   one cold DiagnosisContext per datalog: what N
//                        unrelated `openmdd diagnose` invocations pay
//                        after circuit load (no shared memo state).
//   ResidentSingles      N sequential `op=diagnose` requests against one
//                        service: session memos warm ACROSS requests.
//   Batch/T              one `op=diagnose_batch` request at T datalog
//                        threads: same shared memos plus datalog-level
//                        parallelism from the private worker group.
//   BatchTiered          30 batches of 8 in the tiered serving mix (2
//                        recurring systematic defects under rotating
//                        truncation, 6 fresh random multiplets, full and
//                        cut) at 4 threads, 16 MiB signature and 2 MiB
//                        composite memos, no store: what one batch's
//                        shared solo warm saves when memos evict.
//
// Every arm exports datalogs_per_s; the batch-vs-independent ratio is
// the amortization multiple EXPERIMENTS.md quotes. BatchTiered also
// exports the solo simulations per batch (`amortization.solo_computes`).
//
//   ./build/bench/perf_volume                  # google-benchmark arms
//   ./build/bench/perf_volume --volume-check   # one timed pass of the
//        independent and batch arms; verifies per-datalog reports are
//        byte-identical and exits 1 unless batch >= 2x datalogs/s.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "diag/multiplet.hpp"
#include "netlist/bench_parser.hpp"
#include "server/result_json.hpp"
#include "server/service.hpp"
#include "sim/kernel.hpp"
#include "workload/circuits.hpp"
#include "workload/loadgen.hpp"
#include "workload/textio.hpp"

namespace {

using namespace mdd;

constexpr std::size_t kDistinct = 3;  ///< distinct defects in the stream
constexpr std::size_t kRepeats = 6;   ///< recurrences per defect

struct Fixture {
  std::string netlist_path = "/tmp/perf_volume_g1k.bench";
  std::string patterns_path = "/tmp/perf_volume_g1k.patterns";
  Netlist netlist;
  PatternSet patterns;
  /// Datalog texts in stream order: defect i recurs every kDistinct
  /// entries, like the same systematic defect surfacing on many dies.
  std::vector<std::string> stream;

  Fixture() {
    const BenchCircuit bc = load_bench_circuit("g1k");
    {
      std::ofstream os(netlist_path);
      write_bench(os, bc.netlist);
    }
    write_patterns_file(patterns_path, bc.patterns);
    // Both arms must see the circuit EXACTLY as the service does — parsed
    // back from the emitted file — or candidate enumeration order (and so
    // deep suspect ordering) drifts from the write/parse round-trip.
    netlist = parse_bench_file(netlist_path).netlist;
    patterns = read_patterns_file(patterns_path);
    CorpusConfig cfg;
    cfg.n_cases = kDistinct;
    cfg.seed = 3;
    const PatternSet good = simulate(netlist, patterns);
    const std::vector<LoadgenCase> corpus =
        make_corpus(netlist, patterns, good, cfg);
    for (std::size_t r = 0; r < kRepeats; ++r)
      for (const LoadgenCase& lc : corpus) stream.push_back(lc.datalog_text);
  }

  server::Json single_request(std::size_t i) const {
    server::Json r;
    r.set("op", "diagnose");
    r.set("netlist", netlist_path);
    r.set("patterns", patterns_path);
    r.set("datalog", stream[i]);
    r.set("method", "multiplet");
    return r;
  }

  server::Json batch_request(std::size_t threads) const {
    server::Json r;
    r.set("op", "diagnose_batch");
    r.set("netlist", netlist_path);
    r.set("patterns", patterns_path);
    server::JsonArray datalogs;
    datalogs.reserve(stream.size());
    for (const std::string& text : stream) datalogs.emplace_back(text);
    r.set("datalogs", server::Json(std::move(datalogs)));
    r.set("method", "multiplet");
    r.set("threads", threads);
    return r;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

/// The no-amortization baseline: every datalog gets a cold context, so
/// every candidate signature and composite is simulated from scratch.
std::vector<server::Json> run_independent(const Fixture& f) {
  std::vector<server::Json> reports;
  reports.reserve(f.stream.size());
  for (const std::string& text : f.stream) {
    std::istringstream in(text);
    const Datalog log = read_datalog(in, f.netlist);
    DiagnosisContext ctx(f.netlist, f.patterns, log);
    const DiagnosisReport report = diagnose_multiplet(ctx);
    reports.push_back(server::report_to_json(report, f.netlist));
  }
  return reports;
}

void BM_VolumeIndependentSingles(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_independent(f));
  }
  state.counters["datalogs_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * f.stream.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VolumeIndependentSingles)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_VolumeResidentSingles(benchmark::State& state) {
  Fixture& f = fixture();
  server::ServiceOptions options;
  options.n_workers = 1;
  server::DiagnosisService service(options);
  for (auto _ : state) {
    for (std::size_t i = 0; i < f.stream.size(); ++i)
      benchmark::DoNotOptimize(service.handle(f.single_request(i)));
  }
  state.counters["datalogs_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * f.stream.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VolumeResidentSingles)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_VolumeBatch(benchmark::State& state) {
  Fixture& f = fixture();
  server::ServiceOptions options;
  options.n_workers = 1;
  server::DiagnosisService service(options);
  const server::Json request =
      f.batch_request(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.handle(request));
  }
  state.counters["datalogs_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * f.stream.size()),
      benchmark::Counter::kIsRate);
}
// Real time, not CPU time: the batch runs on private threads whose CPU
// the benchmark harness does not observe.
BENCHMARK(BM_VolumeBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The tiered mix: 16 systematic defects (k = 1 and 2) taken two per
/// batch in turn, each recurrence under the next of full / 12 / 6 failing
/// patterns, plus one fresh multiplet of each k = 1..3, full and cut to 8.
std::vector<server::Json> tiered_batches(const Fixture& f) {
  constexpr std::size_t kBatches = 30, kSystematic = 16;
  const PatternSet good = simulate(f.netlist, f.patterns);
  const auto draw = [&](std::size_t k, std::size_t n, std::size_t cut,
                        std::uint64_t seed) {
    CorpusConfig cfg;
    cfg.n_cases = n;
    cfg.defect.multiplicity = k;
    cfg.datalog.max_failing_patterns = cut;
    cfg.seed = seed;
    return make_corpus(f.netlist, f.patterns, good, cfg);
  };
  std::vector<LoadgenCase> systematic = draw(1, kSystematic / 2, SIZE_MAX, 64);
  for (LoadgenCase& c : draw(2, kSystematic / 2, SIZE_MAX, 65))
    systematic.push_back(std::move(c));
  std::vector<std::vector<LoadgenCase>> random;
  for (std::size_t k = 1; k <= 3; ++k)
    for (std::size_t cut : {SIZE_MAX, std::size_t{8}})
      random.push_back(draw(k, kBatches, cut, 66 + random.size()));

  std::vector<server::Json> batches;
  for (std::size_t b = 0; b < kBatches; ++b) {
    server::JsonArray texts;
    for (std::size_t j = 0; j < 2; ++j) {
      const std::size_t slot = 2 * b + j;
      DatalogOptions cut;
      cut.max_failing_patterns =
          std::array<std::size_t, 3>{SIZE_MAX, 12, 6}[(slot / kSystematic) % 3];
      const Datalog log = datalog_from_defect(
          f.netlist, systematic[slot % systematic.size()].defect, f.patterns,
          good, cut);
      std::ostringstream text;
      write_datalog(text, log, f.netlist);
      texts.emplace_back(text.str());
    }
    for (const std::vector<LoadgenCase>& stream : random)
      texts.emplace_back(stream[b % stream.size()].datalog_text);
    server::Json r;
    r.set("op", "diagnose_batch");
    r.set("netlist", f.netlist_path);
    r.set("patterns", f.patterns_path);
    r.set("datalogs", server::Json(std::move(texts)));
    r.set("method", "multiplet");
    r.set("threads", 4);
    batches.push_back(std::move(r));
  }
  return batches;
}

void BM_VolumeBatchTiered(benchmark::State& state) {
  Fixture& f = fixture();
  static const std::vector<server::Json> batches = tiered_batches(f);
  double datalogs = 0.0;
  double solo_computes = 0.0;
  for (auto _ : state) {
    state.PauseTiming();  // a fresh daemon: session load is not timed
    server::ServiceOptions options;
    options.n_workers = 1;
    options.memo_bytes = 16ull << 20;
    options.composite_bytes = 2ull << 20;
    auto service = std::make_unique<server::DiagnosisService>(options);
    service->cache().get(f.netlist_path, f.patterns_path);
    state.ResumeTiming();
    for (const server::Json& batch : batches) {
      const server::Json response = service->handle(batch);
      benchmark::DoNotOptimize(response);
      datalogs += response.get_number("n_datalogs");
      solo_computes +=
          response.find("amortization")->get_number("solo_computes");
    }
    state.PauseTiming();
    service.reset();
    state.ResumeTiming();
  }
  const double n_batches =
      static_cast<double>(state.iterations() * batches.size());
  state.counters["datalogs_per_s"] =
      benchmark::Counter(datalogs, benchmark::Counter::kIsRate);
  state.counters["solo_computes_per_batch"] = solo_computes / n_batches;
}
BENCHMARK(BM_VolumeBatchTiered)->Unit(benchmark::kMillisecond)->UseRealTime();

/// One-shot check mode: times the independent baseline and one batch
/// pass, demands byte-identical per-datalog reports, and fails unless the
/// batch sustains >= 2x the baseline's datalogs/s.
int volume_check() {
  Fixture& f = fixture();
  using Clock = std::chrono::steady_clock;

  const auto t0 = Clock::now();
  const std::vector<server::Json> independent = run_independent(f);
  const double independent_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  server::ServiceOptions options;
  options.n_workers = 1;
  server::DiagnosisService service(options);
  const auto t1 = Clock::now();
  const server::Json response = service.handle(f.batch_request(1));
  const double batch_s =
      std::chrono::duration<double>(Clock::now() - t1).count();
  if (response.get_string("status") != "ok") {
    std::cerr << "perf_volume: batch failed: " << response.dump() << "\n";
    return 1;
  }

  const server::JsonArray& results = response.find("results")->as_array();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string batch_report =
        results[i].find("reports")->as_array().front().dump();
    if (batch_report != independent[i].dump()) {
      std::cerr << "perf_volume: report " << i
                << " differs between batch and independent single\n"
                << "  batch:       " << batch_report.substr(0, 300) << "\n"
                << "  independent: " << independent[i].dump().substr(0, 300)
                << "\n";
      return 1;
    }
  }

  const double rate_independent = f.stream.size() / independent_s;
  const double rate_batch = f.stream.size() / batch_s;
  const double speedup = rate_batch / rate_independent;
  std::cout << "independent: " << rate_independent << " datalogs/s ("
            << independent_s << " s)\n"
            << "batch:       " << rate_batch << " datalogs/s (" << batch_s
            << " s)\n"
            << "speedup:     " << speedup << "x ("
            << response.find("amortization")->dump() << ")\n";
  if (speedup < 2.0) {
    std::cerr << "perf_volume: batch speedup " << speedup << "x < 2x\n";
    return 1;
  }
  std::cout << "reports byte-identical across " << results.size()
            << " datalogs; speedup >= 2x\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--volume-check") == 0) return volume_check();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("fsim.kernel",
                              std::string(mdd::current_kernel().name));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
