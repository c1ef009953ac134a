// Perf E — persistent dictionary-store micro-benchmarks (google-benchmark).
//
// Quantifies the cold-start story on g1k: what a store costs to build
// (one-time, offline), what it costs to open (mmap + validation, paid once
// per daemon start), and how store-served candidate warming compares with
// simulating every candidate from scratch — the work a restarted daemon
// would otherwise redo per session.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "diag/multiplet.hpp"
#include "server/signature_memo.hpp"
#include "sim/kernel.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "workload/campaign.hpp"
#include "workload/circuits.hpp"

namespace {

using namespace mdd;

struct Fixture {
  BenchCircuit bc = load_bench_circuit("g1k");
  FaultSimulator fsim{bc.netlist, bc.patterns};
  std::vector<Fault> universe;
  std::string store_file;
  Datalog log;

  Fixture() {
    universe = store::default_store_universe(bc.netlist);
    store_file = "/tmp/perf_store_g1k" + std::string(store::kStoreExtension);
    const store::DictWriter writer(bc.netlist, bc.patterns);
    writer.write(store_file, universe);

    std::mt19937_64 rng(0xD1A6);
    DefectSampleConfig cfg;
    cfg.multiplicity = 3;
    cfg.bridge_fraction = 0.25;
    const auto defect = *sample_defect(bc.netlist, fsim, cfg, rng);
    log = datalog_from_defect(bc.netlist, defect, bc.patterns,
                              fsim.good_response());
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

// One-time build cost: simulate the whole universe and serialize. This is
// the offline price of every later cold start it amortizes.
void BM_StoreBuild(benchmark::State& state) {
  Fixture& f = fixture();
  const std::string path = f.store_file + ".rebuild";
  const store::DictWriter writer(f.bc.netlist, f.bc.patterns);
  for (auto _ : state) {
    const store::BuildStats stats = writer.write(path, f.universe);
    benchmark::DoNotOptimize(stats.file_bytes);
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_StoreBuild)->Unit(benchmark::kMillisecond);

// Per-restart cost: open = mmap + header/index/content-hash validation.
void BM_StoreOpen(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    const auto dict = store::DictReader::open(f.store_file);
    benchmark::DoNotOptimize(dict->n_entries());
  }
}
BENCHMARK(BM_StoreOpen)->Unit(benchmark::kMillisecond);

// Full decode sweep: reconstruct every stored ErrorSignature from the
// mapping — the upper bound on store-served signature work per session.
void BM_StoreDecodeAll(benchmark::State& state) {
  Fixture& f = fixture();
  const auto dict = store::DictReader::open(f.store_file);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dict->verify_all());
  }
}
BENCHMARK(BM_StoreDecodeAll)->Unit(benchmark::kMillisecond);

// The cold start being replaced: simulate every candidate of one
// diagnosis case, serially, like a storeless daemon's first request.
void BM_ColdWarmSimulated(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    state.PauseTiming();
    DiagnosisContext ctx(f.bc.netlist, f.bc.patterns, f.log);
    state.ResumeTiming();
    ctx.warm_solo_signatures(ExecPolicy::serial());
    benchmark::DoNotOptimize(ctx.solo_compute_count());
  }
}
BENCHMARK(BM_ColdWarmSimulated)->Unit(benchmark::kMillisecond);

// The store-served cold start: covered candidates decode from the mmap;
// only extractor-invented candidates outside the universe still simulate.
void BM_ColdWarmStoreServed(benchmark::State& state) {
  Fixture& f = fixture();
  const auto dict = store::DictReader::open(f.store_file);
  for (auto _ : state) {
    state.PauseTiming();
    server::SignatureMemo memo;
    memo.set_store(dict);
    DiagnosisContext ctx(f.bc.netlist, f.bc.patterns, f.log);
    ctx.attach_solo_store(&memo);
    state.ResumeTiming();
    const std::size_t warmed = ctx.warm_solo_from_store();
    ctx.warm_solo_signatures(ExecPolicy::serial());
    benchmark::DoNotOptimize(warmed + ctx.solo_compute_count());
  }
}
BENCHMARK(BM_ColdWarmStoreServed)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("fsim.kernel",
                              std::string(mdd::current_kernel().name));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
