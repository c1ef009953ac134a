// Perf A — simulation-kernel micro-benchmarks (google-benchmark).
//
// Measures the bit-parallel good machine, the composite faulty machine,
// signature extraction, event-driven solo signatures and critical path
// tracing: the kernels whose throughput bounds every diagnosis experiment.
//
// The kernel-sweep benchmarks below are registered once per available
// simulation kernel (scalar / avx2 / avx512 as CPUID allows), so one run
// produces the words/s comparison table in EXPERIMENTS.md directly. All
// setup — circuit construction, pattern generation, simulator/baseline
// construction — happens before the timed loop; the loop body is pure
// kernel work. Each sweep reports two rate counters:
//   patterns/s  — full-circuit pattern evaluations per second
//   words/s     — gate-word evaluations per second (n_gates x pattern
//                 words per sweep), the kernel-throughput figure of merit
#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "diag/candidates.hpp"
#include "fsim/cpt.hpp"
#include "fsim/fsim.hpp"
#include "fsim/propagate.hpp"
#include "netlist/generator.hpp"
#include "sim/event_sim.hpp"
#include "sim/kernel.hpp"
#include "workload/circuits.hpp"
#include "workload/loadgen.hpp"
#include "workload/textio.hpp"

namespace {

using namespace mdd;

const Netlist& circuit(const std::string& name) {
  static std::map<std::string, Netlist> cache;
  auto it = cache.find(name);
  if (it == cache.end())
    it = cache.emplace(name, make_named_circuit(name)).first;
  return it->second;
}

void set_sweep_counters(benchmark::State& state, const Netlist& nl,
                        std::size_t n_patterns, std::size_t n_blocks) {
  const double sweeps = static_cast<double>(state.iterations());
  state.counters["patterns/s"] = benchmark::Counter(
      sweeps * static_cast<double>(n_patterns), benchmark::Counter::kIsRate);
  state.counters["words/s"] = benchmark::Counter(
      sweeps * static_cast<double>(nl.n_gates()) *
          static_cast<double>(n_blocks),
      benchmark::Counter::kIsRate);
}

// ---- per-kernel sweeps (registered in main for each available kernel) ----

void BM_GoodMachineSweep(benchmark::State& state, const std::string& nl_name,
                         const SimKernel* kernel) {
  const Netlist& nl = circuit(nl_name);
  const PatternSet stimuli = PatternSet::random(512, nl.n_inputs(), 1);
  BlockSim sim(nl, *kernel);
  for (auto _ : state) {
    for (std::size_t b = 0; b < stimuli.n_blocks();)
      b += sim.run_wide(stimuli, b);
    benchmark::DoNotOptimize(sim.value(nl.outputs()[0]));
  }
  set_sweep_counters(state, nl, stimuli.n_patterns(), stimuli.n_blocks());
}

void BM_FaultyMachineSweep(benchmark::State& state, const SimKernel* kernel) {
  const Netlist& nl = circuit("g1k");
  const PatternSet stimuli = PatternSet::random(512, nl.n_inputs(), 1);
  FaultyMachine fm(nl, *kernel);
  const std::vector<Fault> faults{
      Fault::stem_sa(nl.n_nets() / 2, true),
      Fault::bridge_dom(nl.n_nets() / 3, nl.n_nets() / 2 + 7)};
  fm.set_faults(faults);
  for (auto _ : state) {
    for (std::size_t b = 0; b < stimuli.n_blocks();)
      b += fm.run_wide(stimuli, b);
    benchmark::DoNotOptimize(fm.value(nl.outputs()[0]));
  }
  set_sweep_counters(state, nl, stimuli.n_patterns(), stimuli.n_blocks());
}

void BM_SignatureExtraction(benchmark::State& state, std::size_t n_patterns,
                            const SimKernel* kernel) {
  const Netlist& nl = circuit("g1k");
  const PatternSet stimuli = PatternSet::random(n_patterns, nl.n_inputs(), 1);
  FaultSimulator fsim(nl, stimuli, *kernel);  // good response precomputed here
  const Fault f = Fault::stem_sa(nl.n_nets() / 2, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fsim.signature(f));
  }
  set_sweep_counters(state, nl, stimuli.n_patterns(), stimuli.n_blocks());
}

/// One served-shape g1k datalog (a k=3 multiplet with a quarter bridges,
/// drawn like the served benchmark's corpus) and its candidate pool, over
/// a baseline every kernel's propagator shares.
struct SoloPool {
  BenchCircuit bc = load_bench_circuit("g1k");
  std::shared_ptr<const PropagatorBaseline> baseline =
      SingleFaultPropagator::make_baseline(bc.netlist, bc.patterns);
  std::vector<Fault> candidates;

  SoloPool() {
    const PatternSet good = simulate(bc.netlist, bc.patterns);
    CorpusConfig cfg;
    cfg.n_cases = 1;
    cfg.defect.multiplicity = 3;
    cfg.defect.bridge_fraction = 0.25;
    const auto corpus = make_corpus(bc.netlist, bc.patterns, good, cfg);
    std::istringstream in(corpus.at(0).datalog_text);
    const Datalog log = read_datalog(in, bc.netlist);
    candidates = extract_candidates(bc.netlist, bc.patterns, log).faults;
  }
};

const SoloPool& solo_pool() {
  static const SoloPool pool;
  return pool;
}

// The solo-signature warm of one datalog: every candidate's signature
// through the event-driven propagator. `us_per_query` is wall time per
// candidate signature.
void BM_SoloSignature(benchmark::State& state, const SimKernel* kernel) {
  const SoloPool& pool = solo_pool();
  SingleFaultPropagator prop(pool.bc.netlist, pool.bc.patterns, pool.baseline,
                             *kernel);
  std::chrono::duration<double, std::micro> elapsed{0};
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const Fault& f : pool.candidates)
      benchmark::DoNotOptimize(prop.signature(f));
    elapsed += std::chrono::steady_clock::now() - t0;
  }
  state.counters["candidates"] = static_cast<double>(pool.candidates.size());
  state.counters["us_per_query"] =
      elapsed.count() / (static_cast<double>(state.iterations()) *
                         static_cast<double>(pool.candidates.size()));
}

void register_kernel_sweeps() {
  for (const SimKernel* k : available_kernels()) {
    const std::string suffix = std::string("/") + k->name;
    for (const std::string nl_name : {"g1k", "g5k"})
      benchmark::RegisterBenchmark(
          ("BM_GoodMachineSweep/" + nl_name + suffix).c_str(),
          BM_GoodMachineSweep, nl_name, k);
    benchmark::RegisterBenchmark(("BM_FaultyMachineSweep/g1k" + suffix).c_str(),
                                 BM_FaultyMachineSweep, k);
    for (const std::size_t n_patterns : {128, 512})
      benchmark::RegisterBenchmark(
          ("BM_SignatureExtraction/" + std::to_string(n_patterns) + suffix)
              .c_str(),
          BM_SignatureExtraction, n_patterns, k);
    benchmark::RegisterBenchmark(("BM_SoloSignature/g1k" + suffix).c_str(),
                                 BM_SoloSignature, k);
  }
}

// ---- thread-axis batches (process-default kernel; MDD_KERNEL overrides) ----

// Threads axis: fault-parallel signature batch on the large generated
// circuit — the hot path of every diagnosis campaign. Arg = thread count;
// output is byte-identical across the axis (tests/test_parallel_equiv.cpp),
// so the BENCH json trajectory records pure speedup.
void BM_SignatureBatchThreads(benchmark::State& state) {
  const Netlist& nl = circuit("g5k");
  const PatternSet stimuli = PatternSet::random(256, nl.n_inputs(), 3);
  FaultSimulator fsim(nl, stimuli);
  const std::vector<Fault> universe = all_stuck_at_faults(nl);
  std::vector<Fault> faults;
  for (std::size_t i = 0; i < universe.size() && faults.size() < 256;
       i += universe.size() / 256 + 1)
    faults.push_back(universe[i]);
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const ExecPolicy policy =
      threads <= 1 ? ExecPolicy::serial() : ExecPolicy::parallel(threads);
  for (auto _ : state) {
    auto sigs = fsim.signatures(faults, policy);
    benchmark::DoNotOptimize(sigs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.size()));
}
BENCHMARK(BM_SignatureBatchThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Threads axis for batch detection (early-exit workload, less uniform per
// fault than full signatures).
void BM_DetectedBatchThreads(benchmark::State& state) {
  const Netlist& nl = circuit("g1k");
  const PatternSet stimuli = PatternSet::random(256, nl.n_inputs(), 5);
  FaultSimulator fsim(nl, stimuli);
  const std::vector<Fault> faults = all_stuck_at_faults(nl);
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const ExecPolicy policy =
      threads <= 1 ? ExecPolicy::serial() : ExecPolicy::parallel(threads);
  for (auto _ : state) {
    auto det = fsim.detected(faults, policy);
    benchmark::DoNotOptimize(det);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.size()));
}
BENCHMARK(BM_DetectedBatchThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- event-driven single-pattern paths (kernel-independent) ----

void BM_CriticalPathTrace(benchmark::State& state) {
  const Netlist& nl = circuit("g1k");
  const PatternSet stimuli = PatternSet::random(8, nl.n_inputs(), 1);
  EventSim sim(nl);
  sim.apply(stimuli, 0);
  CriticalPathTracer cpt(nl);
  std::uint32_t po = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpt.critical_nets(sim, po));
    po = (po + 1) % static_cast<std::uint32_t>(nl.n_outputs());
  }
}
BENCHMARK(BM_CriticalPathTrace);

void BM_EventFlip(benchmark::State& state) {
  const Netlist& nl = circuit("g1k");
  const PatternSet stimuli = PatternSet::random(8, nl.n_inputs(), 1);
  EventSim sim(nl);
  sim.apply(stimuli, 0);
  NetId n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.flip_observed_outputs(n));
    n = (n + 37) % static_cast<NetId>(nl.n_nets());
  }
}
BENCHMARK(BM_EventFlip);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("fsim.kernel",
                              std::string(mdd::current_kernel().name));
  benchmark::AddCustomContext("fsim.kernels_available", mdd::kernel_names());
  register_kernel_sweeps();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
