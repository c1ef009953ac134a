// Perf B — diagnosis-pipeline micro-benchmarks (google-benchmark).
//
// Measures the stages of one diagnosis case on g1k: candidate extraction,
// context construction (solo-signature cache fill happens lazily inside
// the diagnosers), and each diagnoser end-to-end. One g200 arm measures
// the served hot path: request threads filling their contexts' solo
// slots from one shared, pre-warmed session memo.
#include <benchmark/benchmark.h>

#include "sim/kernel.hpp"

#include <chrono>
#include <sstream>

#include "diag/multiplet.hpp"
#include "diag/single_fault.hpp"
#include "diag/slat.hpp"
#include "server/signature_memo.hpp"
#include "server/trace_memo.hpp"
#include "workload/campaign.hpp"
#include "workload/circuits.hpp"
#include "workload/loadgen.hpp"
#include "workload/textio.hpp"

namespace {

using namespace mdd;

struct Fixture {
  BenchCircuit bc = load_bench_circuit("g1k");
  FaultSimulator fsim{bc.netlist, bc.patterns};
  std::vector<Fault> defect;
  Datalog log;

  Fixture() {
    std::mt19937_64 rng(0xD1A6);
    DefectSampleConfig cfg;
    cfg.multiplicity = 3;
    cfg.bridge_fraction = 0.25;
    defect = *sample_defect(bc.netlist, fsim, cfg, rng);
    log = datalog_from_defect(bc.netlist, defect, bc.patterns,
                              fsim.good_response());
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

// Cold extraction: no trace store and no baseline, so every failing
// pattern is simulated and traced, and the good machine is built per call.
// The daemon never runs this path (see BM_CandidateExtractionServed).
void BM_CandidateExtraction(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        extract_candidates(f.bc.netlist, f.bc.patterns, f.log));
  }
}
BENCHMARK(BM_CandidateExtraction);

/// The served g1k-distinct extraction shape: distinct g1k datalogs
/// (k=2..6, a quarter of the members bridges) whose critical-path traces
/// already sit in the session's trace memo, read against the session's
/// baseline.
struct ServedExtractFixture {
  BenchCircuit bc = load_bench_circuit("g1k");
  FaultSimulator fsim{bc.netlist, bc.patterns};
  std::shared_ptr<const PropagatorBaseline> baseline =
      SingleFaultPropagator::make_baseline(bc.netlist, bc.patterns);
  server::TraceMemo traces;
  std::vector<Datalog> logs;

  ServedExtractFixture() {
    CandidateOptions opt;
    opt.trace_store = &traces;
    for (std::size_t k = 2; k <= 6; ++k) {
      CorpusConfig cfg;
      cfg.n_cases = 4;
      cfg.defect.multiplicity = k;
      cfg.defect.bridge_fraction = 0.25;
      cfg.seed = 96 + k;
      for (const LoadgenCase& c : make_corpus(bc.netlist, bc.patterns,
                                              fsim.good_response(), cfg)) {
        std::istringstream in(c.datalog_text);
        logs.push_back(read_datalog(in, bc.netlist));
        // Warms the trace memo.
        extract_candidates(bc.netlist, bc.patterns, logs.back(), opt,
                           baseline.get());
      }
    }
  }
};

// Served extraction: every trace a memo hit, good values from the shared
// baseline, so what is timed is the support tally, the bridge-candidate
// pass and the cap. One iteration is one datalog, cycling the corpus.
void BM_CandidateExtractionServed(benchmark::State& state) {
  static ServedExtractFixture f;
  CandidateOptions opt;
  opt.trace_store = &f.traces;
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        extract_candidates(f.bc.netlist, f.bc.patterns,
                           f.logs[next++ % f.logs.size()], opt,
                           f.baseline.get()));
  }
}
BENCHMARK(BM_CandidateExtractionServed)->Unit(benchmark::kMillisecond);

void BM_ContextConstruction(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    DiagnosisContext ctx(f.bc.netlist, f.bc.patterns, f.log);
    benchmark::DoNotOptimize(ctx.n_candidates());
  }
}
BENCHMARK(BM_ContextConstruction);

void BM_DiagnoseSingleFault(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    DiagnosisContext ctx(f.bc.netlist, f.bc.patterns, f.log);
    benchmark::DoNotOptimize(diagnose_single_fault(ctx));
  }
}
BENCHMARK(BM_DiagnoseSingleFault);

void BM_DiagnoseSlat(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    DiagnosisContext ctx(f.bc.netlist, f.bc.patterns, f.log);
    benchmark::DoNotOptimize(diagnose_slat(ctx));
  }
}
BENCHMARK(BM_DiagnoseSlat);

void BM_DiagnoseMultiplet(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    DiagnosisContext ctx(f.bc.netlist, f.bc.patterns, f.log);
    benchmark::DoNotOptimize(diagnose_multiplet(ctx));
  }
}
BENCHMARK(BM_DiagnoseMultiplet);

ExecPolicy policy_of(const benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  return threads <= 1 ? ExecPolicy::serial() : ExecPolicy::parallel(threads);
}

// Threads axis: candidate-parallel solo-signature cache warm — the cost
// every diagnoser pays on first access, isolated from context
// construction. Cached values are byte-identical across the axis.
void BM_WarmSoloCacheThreads(benchmark::State& state) {
  Fixture& f = fixture();
  const ExecPolicy policy = policy_of(state);
  for (auto _ : state) {
    state.PauseTiming();
    DiagnosisContext ctx(f.bc.netlist, f.bc.patterns, f.log);
    state.ResumeTiming();
    ctx.warm_solo_signatures(policy);
    benchmark::DoNotOptimize(ctx.solo_compute_count());
  }
}
BENCHMARK(BM_WarmSoloCacheThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The served g200-hot shape: distinct g200 datalogs (k=2..6) whose
/// traces and solo signatures already sit in one session's memos, as in
/// a daemon's steady state.
struct HotFixture {
  BenchCircuit bc = load_bench_circuit("g200");
  FaultSimulator fsim{bc.netlist, bc.patterns};
  std::shared_ptr<const PropagatorBaseline> baseline =
      SingleFaultPropagator::make_baseline(bc.netlist, bc.patterns);
  server::SignatureMemo solos{256ull << 20};
  server::TraceMemo traces;
  std::vector<Datalog> logs;

  CandidateOptions candidate_options() {
    CandidateOptions opt;
    opt.trace_store = &traces;
    return opt;
  }

  HotFixture() {
    for (std::size_t k = 2; k <= 6; ++k) {
      CorpusConfig cfg;
      cfg.n_cases = 8;
      cfg.defect.multiplicity = k;
      cfg.defect.bridge_fraction = 0.25;
      cfg.seed = 64 + k;
      for (const LoadgenCase& c : make_corpus(bc.netlist, bc.patterns,
                                              fsim.good_response(), cfg)) {
        std::istringstream in(c.datalog_text);
        logs.push_back(read_datalog(in, bc.netlist));
        DiagnosisContext ctx(bc.netlist, bc.patterns, logs.back(),
                             candidate_options(), &fsim.good_response(),
                             baseline);
        ctx.attach_solo_store(&solos);
        ctx.warm_solo_signatures(ExecPolicy::serial());
      }
    }
  }
};

HotFixture& hot_fixture() {
  static HotFixture f;
  return f;
}

// Threads axis (request threads, not workers): each thread builds a
// context for its next g200 datalog and fills every solo slot from the
// shared warm memo (all hits). `ms_per_datalog` is the mean fill time one
// datalog sees; context construction is untimed. (The Time column is the
// same manual time divided by the thread count, google-benchmark's
// convention.) With a per-candidate memo lock the fill time grows with
// threads; with one batch lookup per context it stays near the
// single-thread figure.
void BM_HotSoloWarmThreads(benchmark::State& state) {
  HotFixture& f = hot_fixture();
  const std::size_t n_logs = f.logs.size();
  std::size_t next = static_cast<std::size_t>(state.thread_index());
  double fill_ms = 0.0;
  for (auto _ : state) {
    DiagnosisContext ctx(f.bc.netlist, f.bc.patterns, f.logs[next % n_logs],
                         f.candidate_options(), &f.fsim.good_response(),
                         f.baseline);
    ctx.attach_solo_store(&f.solos);
    next += static_cast<std::size_t>(state.threads());
    const auto t0 = std::chrono::steady_clock::now();
    ctx.warm_solo_signatures(ExecPolicy::serial());
    const std::chrono::duration<double> fill =
        std::chrono::steady_clock::now() - t0;
    state.SetIterationTime(fill.count());
    fill_ms += fill.count() * 1e3;
    benchmark::DoNotOptimize(ctx.solo_compute_count());
  }
  // Summed over threads, then divided by every thread's iterations.
  state.counters["ms_per_datalog"] =
      benchmark::Counter(fill_ms, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_HotSoloWarmThreads)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Threads axis: case-parallel campaign end to end (sampling, datalog,
// three diagnosers per case). Deterministic fields of the result are
// byte-identical across the axis.
void BM_CampaignThreads(benchmark::State& state) {
  Fixture& f = fixture();
  CampaignConfig cfg;
  cfg.n_cases = 8;
  cfg.defect.multiplicity = 2;
  cfg.seed = 0xD1A6;
  cfg.exec = policy_of(state);
  for (auto _ : state) {
    const CampaignResult r = run_campaign(f.bc.netlist, f.bc.patterns, cfg);
    benchmark::DoNotOptimize(r.n_cases);
  }
}
BENCHMARK(BM_CampaignThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("fsim.kernel",
                              std::string(mdd::current_kernel().name));
  benchmark::AddCustomContext("fsim.kernels_available", mdd::kernel_names());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
