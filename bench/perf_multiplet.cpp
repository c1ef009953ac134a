// Perf C — multiplet-diagnosis micro-benchmarks (google-benchmark).
//
// Isolates the tentpole of the multiplet search: composite (multi-fault)
// signature evaluation. Three rungs, each over a multiplicity axis on
// g1k:
//   * one composite evaluation, reference full-circuit simulator vs the
//     event-driven composite propagator;
//   * diagnose_multiplet end to end, reference composites vs the engine
//     (per-request memo only) vs the engine with a warm session memo —
//     the serving configuration, where repeat requests for a circuit
//     replay composites out of the shared CompositeMemo;
//   * diagnose_multiplet over a corpus of distinct datalogs (k=2..6)
//     sharing the session memos, where composites rarely repeat and the
//     greedy's shortlist bookkeeping shows;
//   * one residual shortlist on its own.
#include <benchmark/benchmark.h>

#include "sim/kernel.hpp"

#include <map>
#include <sstream>

#include "diag/composite_memo.hpp"
#include "diag/multiplet.hpp"
#include "diag/residual_index.hpp"
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
  std::shared_ptr<const PropagatorBaseline> baseline =
      SingleFaultPropagator::make_baseline(bc.netlist, bc.patterns);

  // Session-style solo-signature store shared by every end-to-end
  // context below: all three diagnosis variants then pay the same
  // (amortized) solo cost and differ only in how composites are
  // evaluated — which is what this bench isolates, and how the serving
  // layer actually runs.
  server::SignatureMemo solos{256ull << 20};
  server::TraceMemo traces;

  CandidateOptions candidate_options() {
    CandidateOptions opt;
    opt.trace_store = &traces;
    return opt;
  }

  struct DefectCase {
    std::vector<Fault> defect;
    Datalog log;
  };
  std::map<std::size_t, DefectCase> cases;

  const DefectCase& at(std::size_t multiplicity) {
    auto it = cases.find(multiplicity);
    if (it != cases.end()) return it->second;
    std::mt19937_64 rng(0xC0DE + multiplicity);
    DefectSampleConfig cfg;
    cfg.multiplicity = multiplicity;
    DefectCase dc;
    dc.defect = *sample_defect(bc.netlist, fsim, cfg, rng);
    dc.log = datalog_from_defect(bc.netlist, dc.defect, bc.patterns,
                                 fsim.good_response());
    return cases.emplace(multiplicity, std::move(dc)).first->second;
  }

  /// Distinct datalogs, 8 per multiplicity k=2..6 (k cycling), drawn by
  /// make_corpus like the served-diagnosis benchmark's g1k-distinct load.
  /// Their traces and solo signatures are warmed into the session memos
  /// up front (as the daemon's steady state has them); their composites
  /// are not.
  std::vector<Datalog> distinct;

  const std::vector<Datalog>& distinct_corpus() {
    if (!distinct.empty()) return distinct;
    constexpr std::size_t kPerMultiplicity = 8;
    std::vector<std::vector<LoadgenCase>> streams;
    for (std::size_t k = 2; k <= 6; ++k) {
      CorpusConfig cfg;
      cfg.n_cases = kPerMultiplicity;
      cfg.defect.multiplicity = k;
      cfg.defect.bridge_fraction = 0.25;
      cfg.seed = 64 + k;
      streams.push_back(
          make_corpus(bc.netlist, bc.patterns, fsim.good_response(), cfg));
    }
    for (std::size_t i = 0; i < kPerMultiplicity; ++i) {
      for (const auto& stream : streams) {
        if (i >= stream.size()) continue;
        std::istringstream in(stream[i].datalog_text);
        distinct.push_back(read_datalog(in, bc.netlist));
        DiagnosisContext ctx(bc.netlist, bc.patterns, distinct.back(),
                             candidate_options(), &fsim.good_response(),
                             baseline);
        ctx.attach_solo_store(&solos);
        ctx.warm_solo_signatures(ExecPolicy::parallel());
      }
    }
    return distinct;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

// ---- one composite evaluation ----------------------------------------------

void BM_CompositeEvalReference(benchmark::State& state) {
  Fixture& f = fixture();
  const auto& dc = f.at(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        f.fsim.signature(std::span<const Fault>(dc.defect)));
}
BENCHMARK(BM_CompositeEvalReference)->Arg(2)->Arg(4)->Arg(8)->Unit(
    benchmark::kMicrosecond);

void BM_CompositeEvalEngine(benchmark::State& state) {
  Fixture& f = fixture();
  const auto& dc = f.at(static_cast<std::size_t>(state.range(0)));
  SingleFaultPropagator prop(f.bc.netlist, f.bc.patterns, f.baseline);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        prop.signature(std::span<const Fault>(dc.defect)));
}
BENCHMARK(BM_CompositeEvalEngine)->Arg(2)->Arg(4)->Arg(8)->Unit(
    benchmark::kMicrosecond);

// ---- diagnose_multiplet end to end -----------------------------------------

void BM_DiagnoseMultipletReference(benchmark::State& state) {
  Fixture& f = fixture();
  const auto& dc = f.at(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    DiagnosisContext ctx(f.bc.netlist, f.bc.patterns, dc.log, f.candidate_options(),
                         &f.fsim.good_response(), f.baseline);
    ctx.attach_solo_store(&f.solos);
    ctx.use_reference_composites(true);
    benchmark::DoNotOptimize(diagnose_multiplet(ctx));
  }
}
BENCHMARK(BM_DiagnoseMultipletReference)
    ->Arg(2)
    ->Arg(4)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

void BM_DiagnoseMultipletEngine(benchmark::State& state) {
  Fixture& f = fixture();
  const auto& dc = f.at(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    DiagnosisContext ctx(f.bc.netlist, f.bc.patterns, dc.log, f.candidate_options(),
                         &f.fsim.good_response(), f.baseline);
    ctx.attach_solo_store(&f.solos);
    benchmark::DoNotOptimize(diagnose_multiplet(ctx));
  }
}
BENCHMARK(BM_DiagnoseMultipletEngine)
    ->Arg(2)
    ->Arg(4)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

// The serving shape: every request builds a fresh context, but the
// session's CompositeMemo persists — after the first request the search
// replays its composites from the memo.
void BM_DiagnoseMultipletEngineSessionMemo(benchmark::State& state) {
  Fixture& f = fixture();
  const auto& dc = f.at(static_cast<std::size_t>(state.range(0)));
  CompositeMemo memo(64ull << 20);
  {
    // Warm request (not timed).
    DiagnosisContext ctx(f.bc.netlist, f.bc.patterns, dc.log, f.candidate_options(),
                         &f.fsim.good_response(), f.baseline);
    ctx.attach_solo_store(&f.solos);
    ctx.attach_composite_memo(&memo);
    benchmark::DoNotOptimize(diagnose_multiplet(ctx));
  }
  for (auto _ : state) {
    DiagnosisContext ctx(f.bc.netlist, f.bc.patterns, dc.log, f.candidate_options(),
                         &f.fsim.good_response(), f.baseline);
    ctx.attach_solo_store(&f.solos);
    ctx.attach_composite_memo(&memo);
    benchmark::DoNotOptimize(diagnose_multiplet(ctx));
  }
}
BENCHMARK(BM_DiagnoseMultipletEngineSessionMemo)
    ->Arg(2)
    ->Arg(4)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

// The served g1k-distinct shape: every iteration diagnoses the next
// datalog of a distinct k=2..6 corpus through one session's solo,
// trace and composite memos, warming the context's solo slots in
// parallel first as the daemon does, so solo signatures amortize
// across datalogs but composites (almost) never replay. Iterations past
// the corpus wrap around; the default run stays inside the first pass.
void BM_DiagnoseMultipletDistinct(benchmark::State& state) {
  Fixture& f = fixture();
  const std::vector<Datalog>& corpus = f.distinct_corpus();
  CompositeMemo memo(64ull << 20);
  std::size_t next = 0;
  for (auto _ : state) {
    const Datalog& log = corpus[next++ % corpus.size()];
    DiagnosisContext ctx(f.bc.netlist, f.bc.patterns, log,
                         f.candidate_options(), &f.fsim.good_response(),
                         f.baseline);
    ctx.attach_solo_store(&f.solos);
    ctx.attach_composite_memo(&memo);
    ctx.warm_solo_signatures(ExecPolicy::parallel());
    benchmark::DoNotOptimize(diagnose_multiplet(ctx));
  }
  state.counters["datalogs_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DiagnoseMultipletDistinct)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One greedy-round shortlist: the residual left by the best round-1
// extension, projected onto the observed bits, ranked over the pool.
void BM_ResidualShortlist(benchmark::State& state) {
  Fixture& f = fixture();
  const auto& dc = f.at(static_cast<std::size_t>(state.range(0)));
  DiagnosisContext ctx(f.bc.netlist, f.bc.patterns, dc.log,
                       f.candidate_options(), &f.fsim.good_response(),
                       f.baseline);
  ctx.attach_solo_store(&f.solos);
  const ResidualIndex index(ctx);
  const std::vector<char> none(ctx.n_candidates(), 0);
  const ErrorSignature empty(ctx.observed().n_patterns(),
                             ctx.observed().n_outputs());
  const auto round1 = index.shortlist(index.residual(empty), none, 1);
  if (round1.empty()) {
    state.SkipWithError("no round-1 extension");
    return;
  }
  std::vector<char> in_m = none;
  in_m[round1[0].index] = 1;
  const ErrorSignature& explained = ctx.solo_signature(round1[0].index);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        index.shortlist(index.residual(explained), in_m, 32));
  state.counters["candidates"] = static_cast<double>(ctx.n_candidates());
  state.counters["observed_bits"] = static_cast<double>(index.n_bits());
}
BENCHMARK(BM_ResidualShortlist)->Arg(2)->Arg(4)->Arg(6)->Unit(
    benchmark::kMicrosecond);

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
