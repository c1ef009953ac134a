// Parameterized diagnosis property sweeps across the benchmark registry.
//
// The properties every circuit must satisfy, regardless of structure:
//  * a detectable single stuck-at defect is explained exactly by the
//    multiplet method, and the suspect (or an alternate) names the site
//    whenever the pattern set can distinguish it at all;
//  * reported "exact" multiplets really reproduce the datalog when
//    re-simulated independently;
//  * diagnosis is deterministic.
#include <gtest/gtest.h>

#include <random>

#include "diag/metrics.hpp"
#include "diag/multiplet.hpp"
#include "diag/single_fault.hpp"
#include "netlist/generator.hpp"

namespace mdd {
namespace {

struct SweepCase {
  const char* circuit;
  std::size_t n_patterns;
};

// Without a printer gtest dumps the raw bytes — including the address of
// `circuit` — into the listed test names, so every build named the cases
// differently.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.circuit << ", " << c.n_patterns << " patterns";
}

class DiagnosisSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DiagnosisSweep, SingleStuckAtDiagnosedExactly) {
  const auto& param = GetParam();
  const Netlist nl = make_named_circuit(param.circuit);
  const PatternSet patterns =
      PatternSet::random(param.n_patterns, nl.n_inputs(), 0xD1A6);
  const PatternSet good = simulate(nl, patterns);
  const CollapsedFaults collapsed(nl);
  FaultSimulator fsim(nl, patterns);

  std::mt19937_64 rng(99);
  std::size_t tested = 0, named = 0;
  while (tested < 10) {
    const Fault f = Fault::stem_sa(rng() % nl.n_nets(), rng() & 1);
    if (!fsim.detects(f)) continue;
    ++tested;
    const Datalog log = datalog_from_defect(nl, {&f, 1}, patterns, good);
    DiagnosisContext ctx(nl, patterns, log);
    const DiagnosisReport r = diagnose_multiplet(ctx);
    ASSERT_TRUE(r.explains_all)
        << param.circuit << ": " << to_string(f, nl);
    // Independent verification of the exactness claim.
    const PatternSet resp =
        simulate_with_faults(nl, r.suspect_faults(), patterns);
    ASSERT_EQ(ErrorSignature::diff(good, resp), log.observed)
        << param.circuit;
    named += evaluate_against_truth(r, {&f, 1}, collapsed).all_hit;
  }
  // Site naming can be ambiguous on some circuits (response-identical
  // sites), but must hold for the large majority.
  EXPECT_GE(named * 10, tested * 6) << param.circuit;
}

TEST_P(DiagnosisSweep, Deterministic) {
  const auto& param = GetParam();
  const Netlist nl = make_named_circuit(param.circuit);
  const PatternSet patterns =
      PatternSet::random(param.n_patterns, nl.n_inputs(), 0xD1A7);
  const PatternSet good = simulate(nl, patterns);
  FaultSimulator fsim(nl, patterns);
  std::mt19937_64 rng(5);
  Fault f{};
  do {
    f = Fault::stem_sa(rng() % nl.n_nets(), rng() & 1);
  } while (!fsim.detects(f));
  const Datalog log = datalog_from_defect(nl, {&f, 1}, patterns, good);
  DiagnosisContext ctx1(nl, patterns, log);
  DiagnosisContext ctx2(nl, patterns, log);
  EXPECT_EQ(diagnose_multiplet(ctx1).suspect_faults(),
            diagnose_multiplet(ctx2).suspect_faults());
  EXPECT_EQ(diagnose_single_fault(ctx1).suspect_faults(),
            diagnose_single_fault(ctx2).suspect_faults());
}

INSTANTIATE_TEST_SUITE_P(
    Registry, DiagnosisSweep,
    ::testing::Values(SweepCase{"add8", 128}, SweepCase{"add32", 192},
                      SweepCase{"par64", 128}, SweepCase{"mux16", 192},
                      SweepCase{"g200", 256}),
    [](const auto& info) { return std::string(info.param.circuit); });

}  // namespace
}  // namespace mdd
