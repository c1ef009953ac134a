// Unit tests: event-driven single-fault propagation (PPSFP engine).
//
// The defining property: for every supported fault kind the propagator's
// signature is bit-identical to the full faulty-machine simulation.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "fsim/propagate.hpp"
#include "netlist/generator.hpp"
#include "sim/kernel.hpp"

namespace mdd {
namespace {

TEST(Propagator, MatchesFaultyMachineForStuckAt) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet patterns = PatternSet::random(200, nl.n_inputs(), 11);
  FaultSimulator reference(nl, patterns);
  SingleFaultPropagator prop(nl, patterns);
  EXPECT_EQ(prop.good_response(), reference.good_response());
  for (const Fault& f : all_stuck_at_faults(nl)) {
    ASSERT_EQ(prop.signature(f), reference.signature(f)) << to_string(f, nl);
  }
}

TEST(Propagator, MatchesFaultyMachineForBridges) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet patterns = PatternSet::random(200, nl.n_inputs(), 12);
  FaultSimulator reference(nl, patterns);
  SingleFaultPropagator prop(nl, patterns);
  BridgeUniverseConfig cfg;
  cfg.count = 40;
  cfg.seed = 3;
  for (const Fault& f : sample_bridge_faults(nl, cfg)) {
    ASSERT_EQ(prop.signature(f), reference.signature(f)) << to_string(f, nl);
  }
}

TEST(Propagator, FeedbackBridgeFallsBackExactly) {
  const Netlist nl = make_c17();
  const PatternSet patterns = PatternSet::exhaustive(5);
  FaultSimulator reference(nl, patterns);
  SingleFaultPropagator prop(nl, patterns);
  // 11 feeds 16: a feedback pair.
  const Fault f = Fault::bridge_dom(nl.find_net("16"), nl.find_net("11"));
  EXPECT_EQ(prop.signature(f), reference.signature(f));
}

TEST(Propagator, MatchesPairMachineForTransitions) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet launch = PatternSet::random(150, nl.n_inputs(), 13);
  const PatternSet capture = PatternSet::random(150, nl.n_inputs(), 14);
  PairFaultSimulator reference(nl, launch, capture);
  SingleFaultPropagator prop(nl, launch, capture);
  EXPECT_EQ(prop.good_response(), reference.good_response());
  std::mt19937_64 rng(9);
  for (int iter = 0; iter < 60; ++iter) {
    const NetId n = rng() % nl.n_nets();
    const Fault f =
        (rng() & 1) ? Fault::slow_to_rise(n) : Fault::slow_to_fall(n);
    ASSERT_EQ(prop.signature(f), reference.signature(f)) << to_string(f, nl);
  }
  // Static faults under pair testing too.
  for (int iter = 0; iter < 40; ++iter) {
    const Fault f = Fault::stem_sa(rng() % nl.n_nets(), rng() & 1);
    ASSERT_EQ(prop.signature(f), reference.signature(f)) << to_string(f, nl);
  }
}

/// The first `n` patterns of `patterns`.
PatternSet prefix_of(const PatternSet& patterns, std::size_t n) {
  PatternSet prefix(0, patterns.n_signals());
  for (std::size_t p = 0; p < n; ++p) prefix.append(patterns.pattern(p));
  return prefix;
}

TEST(Propagator, PrefixQueryMatchesAPropagatorOverThePrefix) {
  // A prefix query on the full pattern set (shared baseline) must equal a
  // propagator built over just the prefix, shape included, on every
  // kernel: prefixes inside a block, on block and lane-group edges, and
  // across groups; stuck-at and bridge faults.
  const Netlist nl = make_named_circuit("g200");
  const PatternSet patterns = PatternSet::random(600, nl.n_inputs(), 15);
  const auto baseline = SingleFaultPropagator::make_baseline(nl, patterns);
  std::vector<Fault> faults;
  const std::vector<Fault> stuck = all_stuck_at_faults(nl);
  for (std::size_t i = 0; i < stuck.size(); i += 7) faults.push_back(stuck[i]);
  BridgeUniverseConfig cfg;
  cfg.count = 30;
  cfg.seed = 4;
  for (const Fault& f : sample_bridge_faults(nl, cfg)) faults.push_back(f);
  for (const SimKernel* kernel : available_kernels()) {
    SingleFaultPropagator full(nl, patterns, baseline, *kernel);
    for (const std::size_t n : {1, 37, 64, 65, 200, 511, 512, 513, 600}) {
      const PatternSet prefix = prefix_of(patterns, n);
      SingleFaultPropagator reference(nl, prefix, *kernel);
      for (const Fault& f : faults)
        ASSERT_EQ(full.signature(f, n), reference.signature(f))
            << kernel->name << ", n=" << n << ", " << to_string(f, nl);
    }
  }
  // The feedback fallback answers prefix queries too.
  const Netlist c17 = make_c17();
  const PatternSet all = PatternSet::exhaustive(5);
  const Fault feedback =
      Fault::bridge_dom(c17.find_net("16"), c17.find_net("11"));
  const PatternSet prefix = prefix_of(all, 20);
  SingleFaultPropagator full(c17, all);
  SingleFaultPropagator reference(c17, prefix);
  EXPECT_EQ(full.signature(feedback, 20), reference.signature(feedback));
}

TEST(Propagator, StateCleanBetweenQueries) {
  const Netlist nl = make_c17();
  const PatternSet patterns = PatternSet::exhaustive(5);
  SingleFaultPropagator prop(nl, patterns);
  const Fault a = Fault::stem_sa(nl.find_net("11"), true);
  const Fault b = Fault::stem_sa(nl.find_net("10"), false);
  const ErrorSignature sa1 = prop.signature(a);
  prop.signature(b);
  EXPECT_EQ(prop.signature(a), sa1);  // no state leakage
}

}  // namespace
}  // namespace mdd
