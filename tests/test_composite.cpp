// Unit tests: event-driven composite (multi-fault) propagation.
//
// The defining property, mirroring the single-fault PPSFP tests: for
// every fault-model mix the propagator's composite signature is
// bit-identical to the reference simulators (FaultSimulator /
// PairFaultSimulator), which inject the whole multiplet into the exact
// fixpoint machine. Multiplets whose bridges could couple cyclically must
// take the exact-machine fallback and still match.
//
// Where a multiplet might not converge (cyclic couplings), the reference
// result can depend on the machine's value history, so those comparisons
// use a fresh engine on each side; convergent mixes additionally pin down
// that a *reused* engine stays byte-identical query after query.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "diag/multiplet.hpp"
#include "fsim/propagate.hpp"
#include "netlist/generator.hpp"
#include "obs/metrics.hpp"

namespace mdd {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 42, 0xBEEF};

std::vector<Fault> draw_multiplet(const std::vector<Fault>& universe,
                                  std::mt19937_64& rng, std::size_t size) {
  std::vector<Fault> m;
  m.reserve(size);
  for (std::size_t k = 0; k < size; ++k)
    m.push_back(universe[rng() % universe.size()]);
  return m;
}

TEST(CompositeProp, MatchesReferenceForStuckAtMultiplets) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet patterns = PatternSet::random(200, nl.n_inputs(), 21);
  FaultSimulator reference(nl, patterns);
  SingleFaultPropagator prop(nl, patterns);
  const std::vector<Fault> universe = all_stuck_at_faults(nl);
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    // No bridges -> always convergent: reusing both engines across
    // multiplets is exact, which also exercises overlay reset.
    for (int iter = 0; iter < 25; ++iter) {
      const auto m = draw_multiplet(universe, rng, 1 + rng() % 6);
      ASSERT_EQ(prop.signature(std::span<const Fault>(m)),
                reference.signature(std::span<const Fault>(m)))
          << "iter " << iter;
    }
  }
}

TEST(CompositeProp, MatchesReferenceForMixedStaticMultiplets) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet patterns = PatternSet::random(200, nl.n_inputs(), 22);
  const PatternSet good = simulate(nl, patterns);
  const auto baseline = SingleFaultPropagator::make_baseline(nl, patterns);

  std::vector<Fault> universe = all_stuck_at_faults(nl);
  BridgeUniverseConfig cfg;
  cfg.count = 40;
  cfg.seed = 5;
  for (const Fault& f : sample_bridge_faults(nl, cfg)) universe.push_back(f);

  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    for (int iter = 0; iter < 20; ++iter) {
      const auto m = draw_multiplet(universe, rng, 2 + rng() % 4);
      // Multi-bridge multiplets can couple cyclically, where results are
      // history-dependent: compare fresh engine against fresh reference.
      FaultSimulator reference(nl, patterns, good);
      SingleFaultPropagator prop(nl, patterns, baseline);
      ASSERT_EQ(prop.signature(std::span<const Fault>(m)),
                reference.signature(std::span<const Fault>(m)))
          << "iter " << iter;
    }
  }
}

TEST(CompositeProp, MatchesPairReferenceForMixedMultiplets) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet launch = PatternSet::random(150, nl.n_inputs(), 23);
  const PatternSet capture = PatternSet::random(150, nl.n_inputs(), 24);

  std::vector<Fault> universe = all_stuck_at_faults(nl);
  for (const Fault& f : all_transition_faults(nl)) universe.push_back(f);
  BridgeUniverseConfig cfg;
  cfg.count = 24;
  cfg.seed = 6;
  for (const Fault& f : sample_bridge_faults(nl, cfg)) universe.push_back(f);

  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    for (int iter = 0; iter < 8; ++iter) {
      const auto m = draw_multiplet(universe, rng, 2 + rng() % 4);
      PairFaultSimulator reference(nl, launch, capture);
      SingleFaultPropagator prop(nl, launch, capture);
      ASSERT_EQ(prop.signature(std::span<const Fault>(m)),
                reference.signature(std::span<const Fault>(m)))
          << "iter " << iter;
    }
  }
}

TEST(CompositeProp, CyclicBridgeCouplingFallsBackExactly) {
  const Netlist nl = make_c17();
  const PatternSet patterns = PatternSet::exhaustive(5);
  // 11 feeds 16, and the bridge forces 11 to copy 16: the victim's value
  // loops back into its own aggressor — a genuine influence cycle. An
  // unrelated stuck-at rides along so the cycle check runs inside a real
  // multiplet.
  const std::vector<Fault> m = {
      Fault::bridge_dom(nl.find_net("11"), nl.find_net("16")),
      Fault::stem_sa(nl.find_net("10"), false),
  };
  obs::Counter& fallbacks =
      obs::registry().counter("propagate.composite_fallbacks");
  const std::uint64_t before = fallbacks.value();
  FaultSimulator reference(nl, patterns);
  SingleFaultPropagator prop(nl, patterns);
  EXPECT_EQ(prop.signature(std::span<const Fault>(m)),
            reference.signature(std::span<const Fault>(m)));
  EXPECT_GT(fallbacks.value(), before)
      << "a feedback bridge inside a multiplet must take the exact path";
}

TEST(CompositeProp, UpstreamAggressorDominanceNeedsNoFallback) {
  const Netlist nl = make_c17();
  const PatternSet patterns = PatternSet::exhaustive(5);
  // The benign orientation of the pair above: the aggressor only feeds
  // the victim's *input* cone, so no value ever loops — the event engine
  // handles it directly (the symmetric single-fault feedback test is
  // conservative here).
  const std::vector<Fault> m = {
      Fault::bridge_dom(nl.find_net("16"), nl.find_net("11")),
      Fault::stem_sa(nl.find_net("10"), false),
  };
  obs::Counter& fallbacks =
      obs::registry().counter("propagate.composite_fallbacks");
  const std::uint64_t before = fallbacks.value();
  FaultSimulator reference(nl, patterns);
  SingleFaultPropagator prop(nl, patterns);
  EXPECT_EQ(prop.signature(std::span<const Fault>(m)),
            reference.signature(std::span<const Fault>(m)));
  EXPECT_EQ(fallbacks.value(), before);
}

TEST(CompositeProp, EmptyMultipletIsEmptySignature) {
  const Netlist nl = make_c17();
  const PatternSet patterns = PatternSet::exhaustive(5);
  SingleFaultPropagator prop(nl, patterns);
  const ErrorSignature sig = prop.signature(std::span<const Fault>{});
  EXPECT_TRUE(sig.empty());
  EXPECT_EQ(sig.n_patterns(), patterns.n_patterns());
  EXPECT_EQ(sig.n_outputs(), nl.n_outputs());
}

TEST(CompositeProp, SingletonCompositeEqualsSoloSignature) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet patterns = PatternSet::random(128, nl.n_inputs(), 25);
  SingleFaultPropagator prop(nl, patterns);
  std::mt19937_64 rng(7);
  const std::vector<Fault> universe = all_stuck_at_faults(nl);
  for (int iter = 0; iter < 20; ++iter) {
    const Fault f = universe[rng() % universe.size()];
    ASSERT_EQ(prop.signature(std::span<const Fault>(&f, 1)),
              prop.signature(f))
        << to_string(f, nl);
  }
}

TEST(CompositeProp, StateCleanAcrossInterleavedQueries) {
  const Netlist nl = make_named_circuit("g200");
  const PatternSet patterns = PatternSet::random(128, nl.n_inputs(), 26);
  SingleFaultPropagator prop(nl, patterns);
  BridgeUniverseConfig cfg;
  cfg.count = 8;
  cfg.seed = 8;
  const std::vector<Fault> bridges = sample_bridge_faults(nl, cfg);
  const std::vector<Fault> stucks = all_stuck_at_faults(nl);
  const std::vector<Fault> m1 = {bridges[0], stucks[10], stucks[99]};
  const std::vector<Fault> m2 = {stucks[5], bridges[2]};
  const ErrorSignature first = prop.signature(std::span<const Fault>(m1));
  const ErrorSignature solo = prop.signature(stucks[42]);
  prop.signature(std::span<const Fault>(m2));
  prop.signature(stucks[7]);
  EXPECT_EQ(prop.signature(std::span<const Fault>(m1)), first);
  EXPECT_EQ(prop.signature(stucks[42]), solo);
}

// ---- context-level composite evaluation -------------------------------------

// One failing device on g200 with two stuck-at defects; every context
// below diagnoses the same datalog.
struct ContextCase {
  Netlist netlist = make_named_circuit("g200");
  PatternSet patterns = PatternSet::random(256, netlist.n_inputs(), 17);
  PatternSet good = simulate(netlist, patterns);
  std::vector<Fault> defect{Fault::stem_sa(netlist.find_net("g_10"), true),
                            Fault::stem_sa(netlist.find_net("g_90"), false)};
  Datalog log = datalog_from_defect(netlist, defect, patterns, good);
};

TEST(ContextComposite, MemoServesRepeatQueriesIdentically) {
  const ContextCase tc;
  DiagnosisContext ctx(tc.netlist, tc.patterns, tc.log);
  ASSERT_GT(ctx.n_candidates(), 4u);

  // Stuck-at-only multiplets: always convergent, so a fresh reference
  // simulator per query is exact (see the file comment).
  std::vector<Fault> universe;
  for (std::size_t i = 0; i < ctx.n_candidates(); ++i)
    if (ctx.candidate(i).is_stuck_at()) universe.push_back(ctx.candidate(i));
  ASSERT_GT(universe.size(), 4u);

  obs::Counter& hits = obs::registry().counter("memo.composite.hits");
  obs::Counter& evals = obs::registry().counter("diag.composite_evals");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t evals_before = evals.value();

  std::mt19937_64 rng(11);
  for (int iter = 0; iter < 10; ++iter) {
    std::vector<Fault> m = draw_multiplet(universe, rng, 2 + rng() % 3);
    FaultSimulator reference(tc.netlist, tc.patterns, tc.good);
    const ErrorSignature expected =
        reference.signature(std::span<const Fault>(m));
    ASSERT_EQ(ctx.multiplet_signature(m), expected) << "iter " << iter;
    // The repeat — and the member order must not matter to the memo.
    std::reverse(m.begin(), m.end());
    ASSERT_EQ(ctx.multiplet_signature(m), expected) << "iter " << iter;
  }
  EXPECT_GE(hits.value() - hits_before, 10u);
  EXPECT_LE(evals.value() - evals_before, 10u);
}

TEST(ContextComposite, AttachedMemoIsSharedAcrossContexts) {
  const ContextCase tc;
  CompositeMemo shared(16ull << 20);

  DiagnosisContext ctx1(tc.netlist, tc.patterns, tc.log);
  ctx1.attach_composite_memo(&shared);
  std::vector<Fault> m;
  for (std::size_t i = 0; i < ctx1.n_candidates() && m.size() < 3; ++i)
    if (ctx1.candidate(i).is_stuck_at()) m.push_back(ctx1.candidate(i));
  ASSERT_EQ(m.size(), 3u);
  const ErrorSignature first = ctx1.multiplet_signature(m);

  // A second context (a later request for the same circuit) must be
  // served from the shared memo without re-propagating.
  obs::Counter& evals = obs::registry().counter("diag.composite_evals");
  obs::Counter& hits = obs::registry().counter("memo.composite.hits");
  const std::uint64_t evals_before = evals.value();
  const std::uint64_t hits_before = hits.value();
  DiagnosisContext ctx2(tc.netlist, tc.patterns, tc.log);
  ctx2.attach_composite_memo(&shared);
  EXPECT_EQ(ctx2.multiplet_signature(m), first);
  EXPECT_EQ(evals.value(), evals_before);
  EXPECT_GT(hits.value(), hits_before);
}

TEST(ContextComposite, DiagnosisIdenticalAcrossThreadCountsAndEvalPaths) {
  const ContextCase tc;

  // Reference run: composites through the full-circuit simulator.
  std::vector<Fault> expected;
  {
    DiagnosisContext ctx(tc.netlist, tc.patterns, tc.log);
    ctx.use_reference_composites(true);
    expected = diagnose_multiplet(ctx).suspect_faults();
  }
  ASSERT_FALSE(expected.empty());

  const ExecPolicy policies[] = {ExecPolicy::serial(), ExecPolicy::parallel(2),
                                 ExecPolicy::parallel(8)};
  for (const ExecPolicy& policy : policies) {
    SCOPED_TRACE(policy.n_threads);
    DiagnosisContext ctx(tc.netlist, tc.patterns, tc.log);
    ctx.warm_solo_signatures(policy);
    const DiagnosisReport r = diagnose_multiplet(ctx);
    EXPECT_EQ(r.suspect_faults(), expected);
  }
}

}  // namespace
}  // namespace mdd
