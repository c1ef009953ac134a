// Differential kernel-equivalence harness (the property backing the SIMD
// widening): every available simulation kernel must produce BYTE-IDENTICAL
// results to the scalar reference — ErrorSignatures, detect sets, coverage,
// good responses, propagator solo and composite signatures, pair (launch/
// capture) signatures — over randomized circuits, randomized mixed fault
// lists (stem/branch stuck-at, dom/wand/wor bridges, slow-to-rise/fall),
// ragged pattern counts, and multiple thread counts. Any divergence prints
// the (circuit seed, fault seed, kernel) triple via SCOPED_TRACE so a
// failure reproduces with one line.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "fsim/fsim.hpp"
#include "fsim/propagate.hpp"
#include "netlist/generator.hpp"
#include "obs/metrics.hpp"
#include "sim/kernel.hpp"
#include "sim/sim2.hpp"

namespace mdd {
namespace {

/// Restores the process-wide kernel on scope exit, so tests that poke
/// set_current_kernel cannot leak their choice into later tests.
class KernelGuard {
 public:
  KernelGuard() : saved_(&current_kernel()) {}
  ~KernelGuard() { set_current_kernel(*saved_); }
  KernelGuard(const KernelGuard&) = delete;
  KernelGuard& operator=(const KernelGuard&) = delete;

 private:
  const SimKernel* saved_;
};

/// Random circuits deliberately sized so pattern counts straddle lane-group
/// boundaries: odd PO counts exercise ragged PO words, and the pattern
/// counts below exercise ragged tail blocks for every lane width (1, 4, 8).
RandomCircuitConfig circuit_config(std::uint64_t seed) {
  RandomCircuitConfig cfg;
  cfg.name = "kq" + std::to_string(seed);
  cfg.n_inputs = 24;
  cfg.n_gates = 150 + static_cast<unsigned>(seed % 3) * 60;
  cfg.n_outputs = 13 + static_cast<unsigned>(seed % 5) * 13;  // 13..65, odd-ish
  cfg.max_fanin = 4;
  cfg.locality = 48;
  cfg.seed = seed;
  return cfg;
}

/// Mixed fault list covering every FaultKind the simulators accept.
std::vector<Fault> make_fault_list(const Netlist& nl, std::size_t n,
                                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Fault> faults;
  while (faults.size() < n) {
    const NetId net = static_cast<NetId>(rng() % nl.n_nets());
    switch (rng() % 6) {
      case 0:
        faults.push_back(Fault::stem_sa(net, rng() % 2 == 0));
        break;
      case 1: {
        const auto fi = nl.fanins(net);
        if (fi.empty()) continue;
        const std::uint32_t pin = static_cast<std::uint32_t>(rng() % fi.size());
        if (nl.fanouts(fi[pin]).size() > 1)
          faults.push_back(Fault::branch_sa(net, pin, rng() % 2 == 0));
        else
          faults.push_back(Fault::stem_sa(net, rng() % 2 == 0));
        break;
      }
      case 2:
        faults.push_back(rng() % 2 == 0 ? Fault::slow_to_rise(net)
                                        : Fault::slow_to_fall(net));
        break;
      case 3: {
        const NetId other = static_cast<NetId>(rng() % nl.n_nets());
        if (other == net) continue;
        faults.push_back(rng() % 2 == 0 ? Fault::bridge_wand(net, other)
                                        : Fault::bridge_wor(net, other));
        break;
      }
      default: {
        const NetId other = static_cast<NetId>(rng() % nl.n_nets());
        if (other == net || is_feedback_pair(nl, net, other)) continue;
        faults.push_back(Fault::bridge_dom(net, other));
        break;
      }
    }
  }
  return faults;
}

/// Static-fault subset (PairFaultSimulator takes any mix; FaultSimulator
/// rejects transitions, so the single-frame checks filter them out).
std::vector<Fault> static_only(const std::vector<Fault>& faults) {
  std::vector<Fault> out;
  for (const Fault& f : faults)
    if (!f.is_transition()) out.push_back(f);
  return out;
}

/// Pattern counts chosen to land on and around lane-group boundaries for
/// every kernel width: 64*8 = 512 patterns per widest pass.
constexpr std::size_t kPatternCounts[] = {37, 64, 130, 259, 530};

TEST(KernelEquiv, AvailableKernelsAreOrderedScalarFirst) {
  const auto& kernels = available_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front()->name, "scalar");
  EXPECT_EQ(kernels.front()->lanes, 1u);
  for (std::size_t i = 1; i < kernels.size(); ++i) {
    EXPECT_GT(kernels[i]->lanes, kernels[i - 1]->lanes);
    EXPECT_LE(kernels[i]->lanes, kMaxKernelLanes);
  }
  EXPECT_EQ(&best_kernel(), kernels.back());
  EXPECT_EQ(find_kernel("no-such-kernel"), nullptr);
  for (const SimKernel* k : kernels) EXPECT_EQ(find_kernel(k->name), k);
}

TEST(KernelEquiv, GoodSimulationMatchesScalar) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Netlist nl = make_random_circuit(circuit_config(seed));
    for (const std::size_t n_pat : kPatternCounts) {
      const PatternSet stimuli =
          PatternSet::random(n_pat, nl.n_inputs(), seed * 1000 + n_pat);
      const PatternSet reference = simulate(nl, stimuli, scalar_kernel());
      for (const SimKernel* k : available_kernels()) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " n_pat=" + std::to_string(n_pat) + " kernel=" + k->name);
        EXPECT_EQ(simulate(nl, stimuli, *k), reference);
      }
    }
  }
}

TEST(KernelEquiv, SignaturesDetectsCoverageMatchScalar) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const Netlist nl = make_random_circuit(circuit_config(seed));
    const PatternSet patterns =
        PatternSet::random(kPatternCounts[seed % 5], nl.n_inputs(), seed);
    const std::vector<Fault> faults =
        static_only(make_fault_list(nl, 48, seed * 7));

    FaultSimulator reference(nl, patterns, scalar_kernel());
    const auto ref_sigs = reference.signatures(faults, ExecPolicy::serial());
    const auto ref_det = reference.detected(faults);
    const double ref_cov = reference.coverage(faults);

    for (const SimKernel* k : available_kernels()) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " kernel=" + k->name);
      FaultSimulator fsim(nl, patterns, *k);
      EXPECT_EQ(&fsim.kernel(), k);
      for (std::size_t i = 0; i < faults.size(); ++i) {
        SCOPED_TRACE("fault " + std::to_string(i));
        EXPECT_EQ(fsim.signature(faults[i]), ref_sigs[i]);
        EXPECT_EQ(fsim.first_detecting_pattern(faults[i]),
                  reference.first_detecting_pattern(faults[i]));
      }
      EXPECT_EQ(fsim.detected(faults), ref_det);
      EXPECT_EQ(fsim.coverage(faults), ref_cov);
      // Thread counts must not change a single byte either.
      for (const std::size_t n_threads : {1u, 3u}) {
        SCOPED_TRACE("n_threads=" + std::to_string(n_threads));
        const ExecPolicy policy = ExecPolicy::parallel(n_threads);
        EXPECT_EQ(fsim.signatures(faults, policy), ref_sigs);
        EXPECT_EQ(fsim.detected(faults, policy), ref_det);
        EXPECT_EQ(fsim.coverage(faults, policy), ref_cov);
      }
    }
  }
}

TEST(KernelEquiv, MultipletSignaturesMatchScalar) {
  const std::uint64_t seed = 21;
  const Netlist nl = make_random_circuit(circuit_config(seed));
  const PatternSet patterns = PatternSet::random(130, nl.n_inputs(), seed);
  const std::vector<Fault> faults =
      static_only(make_fault_list(nl, 24, seed * 7));

  FaultSimulator reference(nl, patterns, scalar_kernel());
  for (const SimKernel* k : available_kernels()) {
    SCOPED_TRACE(std::string("kernel=") + k->name);
    FaultSimulator fsim(nl, patterns, *k);
    std::mt19937_64 rng(seed);
    for (int trial = 0; trial < 12; ++trial) {
      SCOPED_TRACE("trial " + std::to_string(trial));
      std::vector<Fault> multiplet;
      const std::size_t size = 2 + rng() % 3;
      for (std::size_t j = 0; j < size; ++j)
        multiplet.push_back(faults[rng() % faults.size()]);
      EXPECT_EQ(fsim.signature(multiplet), reference.signature(multiplet));
    }
  }
}

TEST(KernelEquiv, PairSignaturesMatchScalar) {
  for (const std::uint64_t seed : {31ull, 32ull}) {
    const Netlist nl = make_random_circuit(circuit_config(seed));
    const std::size_t n_pat = kPatternCounts[(seed + 2) % 5];
    const PatternSet launch =
        PatternSet::random(n_pat, nl.n_inputs(), seed * 2);
    const PatternSet capture =
        PatternSet::random(n_pat, nl.n_inputs(), seed * 2 + 1);
    // Transitions included: the two-frame path is the whole point here.
    const std::vector<Fault> faults = make_fault_list(nl, 32, seed * 7);

    PairFaultSimulator reference(nl, launch, capture, scalar_kernel());
    const double ref_cov = reference.coverage(faults);
    for (const SimKernel* k : available_kernels()) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " kernel=" + k->name);
      PairFaultSimulator fsim(nl, launch, capture, *k);
      EXPECT_EQ(fsim.good_response(), reference.good_response());
      for (std::size_t i = 0; i < faults.size(); ++i) {
        SCOPED_TRACE("fault " + std::to_string(i));
        EXPECT_EQ(fsim.signature(faults[i]), reference.signature(faults[i]));
        EXPECT_EQ(fsim.first_detecting_pair(faults[i]),
                  reference.first_detecting_pair(faults[i]));
      }
      EXPECT_EQ(fsim.coverage(faults), ref_cov);
      std::vector<Fault> multiplet{faults[0], faults[7], faults[19]};
      EXPECT_EQ(fsim.signature(multiplet), reference.signature(multiplet));
    }
  }
}

TEST(KernelEquiv, PropagatorSoloAndCompositeMatchScalar) {
  for (const std::uint64_t seed : {41ull, 42ull}) {
    const Netlist nl = make_random_circuit(circuit_config(seed));
    const PatternSet patterns =
        PatternSet::random(kPatternCounts[seed % 5], nl.n_inputs(), seed);
    const std::vector<Fault> faults =
        static_only(make_fault_list(nl, 32, seed * 7));

    SingleFaultPropagator reference(nl, patterns, scalar_kernel());
    // The propagator must also agree with the full-machine simulator.
    FaultSimulator full(nl, patterns, scalar_kernel());
    for (const SimKernel* k : available_kernels()) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " kernel=" + k->name);
      SingleFaultPropagator prop(nl, patterns, *k);
      EXPECT_EQ(&prop.kernel(), k);
      std::mt19937_64 rng(seed);
      for (std::size_t i = 0; i < faults.size(); ++i) {
        SCOPED_TRACE("fault " + std::to_string(i));
        const ErrorSignature sig = prop.signature(faults[i]);
        EXPECT_EQ(sig, reference.signature(faults[i]));
        EXPECT_EQ(sig, full.signature(faults[i]));
      }
      for (int trial = 0; trial < 8; ++trial) {
        SCOPED_TRACE("composite trial " + std::to_string(trial));
        std::vector<Fault> multiplet;
        const std::size_t size = 2 + rng() % 2;
        for (std::size_t j = 0; j < size; ++j)
          multiplet.push_back(faults[rng() % faults.size()]);
        EXPECT_EQ(prop.signature(multiplet), reference.signature(multiplet));
      }
    }
  }
}

TEST(KernelEquiv, SharedBaselineServesEveryKernel) {
  // One baseline, read in place by every kernel's propagator: the padded
  // net-major rows must give each lane width (1, 4, 8) the same lane rows,
  // including the ragged last group, and the feedback fallbacks must take
  // the same exact-machine path.
  const std::uint64_t seed = 51;
  const Netlist nl = make_random_circuit(circuit_config(seed));
  for (const std::size_t n_pat : {1u, 63u, 65u, 130u, 513u}) {
    SCOPED_TRACE("n_pat=" + std::to_string(n_pat));
    const PatternSet patterns =
        PatternSet::random(n_pat, nl.n_inputs(), seed + n_pat);
    const auto baseline = SingleFaultPropagator::make_baseline(nl, patterns);
    ASSERT_EQ(baseline->n_blocks, patterns.n_blocks());
    ASSERT_EQ(baseline->stride % kMaxKernelLanes, 0u);
    ASSERT_EQ(baseline->values.size(), nl.n_nets() * baseline->stride);
    BlockSim sim(nl, scalar_kernel());
    for (std::size_t b = 0; b < patterns.n_blocks(); ++b) {
      sim.run(patterns, b);
      for (NetId n = 0; n < nl.n_nets(); ++n)
        ASSERT_EQ(baseline->row(n)[b], sim.value(n)) << "net " << n;
    }
    for (NetId n = 0; n < nl.n_nets(); ++n) {
      const Word* row = baseline->row(n);
      for (std::size_t s = baseline->n_blocks; s < baseline->stride; ++s)
        ASSERT_EQ(row[s], row[baseline->n_blocks - 1])
            << "net " << n << " padding slot " << s;
    }

    // Faults with one defined answer: no bridge between a net and its own
    // fan-out cone.
    std::vector<Fault> faults;
    for (const Fault& f : static_only(make_fault_list(nl, 48, seed)))
      if (f.is_stuck_at() || !is_feedback_pair(nl, f.net, f.bridge_net))
        faults.push_back(f);
    FaultSimulator reference(nl, patterns, scalar_kernel());
    std::vector<ErrorSignature> solo;
    for (const Fault& f : faults) solo.push_back(reference.signature(f));
    std::mt19937_64 rng(seed + n_pat);
    std::vector<std::vector<Fault>> multiplets;
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<Fault> multiplet;
      const std::size_t size = 2 + rng() % 3;
      for (std::size_t j = 0; j < size; ++j)
        multiplet.push_back(faults[rng() % faults.size()]);
      multiplets.push_back(multiplet);
    }
    for (const SimKernel* k : available_kernels()) {
      SCOPED_TRACE(std::string("kernel=") + k->name);
      SingleFaultPropagator prop(nl, patterns, baseline, *k);
      EXPECT_EQ(prop.good_response(), reference.good_response());
      for (std::size_t i = 0; i < faults.size(); ++i)
        EXPECT_EQ(prop.signature(faults[i]), solo[i])
            << to_string(faults[i], nl);
      for (const auto& multiplet : multiplets)
        EXPECT_EQ(prop.signature(std::span<const Fault>(multiplet)),
                  reference.signature(multiplet));
    }

    // Bridges between a net and one of its fan-outs run on the exact
    // fixpoint machine: a wired one solo, and any multiplet holding a
    // dominant one (its coupling is cyclic). That machine keeps its net
    // values from query to query and a feedback loop can latch them, so
    // these are checked on fresh objects against the same kernel.
    const std::uint64_t fallbacks_before =
        obs::registry().counter("propagate.fallbacks").value();
    const std::uint64_t composite_fallbacks_before =
        obs::registry().counter("propagate.composite_fallbacks").value();
    std::size_t n_feedback = 0;
    for (NetId n = 0; n < nl.n_nets() && n_feedback < 4; n += 11) {
      if (nl.fanouts(n).empty()) continue;
      ++n_feedback;
      const NetId fanout = nl.fanouts(n)[0];
      const Fault wired = Fault::bridge_wor(n, fanout);
      const std::vector<Fault> multiplet{faults[0],
                                         Fault::bridge_dom(n, fanout)};
      for (const SimKernel* k : available_kernels()) {
        SCOPED_TRACE(std::string("kernel=") + k->name + " feedback " +
                     to_string(wired, nl));
        {
          SingleFaultPropagator prop(nl, patterns, baseline, *k);
          FaultSimulator exact(nl, patterns, *k);
          EXPECT_EQ(prop.signature(wired), exact.signature(wired));
        }
        SingleFaultPropagator prop(nl, patterns, baseline, *k);
        FaultSimulator exact(nl, patterns, *k);
        EXPECT_EQ(prop.signature(std::span<const Fault>(multiplet)),
                  exact.signature(multiplet));
      }
    }
    EXPECT_EQ(obs::registry().counter("propagate.fallbacks").value(),
              fallbacks_before + n_feedback * available_kernels().size());
    EXPECT_EQ(obs::registry().counter("propagate.composite_fallbacks").value(),
              composite_fallbacks_before +
                  n_feedback * available_kernels().size());
  }
}

TEST(KernelEquiv, SetCurrentKernelByNameRoundTrips) {
  KernelGuard guard;
  for (const SimKernel* k : available_kernels()) {
    ASSERT_TRUE(set_current_kernel(k->name));
    EXPECT_EQ(&current_kernel(), k);
    // Default-constructed machinery picks the process-wide choice up.
    const Netlist nl = make_named_circuit("c17");
    const PatternSet patterns = PatternSet::random(70, nl.n_inputs(), 5);
    FaultSimulator fsim(nl, patterns);
    EXPECT_EQ(&fsim.kernel(), k);
  }
  EXPECT_FALSE(set_current_kernel("definitely-not-a-kernel"));
}

}  // namespace
}  // namespace mdd
