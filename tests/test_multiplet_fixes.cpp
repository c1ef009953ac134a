// Regression tests for multiplet-diagnoser loop bugs: restart seeding
// order under score ties, deadline polling inside the refinement swap
// pass, the reported scored-candidate count, and the dropped-candidate
// counter under a tripped deadline.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "core/cancel.hpp"
#include "diag/multiplet.hpp"
#include "netlist/generator.hpp"
#include "obs/metrics.hpp"

namespace mdd {
namespace {

using Clock = std::chrono::steady_clock;

struct Case {
  Netlist netlist;
  PatternSet patterns;
  PatternSet good;

  explicit Case(const std::string& name, std::size_t n_patterns = 256,
                std::uint64_t seed = 17)
      : netlist(make_named_circuit(name)),
        patterns(PatternSet::random(n_patterns, netlist.n_inputs(), seed)),
        good(simulate(netlist, patterns)) {}

  Datalog log(std::span<const Fault> defect) const {
    return datalog_from_defect(netlist, defect, patterns, good);
  }
};

// ---- restart seeding under score ties ---------------------------------------

// A long buffer chain makes every stuck-at along it logically identical:
// dozens of round-1 seeds tie at the exact-explanation score. The restart
// sort must break those ties by fault identity — sorting by score alone
// leaves the winning seed (and hence the reported suspect) at the mercy of
// std::sort's treatment of equal elements.
TEST(MultipletFixes, TiedSeedsResolveToSmallestFault) {
  Netlist nl("chain");
  NetId prev = nl.add_input("a");
  for (int i = 0; i < 40; ++i)
    prev = nl.add_gate(GateKind::Buf, {prev}, "b" + std::to_string(i));
  nl.mark_output(prev);
  nl.finalize();
  const PatternSet patterns = PatternSet::random(64, nl.n_inputs(), 7);
  const PatternSet good = simulate(nl, patterns);

  const Fault defect = Fault::stem_sa(nl.find_net("b20"), false);
  const Datalog log =
      datalog_from_defect(nl, {&defect, 1}, patterns, good);
  DiagnosisContext ctx(nl, patterns, log);

  const DiagnosisReport r = diagnose_multiplet(ctx);
  ASSERT_EQ(r.suspects.size(), 1u);

  // The specified winner among tied seeds: the identity-smallest candidate
  // whose solo signature explains the log exactly.
  bool found = false;
  Fault expected{};
  for (std::size_t i = 0; i < ctx.n_candidates(); ++i) {
    if (!(ctx.solo_signature(i) == ctx.observed())) continue;
    if (!found || ctx.candidate(i) < expected) expected = ctx.candidate(i);
    found = true;
  }
  ASSERT_TRUE(found);
  EXPECT_EQ(r.suspects[0].fault, expected);
}

// ---- deadline polling in the refinement swap pass ---------------------------

// With max_multiplicity=1 every composite evaluation happens inside the
// swap pass's inner loop, and seeding every shortlisted singleton as a
// restart guarantees no swap can improve — the sweep runs end to end. A
// deadline placed a few evaluations into that sweep must stop it within
// about one evaluation, not after the whole shortlist.
TEST(MultipletFixes, SwapPassHonorsDeadline) {
  const Case tc("g200");
  const std::vector<Fault> defect{
      Fault::stem_sa(tc.netlist.find_net("g_10"), true),
      Fault::stem_sa(tc.netlist.find_net("g_90"), false)};
  const Datalog log = tc.log(defect);
  DiagnosisContext ctx(tc.netlist, tc.patterns, log);
  // The reference simulators make each composite evaluation expensive
  // enough to time; the fix under test is eval-path independent.
  ctx.use_reference_composites(true);

  MultipletOptions opt;
  opt.max_multiplicity = 1;
  opt.shortlist = 2 * ctx.n_candidates();
  opt.restarts = opt.shortlist;
  opt.report_alternates = false;

  // Calibrate one reference composite evaluation.
  const Fault probe = defect[0];
  auto t0 = Clock::now();
  (void)ctx.multiplet_signature({&probe, 1});
  const auto t_eval = Clock::now() - t0;

  // Warm the solo cache, then measure the pre-refinement runtime on the
  // warm context so the deadline can be placed inside the swap sweep.
  MultipletOptions measure = opt;
  measure.refine = false;
  (void)diagnose_multiplet(ctx, measure);
  t0 = Clock::now();
  (void)diagnose_multiplet(ctx, measure);
  const auto t_pre = Clock::now() - t0;

  const auto budget = t_pre + 25 * t_eval;
  const CancelToken token(Clock::now() + budget);
  opt.cancel = &token;
  t0 = Clock::now();
  const DiagnosisReport r = diagnose_multiplet(ctx, opt);
  const auto elapsed = Clock::now() - t0;

  ASSERT_TRUE(r.timed_out);
  // Pre-fix the sweep runs its remaining few-hundred evaluations past the
  // deadline; post-fix the overshoot is at most ~one evaluation.
  EXPECT_LT(elapsed, budget + 10 * t_eval + std::chrono::milliseconds(20))
      << "swap pass overshot its deadline";
}

// ---- n_candidates_scored ----------------------------------------------------

TEST(MultipletFixes, ScoredCountReflectsActualWork) {
  const Case tc("g200");
  const std::vector<Fault> defect{
      Fault::stem_sa(tc.netlist.find_net("g_10"), true),
      Fault::stem_sa(tc.netlist.find_net("g_90"), false)};
  const Datalog log = tc.log(defect);

  {
    DiagnosisContext ctx(tc.netlist, tc.patterns, log);
    const DiagnosisReport r = diagnose_multiplet(ctx);
    EXPECT_EQ(r.n_candidates_scored, ctx.n_candidates());
  }
  {
    // A token cancelled before the first candidate: nothing was scored,
    // and the report must say so instead of claiming the whole pool.
    DiagnosisContext ctx(tc.netlist, tc.patterns, log);
    CancelToken token;
    token.request_cancel();
    MultipletOptions opt;
    opt.cancel = &token;
    const DiagnosisReport r = diagnose_multiplet(ctx, opt);
    EXPECT_TRUE(r.timed_out);
    EXPECT_EQ(r.n_candidates_scored, 0u);
    EXPECT_TRUE(r.suspects.empty());
  }
}

// ---- diag.rank_dropped ------------------------------------------------------

// A deadline that trips while the candidates are being indexed drops each
// unindexed candidate once: a pre-cancelled token drops the whole pool,
// not the whole pool once per indexing pass.
TEST(MultipletFixes, RankDroppedCountsEachCandidateOnce) {
  const Case tc("g200");
  const std::vector<Fault> defect{
      Fault::stem_sa(tc.netlist.find_net("g_10"), true),
      Fault::stem_sa(tc.netlist.find_net("g_90"), false)};
  const Datalog log = tc.log(defect);
  DiagnosisContext ctx(tc.netlist, tc.patterns, log);
  ASSERT_GT(ctx.n_candidates(), 0u);

  const obs::Counter& dropped = obs::registry().counter("diag.rank_dropped");
  const std::uint64_t before = dropped.value();
  CancelToken token;
  token.request_cancel();
  MultipletOptions opt;
  opt.cancel = &token;
  const DiagnosisReport r = diagnose_multiplet(ctx, opt);
  EXPECT_EQ(dropped.value() - before, ctx.n_candidates());
  EXPECT_TRUE(r.timed_out);
  EXPECT_TRUE(r.suspects.empty());
}

}  // namespace
}  // namespace mdd
