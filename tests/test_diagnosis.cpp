// Unit tests: diagnosis context, scoring, the three diagnosers on
// controlled cases, and metamorphic checks (input transformations that
// must leave every report unchanged).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <regex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "diag/metrics.hpp"
#include "diag/multiplet.hpp"
#include "diag/single_fault.hpp"
#include "diag/slat.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/generator.hpp"
#include "netlist/verilog_parser.hpp"
#include "server/result_json.hpp"
#include "workload/circuits.hpp"
#include "workload/loadgen.hpp"
#include "workload/textio.hpp"

namespace mdd {
namespace {

struct Case {
  Netlist netlist;
  PatternSet patterns;
  PatternSet good;
  CollapsedFaults collapsed;

  explicit Case(const std::string& name, std::size_t n_patterns = 256,
                std::uint64_t seed = 17)
      : netlist(make_named_circuit(name)),
        patterns(PatternSet::random(n_patterns, netlist.n_inputs(), seed)),
        good(simulate(netlist, patterns)),
        collapsed(netlist) {}

  Datalog log(std::span<const Fault> defect,
              const DatalogOptions& opt = {}) const {
    return datalog_from_defect(netlist, defect, patterns, good, opt);
  }
};

TEST(ScoreWeights, Ordering) {
  const ScoreWeights w;
  MatchCounts perfect{10, 0, 0};
  MatchCounts partial{7, 3, 0};
  MatchCounts noisy{10, 0, 5};
  EXPECT_GT(score_of(perfect, w), score_of(partial, w));
  EXPECT_GT(score_of(perfect, w), score_of(noisy, w));
}

TEST(DiagnosisContext, WindowRestriction) {
  const Case tc("c17", 32);
  const Fault f = Fault::stem_sa(tc.netlist.find_net("16"), true);
  DatalogOptions opt;
  opt.max_failing_patterns = 1;
  const Datalog log = tc.log({&f, 1}, opt);
  ASSERT_TRUE(log.pattern_truncated);
  DiagnosisContext ctx(tc.netlist, tc.patterns, log);
  EXPECT_EQ(ctx.patterns().n_patterns(), log.n_patterns_applied);
  EXPECT_LE(ctx.observed().failing_patterns().back(),
            log.n_patterns_applied - 1);
}

TEST(DiagnosisContext, SoloSignaturesCached) {
  const Case tc("c17", 32);
  const Fault f = Fault::stem_sa(tc.netlist.find_net("16"), true);
  const Datalog log = tc.log({&f, 1});
  DiagnosisContext ctx(tc.netlist, tc.patterns, log);
  ASSERT_GT(ctx.n_candidates(), 0u);
  const ErrorSignature& a = ctx.solo_signature(0);
  const ErrorSignature& b = ctx.solo_signature(0);
  EXPECT_EQ(&a, &b);  // same cached object
}

// ---- single-fault baseline --------------------------------------------------

TEST(SingleFault, RanksInjectedFaultFirst) {
  const Case tc("g200");
  FaultSimulator fsim(tc.netlist, tc.patterns);
  std::mt19937_64 rng(3);
  const CollapsedFaults& cf = tc.collapsed;
  std::size_t tested = 0;
  while (tested < 15) {
    const Fault f = Fault::stem_sa(rng() % tc.netlist.n_nets(), rng() & 1);
    if (!fsim.detects(f)) continue;
    ++tested;
    const Datalog log = tc.log({&f, 1});
    DiagnosisContext ctx(tc.netlist, tc.patterns, log);
    const DiagnosisReport r = diagnose_single_fault(ctx);
    ASSERT_FALSE(r.suspects.empty());
    const TruthEvaluation ev = evaluate_against_truth(r, {&f, 1}, cf);
    EXPECT_TRUE(ev.first_hit) << to_string(f, tc.netlist);
    EXPECT_TRUE(r.explains_all) << to_string(f, tc.netlist);
  }
}

TEST(SingleFault, TopKLimit) {
  const Case tc("g200");
  const Fault f = Fault::stem_sa(tc.netlist.find_net("g_50"), false);
  const Datalog log = tc.log({&f, 1});
  DiagnosisContext ctx(tc.netlist, tc.patterns, log);
  SingleFaultOptions opt;
  opt.top_k = 3;
  const DiagnosisReport r = diagnose_single_fault(ctx, opt);
  EXPECT_LE(r.suspects.size(), 3u);
  // Scores are non-increasing.
  for (std::size_t i = 1; i < r.suspects.size(); ++i)
    EXPECT_LE(r.suspects[i].score, r.suspects[i - 1].score);
}

// ---- SLAT baseline ----------------------------------------------------------

TEST(Slat, SingleFaultAllPatternsSlat) {
  const Case tc("g200");
  const Fault f = Fault::stem_sa(tc.netlist.find_net("g_50"), false);
  const Datalog log = tc.log({&f, 1});
  DiagnosisContext ctx(tc.netlist, tc.patterns, log);
  const DiagnosisReport r = diagnose_slat(ctx);
  EXPECT_EQ(r.n_nonslat_patterns, 0u);
  EXPECT_GE(r.n_slat_patterns, 1u);
  const TruthEvaluation ev = evaluate_against_truth(r, {&f, 1}, tc.collapsed);
  EXPECT_TRUE(ev.all_hit);
}

TEST(Slat, IndependentDoubleDefectCovered) {
  // Two defects in disjoint cones never interact at a shared output, but
  // patterns exciting both at once still produce non-SLAT responses (two
  // failing POs no single fault predicts together). SLAT discards those
  // and must still recover both defects from the single-excitation
  // patterns.
  Netlist nl("disjoint");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const NetId d = nl.add_input("d");
  const NetId x = nl.add_gate(GateKind::And, {a, b}, "x");
  const NetId y = nl.add_gate(GateKind::Or, {c, d}, "y");
  nl.mark_output(x);
  nl.mark_output(y);
  nl.finalize();
  const PatternSet patterns = PatternSet::exhaustive(4);
  const PatternSet good = simulate(nl, patterns);
  const CollapsedFaults cf(nl);

  const std::vector<Fault> defect{Fault::stem_sa(x, true),
                                  Fault::stem_sa(y, false)};
  const Datalog log = datalog_from_defect(nl, defect, patterns, good);
  DiagnosisContext ctx(nl, patterns, log);
  const DiagnosisReport r = diagnose_slat(ctx);
  EXPECT_GT(r.n_slat_patterns, 0u);
  const TruthEvaluation ev = evaluate_against_truth(r, defect, cf);
  EXPECT_TRUE(ev.all_hit);
}

TEST(Slat, MaskingCreatesNonSlatPatterns) {
  // Crafted interaction with side observations so the composite is NOT
  // equivalent to any single fault: n1 and n2 are directly observed (z2,
  // z3) and also meet at an XOR (z1) where simultaneous errors cancel.
  // Patterns exciting both defects produce the response {z2, z3 fail,
  // z1 pass}, which no single fault predicts -> non-SLAT.
  Netlist nl("maskcase");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  const NetId d = nl.add_input("d");
  const NetId n1 = nl.add_gate(GateKind::And, {a, b}, "n1");
  const NetId n2 = nl.add_gate(GateKind::And, {c, d}, "n2");
  const NetId z1 = nl.add_gate(GateKind::Xor, {n1, n2}, "z1");
  const NetId z2 = nl.add_gate(GateKind::Buf, {n1}, "z2");
  const NetId z3 = nl.add_gate(GateKind::Buf, {n2}, "z3");
  nl.mark_output(z1);
  nl.mark_output(z2);
  nl.mark_output(z3);
  nl.finalize();
  const PatternSet patterns = PatternSet::exhaustive(4);
  const PatternSet good = simulate(nl, patterns);

  const std::vector<Fault> defect{Fault::stem_sa(n1, true),
                                  Fault::stem_sa(n2, true)};
  const Datalog log = datalog_from_defect(nl, defect, patterns, good);
  DiagnosisContext ctx(nl, patterns, log);

  const DiagnosisReport slat = diagnose_slat(ctx);
  EXPECT_GT(slat.n_nonslat_patterns, 0u);

  // No single candidate reproduces the log.
  const DiagnosisReport single = diagnose_single_fault(ctx);
  EXPECT_FALSE(single.explains_all);

  // The no-assumptions multiplet diagnoser explains it exactly and names
  // both sites.
  const DiagnosisReport multi = diagnose_multiplet(ctx);
  EXPECT_TRUE(multi.explains_all);
  const CollapsedFaults cf(nl);
  const TruthEvaluation ev = evaluate_against_truth(multi, defect, cf);
  EXPECT_TRUE(ev.all_hit);
}

// ---- multiplet (headline) ---------------------------------------------------

TEST(Multiplet, SingleFaultExact) {
  const Case tc("g200");
  FaultSimulator fsim(tc.netlist, tc.patterns);
  std::mt19937_64 rng(5);
  std::size_t tested = 0;
  while (tested < 15) {
    const Fault f = Fault::stem_sa(rng() % tc.netlist.n_nets(), rng() & 1);
    if (!fsim.detects(f)) continue;
    ++tested;
    const Datalog log = tc.log({&f, 1});
    DiagnosisContext ctx(tc.netlist, tc.patterns, log);
    const DiagnosisReport r = diagnose_multiplet(ctx);
    EXPECT_TRUE(r.explains_all) << to_string(f, tc.netlist);
    EXPECT_EQ(r.suspects.size(), 1u) << to_string(f, tc.netlist);
    const TruthEvaluation ev =
        evaluate_against_truth(r, {&f, 1}, tc.collapsed);
    EXPECT_TRUE(ev.all_hit) << to_string(f, tc.netlist);
  }
}

TEST(Multiplet, ReportedMultipletReallyExplainsWhenExact) {
  const Case tc("g200");
  FaultSimulator fsim(tc.netlist, tc.patterns);
  std::mt19937_64 rng(6);
  std::size_t tested = 0;
  while (tested < 8) {
    const std::vector<Fault> defect{
        Fault::stem_sa(rng() % tc.netlist.n_nets(), rng() & 1),
        Fault::stem_sa(rng() % tc.netlist.n_nets(), rng() & 1)};
    if (defect[0].net == defect[1].net) continue;
    if (!fsim.detects(defect[0]) || !fsim.detects(defect[1])) continue;
    ++tested;
    const Datalog log = tc.log(defect);
    DiagnosisContext ctx(tc.netlist, tc.patterns, log);
    const DiagnosisReport r = diagnose_multiplet(ctx);
    if (!r.explains_all) continue;
    // Independent verification: injecting the reported multiplet must
    // reproduce the datalog bit-for-bit.
    const std::vector<Fault> reported = r.suspect_faults();
    const PatternSet resp =
        simulate_with_faults(tc.netlist, reported, tc.patterns);
    EXPECT_EQ(ErrorSignature::diff(tc.good, resp), log.observed);
  }
}

TEST(Multiplet, MultiplicityCapRespected) {
  const Case tc("g200");
  const std::vector<Fault> defect{
      Fault::stem_sa(tc.netlist.find_net("g_10"), true),
      Fault::stem_sa(tc.netlist.find_net("g_90"), false),
      Fault::stem_sa(tc.netlist.find_net("g_150"), true)};
  const Datalog log = tc.log(defect);
  DiagnosisContext ctx(tc.netlist, tc.patterns, log);
  MultipletOptions opt;
  opt.max_multiplicity = 2;
  const DiagnosisReport r = diagnose_multiplet(ctx, opt);
  EXPECT_LE(r.suspects.size(), 2u);
}

TEST(Multiplet, Deterministic) {
  const Case tc("g200");
  const std::vector<Fault> defect{
      Fault::stem_sa(tc.netlist.find_net("g_10"), true),
      Fault::stem_sa(tc.netlist.find_net("g_90"), false)};
  const Datalog log = tc.log(defect);
  DiagnosisContext ctx1(tc.netlist, tc.patterns, log);
  DiagnosisContext ctx2(tc.netlist, tc.patterns, log);
  const DiagnosisReport a = diagnose_multiplet(ctx1);
  const DiagnosisReport b = diagnose_multiplet(ctx2);
  EXPECT_EQ(a.suspect_faults(), b.suspect_faults());
}

TEST(Multiplet, EmptyDatalogReportsNothing) {
  const Case tc("c17", 32);
  Datalog log;
  log.observed = ErrorSignature(32, tc.netlist.n_outputs());
  log.n_patterns_applied = 32;
  DiagnosisContext ctx(tc.netlist, tc.patterns, log);
  const DiagnosisReport r = diagnose_multiplet(ctx);
  EXPECT_TRUE(r.suspects.empty());
  EXPECT_FALSE(r.explains_all);
}

// ---- metrics ----------------------------------------------------------------

TEST(Metrics, SameSiteRules) {
  const Netlist nl = make_c17();
  const CollapsedFaults cf(nl);
  const NetId n1 = nl.find_net("1"), n10 = nl.find_net("10");
  // Equivalent through NAND rule: 1 sa0 ~ 10 sa1.
  EXPECT_TRUE(same_site(Fault::stem_sa(n1, false), Fault::stem_sa(n10, true),
                        cf));
  EXPECT_FALSE(same_site(Fault::stem_sa(n1, true), Fault::stem_sa(n10, true),
                         cf));
  // Bridges: victim match suffices for dominant pairs, and the same
  // unordered net pair is the same physical short regardless of which net
  // dominates.
  EXPECT_TRUE(same_site(Fault::bridge_dom(n10, n1),
                        Fault::bridge_dom(n10, nl.find_net("19")), cf));
  EXPECT_TRUE(same_site(Fault::bridge_dom(n1, n10),
                        Fault::bridge_dom(n10, n1), cf));
  EXPECT_FALSE(same_site(Fault::bridge_dom(n1, n10),
                         Fault::bridge_dom(nl.find_net("19"), n10), cf));
  // Mixed SA/bridge never matches.
  EXPECT_FALSE(same_site(Fault::stem_sa(n10, false),
                         Fault::bridge_dom(n10, n1), cf));
}

TEST(Metrics, EvaluateCounts) {
  const Netlist nl = make_c17();
  const CollapsedFaults cf(nl);
  DiagnosisReport report;
  report.method = "test";
  ScoredCandidate sc1;
  sc1.fault = Fault::stem_sa(nl.find_net("16"), false);
  ScoredCandidate sc2;
  sc2.fault = Fault::stem_sa(nl.find_net("19"), true);
  report.suspects = {sc1, sc2};
  const std::vector<Fault> injected{Fault::stem_sa(nl.find_net("16"), false),
                                    Fault::stem_sa(nl.find_net("22"), true)};
  const TruthEvaluation ev = evaluate_against_truth(report, injected, cf);
  EXPECT_EQ(ev.n_injected, 2u);
  EXPECT_EQ(ev.n_hit, 1u);
  EXPECT_FALSE(ev.all_hit);
  EXPECT_TRUE(ev.first_hit);
  EXPECT_DOUBLE_EQ(ev.hit_rate, 0.5);
  EXPECT_DOUBLE_EQ(ev.precision, 0.5);
  EXPECT_DOUBLE_EQ(ev.resolution, 1.0);
}

TEST(Metrics, AlternatesCountAsHits) {
  const Netlist nl = make_c17();
  const CollapsedFaults cf(nl);
  DiagnosisReport report;
  ScoredCandidate sc;
  sc.fault = Fault::stem_sa(nl.find_net("19"), true);
  sc.alternates = {Fault::stem_sa(nl.find_net("16"), false)};
  report.suspects = {sc};
  const std::vector<Fault> injected{Fault::stem_sa(nl.find_net("16"), false)};
  const TruthEvaluation ev = evaluate_against_truth(report, injected, cf);
  EXPECT_TRUE(ev.all_hit);
}

/// The `--method all` JSON reports of one datalog text, exactly as
/// `openmdd diagnose --format json` and the daemon serialize them.
std::string all_reports_json(const Netlist& netlist,
                             const PatternSet& patterns,
                             const std::string& datalog_text) {
  std::istringstream in(datalog_text);
  const Datalog log = read_datalog(in, netlist);
  DiagnosisContext ctx(netlist, patterns, log);
  std::vector<DiagnosisReport> reports;
  reports.push_back(diagnose_multiplet(ctx));
  reports.push_back(diagnose_slat(ctx));
  reports.push_back(diagnose_single_fault(ctx));
  return server::reports_to_json(reports, netlist).dump();
}

/// Rewrites every `fail <pattern> : <po>...` line of a datalog text with
/// `edit(fail_lines)`, leaving the other lines where they are.
template <typename Edit>
std::string edit_fail_lines(const std::string& text, Edit edit) {
  std::vector<std::string> lines, fails;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
    if (line.rfind("fail ", 0) == 0) fails.push_back(line);
  }
  edit(fails);
  std::string out;
  std::size_t next_fail = 0;
  for (const std::string& line : lines)
    out += (line.rfind("fail ", 0) == 0 ? fails[next_fail++] : line) + "\n";
  return out;
}

/// `openmdd corpus g200 --seed 7`, case 0 (a sampled multiplet), read
/// back through the written `.bench` as the CLI and the daemon read it,
/// with its untransformed reports.
struct MetamorphicCase {
  LoadgenCase logged;
  Netlist netlist;
  PatternSet patterns;
  std::string reference;
};

const MetamorphicCase& metamorphic_case() {
  static const MetamorphicCase c = [] {
    const BenchCircuit bench = load_bench_circuit("g200");
    CorpusConfig config;
    config.n_cases = 1;
    config.seed = 7;
    MetamorphicCase out{
        make_corpus(bench.netlist, bench.patterns,
                    simulate(bench.netlist, bench.patterns), config)
            .at(0),
        parse_bench_string(write_bench_string(bench.netlist)).netlist,
        bench.patterns, {}};
    out.reference =
        all_reports_json(out.netlist, out.patterns, out.logged.datalog_text);
    return out;
  }();
  return c;
}

TEST(Metamorphic, FailLineOrderDoesNotChangeReports) {
  const MetamorphicCase& c = metamorphic_case();
  ASSERT_GE(c.logged.defect.size(), 2u) << "the case must be a multiplet";
  ASSERT_GE(c.logged.n_failing_patterns, 2u);
  const std::string shuffled =
      edit_fail_lines(c.logged.datalog_text, [](std::vector<std::string>& v) {
        std::mt19937 rng(7);
        const std::vector<std::string> before = v;
        while (v == before) std::shuffle(v.begin(), v.end(), rng);
      });
  EXPECT_EQ(all_reports_json(c.netlist, c.patterns, shuffled), c.reference);
}

TEST(Metamorphic, OutputOrderWithinAFailLineDoesNotChangeReports) {
  const MetamorphicCase& c = metamorphic_case();
  const std::string reversed =
      edit_fail_lines(c.logged.datalog_text, [](std::vector<std::string>& v) {
        for (std::string& line : v) {
          const std::size_t colon = line.find(" : ");
          ASSERT_NE(colon, std::string::npos) << line;
          std::istringstream pos(line.substr(colon + 3));
          std::vector<std::string> names;
          for (std::string po; pos >> po;) names.push_back(po);
          line.resize(colon + 2);
          for (auto it = names.rbegin(); it != names.rend(); ++it)
            line += " " + *it;
        }
      });
  ASSERT_NE(reversed, c.logged.datalog_text)
      << "the case needs a fail line with two or more outputs";
  EXPECT_EQ(all_reports_json(c.netlist, c.patterns, reversed), c.reference);
}

TEST(Metamorphic, VerilogRoundTripOfTheBenchNetlistDoesNotChangeReports) {
  const MetamorphicCase& c = metamorphic_case();
  const CellLibrary lib;
  const Netlist from_verilog =
      parse_verilog_string(write_verilog_string(c.netlist), lib).netlist;
  EXPECT_EQ(all_reports_json(from_verilog, c.patterns, c.logged.datalog_text),
            c.reference);
}

TEST(Metamorphic, RenamingEveryNetDoesNotChangeReports) {
  // Every net gets a fresh name whose order scrambles the original one
  // (a shuffled index between 'q' and 'z'); the datalog names its
  // outputs the new way. Names map back one-to-one in the reports.
  const MetamorphicCase& c = metamorphic_case();
  std::vector<std::size_t> order(c.netlist.n_nets());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937(7));
  std::map<std::string, std::string> renamed, original;
  for (NetId n = 0; n < c.netlist.n_nets(); ++n) {
    const std::string name = "q" + std::to_string(order[n]) + "z";
    renamed[c.netlist.net_name(n)] = name;
    original[name] = c.netlist.net_name(n);
  }
  // Identifiers in `.bench` and fail lines are runs of characters other
  // than separators; keywords, gate kinds and numbers stay as they are.
  const auto rename = [&renamed](const std::string& text) {
    std::string out, token;
    const auto flush = [&] {
      const auto it = renamed.find(token);
      out += it == renamed.end() ? token : it->second;
      token.clear();
    };
    for (const char ch : text) {
      if (std::string_view(" \t\n(),=:#").find(ch) != std::string_view::npos) {
        flush();
        out += ch;
      } else {
        token += ch;
      }
    }
    flush();
    return out;
  };
  const Netlist netlist =
      parse_bench_string(rename(write_bench_string(c.netlist))).netlist;
  ASSERT_EQ(netlist.n_nets(), c.netlist.n_nets());
  const std::string datalog = edit_fail_lines(
      c.logged.datalog_text, [&](std::vector<std::string>& v) {
        for (std::string& line : v) line = rename(line);
      });
  ASSERT_NE(datalog, c.logged.datalog_text);

  const std::string reports = all_reports_json(netlist, c.patterns, datalog);
  std::string mapped_back;
  const std::regex name("q[0-9]+z");
  std::size_t last = 0;
  for (auto it = std::sregex_iterator(reports.begin(), reports.end(), name);
       it != std::sregex_iterator(); ++it) {
    mapped_back += reports.substr(last, it->position() - last);
    mapped_back += original.at(it->str());
    last = it->position() + it->length();
  }
  mapped_back += reports.substr(last);
  EXPECT_NE(reports, c.reference) << "the reports must name renamed nets";
  EXPECT_EQ(mapped_back, c.reference);
}

}  // namespace
}  // namespace mdd
