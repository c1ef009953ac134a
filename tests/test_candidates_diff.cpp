// Differential tests: candidate extraction against the straightforward
// implementation it replaced, and is_feedback_pair against brute-force
// reachability.
//
// `reference_extract_candidates` below is the previous extractor kept
// verbatim as the oracle: an EventSim pass over every traced pattern, one
// trace-store lookup per failing (pattern, output), bridges inserted into
// the support map, and a full sort before the cap. The served extractor
// must return the same pool — faults and support, in order — because the
// pool order feeds every diagnoser's tie-breaks and so the report bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <unordered_map>

#include "diag/candidates.hpp"
#include "diag/datalog.hpp"
#include "fsim/cpt.hpp"
#include "fsim/fsim.hpp"
#include "fsim/propagate.hpp"
#include "netlist/generator.hpp"
#include "obs/metrics.hpp"
#include "server/trace_memo.hpp"
#include "sim/event_sim.hpp"
#include "workload/campaign.hpp"

namespace mdd {
namespace {

// ---- oracle: the previous extract_candidates, verbatim ----------------

struct TracedValues {
  std::vector<Word> bits;  // per net, one word (<= 64 traced patterns)
  std::size_t n_traced = 0;
};

std::vector<std::size_t> spread_indices(std::size_t n_failing,
                                        std::size_t budget) {
  std::vector<std::size_t> indices;
  if (n_failing <= budget) {
    for (std::size_t i = 0; i < n_failing; ++i) indices.push_back(i);
    return indices;
  }
  for (std::size_t k = 0; k < budget; ++k)
    indices.push_back(k * n_failing / budget);
  return indices;
}

CandidatePool reference_extract_candidates(const Netlist& netlist,
                                           const PatternSet& patterns,
                                           const Datalog& datalog,
                                           const CandidateOptions& options) {
  std::unordered_map<Fault, std::uint32_t, FaultHash> support;
  EventSim sim(netlist);
  CriticalPathTracer cpt(netlist);

  const ErrorSignature& obs = datalog.observed;
  const std::vector<std::size_t> trace_at = spread_indices(
      obs.n_failing_patterns(),
      std::min(options.max_traced_patterns, std::size_t{64}));

  TracedValues traced;
  traced.bits.assign(netlist.n_nets(), kAllZero);
  traced.n_traced = trace_at.size();

  std::vector<Word> victim_on(netlist.n_nets(), kAllZero);

  for (std::size_t k = 0; k < trace_at.size(); ++k) {
    const std::size_t i = trace_at[k];
    const std::uint32_t p = obs.failing_patterns()[i];
    sim.apply(patterns, p);
    for (NetId n = 0; n < netlist.n_nets(); ++n)
      if (sim.value(n)) traced.bits[n] |= Word{1} << k;
    for (std::uint32_t po : obs.failing_outputs(i)) {
      std::shared_ptr<const std::vector<Fault>> crit;
      if (options.trace_store != nullptr)
        crit = options.trace_store->lookup(p, po);
      if (crit == nullptr) {
        crit = std::make_shared<const std::vector<Fault>>(
            cpt.critical_faults(sim, po));
        if (options.trace_store != nullptr)
          options.trace_store->store(p, po, crit);
      }
      for (const Fault& f : *crit) {
        ++support[f];
        if (f.is_stuck_at() && f.pin == kStemPin)
          victim_on[f.net] |= Word{1} << k;
      }
    }
  }

  if (support.size() < options.back_cone_threshold &&
      obs.n_failing_patterns() > 0) {
    std::vector<NetId> roots;
    for (std::size_t i = 0; i < obs.n_failing_patterns(); ++i)
      for (std::uint32_t po : obs.failing_outputs(i))
        roots.push_back(netlist.outputs()[po]);
    std::sort(roots.begin(), roots.end());
    roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
    for (NetId n : netlist.fanin_cone(roots)) {
      ++support[Fault::stem_sa(n, false)];
      ++support[Fault::stem_sa(n, true)];
    }
  }

  if (options.include_bridges) {
    std::vector<std::pair<NetId, std::uint32_t>> stems;
    for (const auto& [f, s] : support)
      if (f.is_stuck_at() && f.pin == kStemPin) stems.emplace_back(f.net, s);
    for (const auto& [victim, s] : stems) {
      const Word active = victim_on[victim];
      if (active == kAllZero) continue;
      const Word victim_vals = traced.bits[victim];
      const int n_active = std::popcount(active);

      std::vector<NetId> tier1, tier2;
      for (std::uint32_t delta = 1;
           delta < netlist.n_nets() && tier1.size() < options.bridge_partners;
           ++delta) {
        for (int sign : {-1, 1}) {
          const std::int64_t cand = static_cast<std::int64_t>(victim) +
                                    sign * static_cast<std::int64_t>(delta);
          if (cand < 0 || cand >= static_cast<std::int64_t>(netlist.n_nets()))
            continue;
          const NetId a = static_cast<NetId>(cand);
          const int n_opposite =
              std::popcount((traced.bits[a] ^ victim_vals) & active);
          if (n_opposite == n_active) {
            tier1.push_back(a);
          } else if (2 * n_opposite >= n_active + 1 &&
                     tier2.size() < options.bridge_partners) {
            tier2.push_back(a);
          }
        }
      }
      std::size_t added = 0;
      for (const std::vector<NetId>& tier : {tier1, tier2}) {
        for (NetId a : tier) {
          if (added >= options.bridge_partners) break;
          if (is_feedback_pair(netlist, victim, a)) continue;
          const Fault br = Fault::bridge_dom(victim, a);
          if (support.emplace(br, s).second) ++added;
        }
        if (added * 2 >= options.bridge_partners) break;
      }
    }
  }

  std::vector<std::pair<Fault, std::uint32_t>> ranked(support.begin(),
                                                      support.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    if (a.first.is_bridge() != b.first.is_bridge())
      return !a.first.is_bridge();
    return a.first < b.first;
  });
  if (ranked.size() > options.max_candidates)
    ranked.resize(options.max_candidates);

  CandidatePool pool;
  pool.faults.reserve(ranked.size());
  pool.support.reserve(ranked.size());
  for (auto& [f, s] : ranked) {
    pool.faults.push_back(f);
    pool.support.push_back(s);
  }
  return pool;
}

// ---- corpus -----------------------------------------------------------

struct Circuit {
  Netlist netlist;
  PatternSet patterns;
  PatternSet good;
  std::shared_ptr<const PropagatorBaseline> baseline;

  explicit Circuit(const std::string& name)
      : netlist(make_named_circuit(name)),
        patterns(PatternSet::random(256, netlist.n_inputs(), 0xD1FF)),
        good(simulate(netlist, patterns)),
        baseline(SingleFaultPropagator::make_baseline(netlist, patterns)) {}
};

struct Variant {
  const char* name;
  DatalogOptions options;
};

std::vector<Variant> variants() {
  std::vector<Variant> out(4);
  out[0].name = "full";
  out[1].name = "truncated4";
  out[1].options.max_failing_patterns = 4;
  out[2].name = "truncated8";
  out[2].options.max_failing_patterns = 8;
  out[3].name = "xmask5";
  out[3].options.x_mask_fraction = 0.05;
  return out;
}

/// Datalogs for multiplicities 1..6 (a quarter of the members bridges),
/// `per_k` defects each, every defect logged under every variant.
std::vector<Datalog> corpus(const Circuit& c, std::size_t per_k,
                            std::uint64_t seed) {
  FaultSimulator fsim(c.netlist, c.patterns);
  std::mt19937_64 rng(seed);
  std::vector<Datalog> logs;
  for (std::size_t k = 1; k <= 6; ++k) {
    DefectSampleConfig cfg;
    cfg.multiplicity = k;
    cfg.bridge_fraction = 0.25;
    for (std::size_t d = 0; d < per_k; ++d) {
      const auto defect = sample_defect(c.netlist, fsim, cfg, rng);
      if (!defect) continue;
      for (const Variant& v : variants())
        logs.push_back(datalog_from_defect(c.netlist, *defect, c.patterns,
                                           c.good, v.options));
    }
  }
  return logs;
}

/// A net whose two stem polarities are both critical is visited twice by
/// the bridge stage; the second visit adds the *next* partners.
bool has_double_victim(const CandidatePool& pool) {
  std::unordered_map<NetId, int> polarities;
  for (const Fault& f : pool.faults)
    if (f.is_stuck_at() && f.pin == kStemPin)
      polarities[f.net] |= f.stuck_value() ? 2 : 1;
  for (const Fault& f : pool.faults)
    if (f.kind == FaultKind::BridgeDom && polarities[f.net] == 3) return true;
  return false;
}

void expect_same_pool(const CandidatePool& want, const CandidatePool& got,
                      const std::string& where) {
  ASSERT_EQ(want.faults.size(), got.faults.size()) << where;
  for (std::size_t i = 0; i < want.faults.size(); ++i) {
    ASSERT_EQ(want.faults[i], got.faults[i]) << where << " at " << i;
    ASSERT_EQ(want.support[i], got.support[i]) << where << " at " << i;
  }
}

void check_circuit(const std::string& name, std::size_t per_k) {
  const Circuit c(name);
  const std::vector<Datalog> logs = corpus(c, per_k, 0xC0FFEE);
  ASSERT_GE(logs.size(), 6 * variants().size()) << name;
  std::size_t double_victims = 0, with_bridges = 0;
  for (std::size_t i = 0; i < logs.size(); ++i) {
    const std::string where = name + " datalog " + std::to_string(i);
    const CandidatePool want =
        reference_extract_candidates(c.netlist, c.patterns, logs[i], {});
    // Own baseline, and the session's.
    expect_same_pool(want, extract_candidates(c.netlist, c.patterns, logs[i]),
                     where);
    expect_same_pool(want,
                     extract_candidates(c.netlist, c.patterns, logs[i], {},
                                        c.baseline.get()),
                     where + " (shared baseline)");
    double_victims += has_double_victim(want);
    for (const Fault& f : want.faults) {
      if (f.is_bridge()) {
        ++with_bridges;
        break;
      }
    }
  }
  // The corpus must reach the cases the rewrite is careful about.
  EXPECT_GT(with_bridges, logs.size() / 2) << name;
  EXPECT_GT(double_victims, 0u) << name;
}

TEST(CandidatesDiff, G200PoolsMatchReference) { check_circuit("g200", 4); }

TEST(CandidatesDiff, G1kPoolsMatchReference) { check_circuit("g1k", 1); }

TEST(CandidatesDiff, TruncatedWindowWithFullSetBaseline) {
  // Served contexts extract over the applied window and pass the
  // session's full-set baseline.
  const Circuit c("g200");
  DatalogOptions opt;
  opt.max_failing_patterns = 6;
  FaultSimulator fsim(c.netlist, c.patterns);
  std::mt19937_64 rng(5);
  DefectSampleConfig cfg;
  cfg.multiplicity = 3;
  std::size_t checked = 0;
  for (int d = 0; d < 8; ++d) {
    const auto defect = sample_defect(c.netlist, fsim, cfg, rng);
    if (!defect) continue;
    const Datalog log =
        datalog_from_defect(c.netlist, *defect, c.patterns, c.good, opt);
    if (log.n_patterns_applied >= c.patterns.n_patterns()) continue;
    PatternSet window(0, c.patterns.n_signals());
    for (std::size_t p = 0; p < log.n_patterns_applied; ++p)
      window.append(c.patterns.pattern(p));
    expect_same_pool(
        reference_extract_candidates(c.netlist, window, log, {}),
        extract_candidates(c.netlist, window, log, {}, c.baseline.get()),
        "defect " + std::to_string(d));
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(CandidatesDiff, CapLandsOnSupportTies) {
  // Cut the pool inside a run of equal support where stuck-at and bridge
  // candidates tie: the partial selection must keep exactly the prefix a
  // full sort keeps.
  const Circuit c("g200");
  const std::vector<Datalog> logs = corpus(c, 1, 77);
  std::size_t tie_cuts = 0;
  for (std::size_t i = 0; i < logs.size(); ++i) {
    const CandidatePool full =
        reference_extract_candidates(c.netlist, c.patterns, logs[i], {});
    for (std::size_t cut = 1; cut < full.faults.size(); ++cut) {
      if (full.support[cut - 1] != full.support[cut]) continue;
      if (full.faults[cut - 1].is_bridge() == full.faults[cut].is_bridge() &&
          cut + 1 < full.faults.size() &&
          full.support[cut] == full.support[cut + 1] &&
          full.faults[cut].is_bridge() == full.faults[cut + 1].is_bridge())
        continue;  // prefer cuts at a stuck-at/bridge tie boundary
      CandidateOptions opt;
      opt.max_candidates = cut;
      expect_same_pool(
          reference_extract_candidates(c.netlist, c.patterns, logs[i], opt),
          extract_candidates(c.netlist, c.patterns, logs[i], opt),
          "datalog " + std::to_string(i) + " cap " + std::to_string(cut));
      ++tie_cuts;
      break;
    }
    // A tiny cap as well.
    CandidateOptions tiny;
    tiny.max_candidates = 3;
    expect_same_pool(
        reference_extract_candidates(c.netlist, c.patterns, logs[i], tiny),
        extract_candidates(c.netlist, c.patterns, logs[i], tiny),
        "datalog " + std::to_string(i) + " cap 3");
  }
  EXPECT_GT(tie_cuts, 0u);
}

TEST(CandidatesDiff, TraceStoreBatchMatchesReference) {
  // Cold then warm memo: every key is looked up once per datalog and
  // counted once, and the pools stay the reference's.
  const Circuit c("g200");
  const std::vector<Datalog> logs = corpus(c, 1, 91);
  server::TraceMemo memo;
  CandidateOptions opt;
  opt.trace_store = &memo;
  obs::Counter& hits = obs::registry().counter("memo.trace.hits");
  obs::Counter& misses = obs::registry().counter("memo.trace.misses");
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < logs.size(); ++i) {
      const std::uint64_t hits0 = hits.value(), misses0 = misses.value();
      const CandidatePool got =
          extract_candidates(c.netlist, c.patterns, logs[i], opt);
      const ErrorSignature& obs = logs[i].observed;
      if (obs.n_failing_patterns() <= 64) {  // every failure traced
        std::uint64_t keys = 0;
        for (std::size_t f = 0; f < obs.n_failing_patterns(); ++f)
          keys += obs.failing_outputs(f).size();
        EXPECT_EQ((hits.value() - hits0) + (misses.value() - misses0), keys);
      }
      if (pass == 1) {
        EXPECT_EQ(misses.value(), misses0);
      }
      expect_same_pool(
          reference_extract_candidates(c.netlist, c.patterns, logs[i], {}),
          got, "pass " + std::to_string(pass) + " datalog " +
                   std::to_string(i));
    }
  }
}

TEST(CandidatesDiff, FailingPatternPastPatternSetIsRejected) {
  const Circuit c("c17");
  Datalog log;
  log.n_patterns_applied = 300;
  log.observed = ErrorSignature(300, c.netlist.n_outputs());
  std::vector<Word> mask(log.observed.n_po_words(), kAllZero);
  mask[0] = 1;
  log.observed.append(10, mask);
  log.observed.append(280, mask);
  EXPECT_THROW(extract_candidates(c.netlist, c.patterns, log),
               std::invalid_argument);
  // Also when the bad pattern is not among the traced ones.
  CandidateOptions one_traced;
  one_traced.max_traced_patterns = 1;
  EXPECT_THROW(extract_candidates(c.netlist, c.patterns, log, one_traced),
               std::invalid_argument);
}

// ---- is_feedback_pair -------------------------------------------------

/// reach[a * n + b]: b lies in a's strict fan-out cone (plain DFS, no
/// level pruning).
std::vector<char> transitive_fanout(const Netlist& nl) {
  const std::size_t n = nl.n_nets();
  std::vector<char> reach(n * n, 0);
  for (NetId a = 0; a < n; ++a) {
    std::vector<NetId> stack(nl.fanouts(a).begin(), nl.fanouts(a).end());
    while (!stack.empty()) {
      const NetId g = stack.back();
      stack.pop_back();
      if (reach[a * n + g]) continue;
      reach[a * n + g] = 1;
      for (NetId s : nl.fanouts(g)) stack.push_back(s);
    }
  }
  return reach;
}

TEST(FeedbackPairProperty, MatchesBruteForceReachability) {
  std::vector<Netlist> netlists;
  netlists.push_back(make_c17());
  for (std::uint64_t seed : {3, 4, 5}) {
    RandomCircuitConfig cfg;
    cfg.n_inputs = 12;
    cfg.n_gates = 120;
    cfg.n_outputs = 8;
    cfg.locality = 24;
    cfg.seed = seed;
    netlists.push_back(make_random_circuit(cfg));
  }
  for (const Netlist& nl : netlists) {
    const std::size_t n = nl.n_nets();
    const std::vector<char> reach = transitive_fanout(nl);
    ReachScratch scratch;  // shared across every query, as served
    std::size_t same_level = 0, feedback = 0;
    for (NetId a = 0; a < n; ++a) {
      for (NetId b = 0; b < n; ++b) {
        const bool want = a == b || reach[a * n + b] || reach[b * n + a];
        ASSERT_EQ(is_feedback_pair(nl, a, b, scratch), want)
            << nl.name() << " " << a << " " << b;
        if (a != b && nl.level(a) == nl.level(b)) ++same_level;
        feedback += want && a != b;
      }
    }
    EXPECT_GT(same_level, 0u) << nl.name();
    EXPECT_GT(feedback, 0u) << nl.name();
    // The allocating overload agrees on a sample.
    for (NetId a = 0; a < n; a += 7)
      for (NetId b = 0; b < n; b += 5)
        EXPECT_EQ(is_feedback_pair(nl, a, b),
                  is_feedback_pair(nl, a, b, scratch));
  }
}

TEST(FeedbackPairProperty, ScratchSurvivesEpochWrap) {
  const Netlist nl = make_c17();
  const std::vector<char> reach = transitive_fanout(nl);
  const std::size_t n = nl.n_nets();
  // Stale stamps equal to the epoch after the wrap: unless the wrap
  // clears them, every net looks visited from the second query on.
  ReachScratch scratch;
  scratch.stamp.assign(n, 1);
  scratch.epoch = UINT32_MAX;
  for (NetId a = 0; a < n; ++a)
    for (NetId b = 0; b < n; ++b)
      ASSERT_EQ(is_feedback_pair(nl, a, b, scratch),
                a == b || reach[a * n + b] || reach[b * n + a]);
}

}  // namespace
}  // namespace mdd
