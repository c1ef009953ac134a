#include "diag/candidates.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "fsim/cpt.hpp"
#include "fsim/propagate.hpp"
#include "sim/event_sim.hpp"

namespace mdd {

namespace {

/// Indices (into the failing-pattern list) to trace: all of them when they
/// fit the budget, otherwise an even spread across the whole list — with
/// multiple defects, different regions of the failing list expose
/// different sites, so tracing only a prefix loses candidates.
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

/// Good-machine net values for the traced failing patterns (at most 64),
/// one word per net with bit k = the value under traced pattern k, read
/// from the baseline's rows. Used to select behaviour-consistent bridge
/// aggressors.
std::vector<Word> traced_values(const Netlist& netlist,
                                const PropagatorBaseline& baseline,
                                std::span<const std::uint32_t> traced) {
  std::vector<Word> bits(netlist.n_nets(), kAllZero);
  for (NetId n = 0; n < netlist.n_nets(); ++n) {
    const Word* row = baseline.row(n);
    for (std::size_t k = 0; k < traced.size(); ++k)
      bits[n] |= ((row[traced[k] / 64] >> (traced[k] % 64)) & 1) << k;
  }
  return bits;
}

/// Rank order: support (desc); on ties stuck-at candidates come before
/// bridges (bridges inherit their victim's support, and must not crowd
/// independently-traced stuck-at sites out of a capped pool); then fault
/// order for determinism. A strict total order, so the top of a partial
/// selection is exactly the prefix of a full sort.
bool ranks_before(const std::pair<Fault, std::uint32_t>& a,
                  const std::pair<Fault, std::uint32_t>& b) {
  if (a.second != b.second) return a.second > b.second;
  if (a.first.is_bridge() != b.first.is_bridge()) return !a.first.is_bridge();
  return a.first < b.first;
}

/// Dense index of every stuck-at fault — two per net stem, then two per
/// gate input pin — so support is tallied in an array, not a hash map.
class StuckAtSlots {
 public:
  explicit StuckAtSlots(const Netlist& netlist) : pin_base_(netlist.n_nets()) {
    std::size_t next = netlist.n_nets();
    for (NetId n = 0; n < netlist.n_nets(); ++n) {
      pin_base_[n] = static_cast<std::uint32_t>(next);
      next += netlist.fanins(n).size();
    }
    size_ = 2 * next;
  }

  std::size_t size() const { return size_; }

  std::uint32_t operator()(const Fault& f) const {
    if (!f.is_stuck_at())
      throw std::invalid_argument("critical faults must be stuck-at");
    const std::uint32_t site =
        f.pin == kStemPin ? f.net : pin_base_[f.net] + f.pin;
    return 2 * site + (f.stuck_value() ? 1 : 0);
  }

 private:
  std::vector<std::uint32_t> pin_base_;
  std::size_t size_ = 0;
};

/// Highest net <= `pos` whose bit is set in `mask`, or -1.
std::int64_t prev_set(std::span<const Word> mask, std::int64_t pos) {
  if (pos < 0) return -1;
  std::size_t w = static_cast<std::size_t>(pos) / 64;
  Word bits = mask[w] & (kAllOne >> (63 - pos % 64));
  while (bits == kAllZero) {
    if (w == 0) return -1;
    bits = mask[--w];
  }
  return static_cast<std::int64_t>(64 * w + 63) - std::countl_zero(bits);
}

/// Lowest net >= `pos` whose bit is set in `mask`, or `n_nets`.
std::int64_t next_set(std::span<const Word> mask, std::int64_t pos,
                      std::size_t n_nets) {
  if (pos >= static_cast<std::int64_t>(n_nets))
    return static_cast<std::int64_t>(n_nets);
  std::size_t w = static_cast<std::size_t>(pos) / 64;
  Word bits = mask[w] & (kAllOne << (pos % 64));
  while (bits == kAllZero) {
    if (++w == mask.size()) return static_cast<std::int64_t>(n_nets);
    bits = mask[w];
  }
  return static_cast<std::int64_t>(64 * w) + std::countr_zero(bits);
}

/// Appends the nets set in `mask` to `out` in id-proximity order from
/// `victim` — delta 1, 2, ..., the net below before the net above at one
/// delta — up to `max_delta`. Stops once `out` holds `limit` nets or,
/// with `finish_delta`, once it does and the delta is done. Returns the
/// delta of the last net taken (0: none).
std::uint32_t proximity_walk(std::span<const Word> mask, NetId victim,
                             std::size_t n_nets, std::size_t limit,
                             std::uint32_t max_delta, bool finish_delta,
                             std::vector<NetId>& out) {
  const std::int64_t v = victim;
  std::int64_t below = prev_set(mask, v - 1);
  std::int64_t above = next_set(mask, v + 1, n_nets);
  std::uint32_t last = 0;
  for (;;) {
    const std::int64_t d_below = below >= 0 ? v - below : INT64_MAX;
    const std::int64_t d_above =
        above < static_cast<std::int64_t>(n_nets) ? above - v : INT64_MAX;
    const std::int64_t d = std::min(d_below, d_above);
    if (d == INT64_MAX || d > max_delta) break;
    if (out.size() >= limit && (!finish_delta || d != last)) break;
    if (d_below <= d_above) {
      out.push_back(static_cast<NetId>(below));
      below = prev_set(mask, below - 1);
    } else {
      out.push_back(static_cast<NetId>(above));
      above = next_set(mask, above + 1, n_nets);
    }
    last = static_cast<std::uint32_t>(d);
  }
  return last;
}

}  // namespace

CandidatePool extract_candidates(const Netlist& netlist,
                                 const PatternSet& patterns,
                                 const Datalog& datalog,
                                 const CandidateOptions& options,
                                 const PropagatorBaseline* baseline) {
  std::shared_ptr<const PropagatorBaseline> own_baseline;
  if (baseline == nullptr) {
    own_baseline = SingleFaultPropagator::make_baseline(netlist, patterns);
    baseline = own_baseline.get();
  }
  // Support is tallied per dense slot. `first_seen` maps each fault to its
  // slot in first-tally order: its iteration order is the bridge stage's
  // victim order, which decides which partners a net's second stem
  // polarity adds. Keep the container, its insertion sequence and its
  // growth (no reserve) as they are.
  const StuckAtSlots slots(netlist);
  std::vector<std::uint32_t> tally(slots.size(), 0);
  std::unordered_map<Fault, std::uint32_t, FaultHash> first_seen;
  const auto count = [&](const Fault& f) {
    const std::uint32_t slot = slots(f);
    if (tally[slot]++ == 0) first_seen.emplace(f, slot);
  };

  const ErrorSignature& obs = datalog.observed;
  // A datalog may claim more applied patterns than the set holds.
  for (std::uint32_t p : obs.failing_patterns())
    if (p >= patterns.n_patterns())
      throw std::invalid_argument(
          "extract_candidates: failing pattern beyond the pattern set");
  const std::vector<std::size_t> trace_at = spread_indices(
      obs.n_failing_patterns(),
      std::min(options.max_traced_patterns, std::size_t{64}));
  std::vector<std::uint32_t> traced_patterns;
  std::vector<CptTraceStore::Key> keys;
  for (std::size_t i : trace_at) {
    const std::uint32_t p = obs.failing_patterns()[i];
    traced_patterns.push_back(p);
    for (std::uint32_t po : obs.failing_outputs(i)) keys.push_back({p, po});
  }
  const std::vector<Word> traced =
      traced_values(netlist, *baseline, traced_patterns);

  // The critical set of (pattern, output) is datalog-independent, so a
  // session-level store answers repeats in one batch; misses are traced.
  std::vector<std::shared_ptr<const std::vector<Fault>>> crits(keys.size());
  if (options.trace_store != nullptr)
    options.trace_store->lookup_many(keys, crits);
  std::optional<EventSim> sim;
  std::optional<CriticalPathTracer> cpt;

  // Victim support per net: on which traced patterns was the stem critical
  // (its flip explains at least one failing output)?
  std::vector<Word> victim_on(netlist.n_nets(), kAllZero);

  std::size_t key = 0;
  for (std::size_t k = 0; k < trace_at.size(); ++k) {
    bool applied = false;
    for (std::size_t n_po = obs.failing_outputs(trace_at[k]).size(); n_po > 0;
         --n_po, ++key) {
      std::shared_ptr<const std::vector<Fault>>& crit = crits[key];
      if (crit == nullptr) {
        if (!sim.has_value()) {
          sim.emplace(netlist);
          cpt.emplace(netlist);
        }
        if (!applied) {
          sim->apply(patterns, keys[key].pattern);
          applied = true;
        }
        crit = std::make_shared<const std::vector<Fault>>(
            cpt->critical_faults(*sim, keys[key].po));
        if (options.trace_store != nullptr)
          options.trace_store->store(keys[key].pattern, keys[key].po, crit);
      }
      for (const Fault& f : *crit) {
        count(f);
        if (f.pin == kStemPin) victim_on[f.net] |= Word{1} << k;
      }
    }
  }

  // Thin support (e.g. CPT under-approximation or heavy truncation): fall
  // back to stem faults over the union fan-in cone of the failing outputs.
  if (first_seen.size() < options.back_cone_threshold &&
      obs.n_failing_patterns() > 0) {
    std::vector<NetId> roots;
    for (std::size_t i = 0; i < obs.n_failing_patterns(); ++i)
      for (std::uint32_t po : obs.failing_outputs(i))
        roots.push_back(netlist.outputs()[po]);
    std::sort(roots.begin(), roots.end());
    roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
    for (NetId n : netlist.fanin_cone(roots)) {
      count(Fault::stem_sa(n, false));
      count(Fault::stem_sa(n, true));
    }
  }

  std::vector<std::pair<Fault, std::uint32_t>> ranked;
  ranked.reserve(first_seen.size());
  for (const auto& [f, slot] : first_seen) ranked.emplace_back(f, tally[slot]);

  // Bridge candidates. A dominant bridge shows up in CPT as its *victim*
  // stem being critical with the faulty value equal to the aggressor's good
  // value; the aggressor is therefore any net whose good value is the
  // victim's complement on every traced pattern where the victim was
  // implicated. Those behaviour-consistent partners (nearest by net id as a
  // layout proxy) become candidates, appended to `ranked`.
  if (options.include_bridges) {
    const std::size_t n_nets = netlist.n_nets();
    const std::size_t partners = options.bridge_partners;
    // Victims in `first_seen` order. A net whose two stem polarities are
    // both critical is visited twice with the same partner scan; the
    // revisit skips the bridges the first visit added
    // (ranked[first_bridge[net]], first_count[net] of them) and adds the
    // next ones with its own support.
    constexpr std::uint32_t kUnvisited = UINT32_MAX;
    std::vector<std::uint32_t> first_bridge(n_nets, kUnvisited);
    std::vector<std::uint32_t> first_count(n_nets, 0);
    const std::size_t n_words = (n_nets + 63) / 64;
    std::vector<Word> tier1_nets(n_words), tier2_nets(n_words);
    std::vector<NetId> tier1, tier2;
    ReachScratch reach;
    const std::size_t n_stuck = ranked.size();
    for (std::size_t r = 0; r < n_stuck; ++r) {
      const Fault stem = ranked[r].first;
      const std::uint32_t s = ranked[r].second;
      if (stem.pin != kStemPin) continue;
      const NetId victim = stem.net;
      const Word active = victim_on[victim];
      if (active == kAllZero) continue;
      const Word victim_vals = traced[victim];
      const int n_active = std::popcount(active);

      // Two consistency tiers over the whole netlist:
      //   tier 1 — opposite value on *every* traced pattern where the
      //            victim was implicated (what a real lone aggressor does);
      //   tier 2 — opposite on a majority (tolerates pollution of the
      //            victim's active set by other defects' failures).
      // One linear pass marks each net's tier; the walks then take them
      // in id-proximity order. Tier 1 stops at the delta where it reaches
      // `partners` nets, and tier 2 takes at most `partners` nets no
      // farther out. Tier-1 partners get the cap to themselves first, so
      // near-victim majority-consistent noise cannot crowd out the true
      // aggressor.
      for (std::size_t w = 0; w < n_words; ++w) {
        Word t1 = kAllZero, t2 = kAllZero;
        const std::size_t end = std::min(n_nets, 64 * w + 64);
        for (std::size_t a = 64 * w; a < end; ++a) {
          const int n_opposite =
              std::popcount((traced[a] ^ victim_vals) & active);
          t1 |= Word{n_opposite == n_active} << (a % 64);
          t2 |= Word{n_opposite != n_active &&
                     2 * n_opposite >= n_active + 1}
                << (a % 64);
        }
        tier1_nets[w] = t1;
        tier2_nets[w] = t2;
      }
      tier1.clear();
      tier2.clear();
      const std::uint32_t tier1_reach = proximity_walk(
          tier1_nets, victim, n_nets, partners, UINT32_MAX, true, tier1);
      proximity_walk(tier2_nets, victim, n_nets, partners,
                     tier1.size() >= partners ? tier1_reach : UINT32_MAX,
                     false, tier2);
      const bool revisit = first_bridge[victim] != kUnvisited;
      const auto first_added = [&](NetId a) {
        const auto first = ranked.begin() + first_bridge[victim];
        return std::any_of(first, first + first_count[victim],
                           [a](const auto& e) {
                             return e.first.bridge_net == a;
                           });
      };
      const std::size_t begin = ranked.size();
      std::size_t added = 0;
      for (const std::vector<NetId>* tier : {&tier1, &tier2}) {
        for (NetId a : *tier) {
          if (added >= partners) break;
          if (is_feedback_pair(netlist, victim, a, reach)) continue;
          if (revisit && first_added(a)) continue;
          ranked.emplace_back(Fault::bridge_dom(victim, a), s);
          ++added;
        }
        // Tier 2 only fills what tier 1 left open, and only half of it —
        // majority-consistent partners are speculative.
        if (added * 2 >= partners) break;
      }
      if (!revisit) {
        first_bridge[victim] = static_cast<std::uint32_t>(begin);
        first_count[victim] = static_cast<std::uint32_t>(added);
      }
    }
  }

  if (ranked.size() > options.max_candidates) {
    const auto cut = ranked.begin() +
                     static_cast<std::ptrdiff_t>(options.max_candidates);
    std::nth_element(ranked.begin(), cut, ranked.end(), ranks_before);
    ranked.erase(cut, ranked.end());
  }
  std::sort(ranked.begin(), ranked.end(), ranks_before);

  CandidatePool pool;
  pool.faults.reserve(ranked.size());
  pool.support.reserve(ranked.size());
  for (auto& [f, s] : ranked) {
    pool.faults.push_back(f);
    pool.support.push_back(s);
  }
  return pool;
}

CandidatePool extract_tdf_candidates(const Netlist& netlist,
                                     const PatternSet& launch,
                                     const PatternSet& capture,
                                     const Datalog& datalog,
                                     const CandidateOptions& options) {
  std::unordered_map<Fault, std::uint32_t, FaultHash> support;
  EventSim sim_capture(netlist);
  EventSim sim_launch(netlist);
  CriticalPathTracer cpt(netlist);

  const ErrorSignature& obs = datalog.observed;
  for (std::size_t i : spread_indices(obs.n_failing_patterns(),
                                      options.max_traced_patterns)) {
    const std::uint32_t p = obs.failing_patterns()[i];
    sim_capture.apply(capture, p);
    sim_launch.apply(launch, p);
    for (std::uint32_t po : obs.failing_outputs(i)) {
      for (const Fault& f : cpt.critical_faults(sim_capture, po)) {
        ++support[f];
        if (f.pin != kStemPin) continue;
        // A critical stem held at its launch value explains the flip iff
        // the launch value is the complement of the good capture value —
        // i.e. the stem moved in the direction the transition fault slows.
        const bool v2 = sim_capture.value(f.net);
        const bool v1 = sim_launch.value(f.net);
        if (v1 != v2) {
          ++support[v2 ? Fault::slow_to_rise(f.net)
                       : Fault::slow_to_fall(f.net)];
        }
      }
    }
  }

  std::vector<std::pair<Fault, std::uint32_t>> ranked(support.begin(),
                                                      support.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
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

}  // namespace mdd
