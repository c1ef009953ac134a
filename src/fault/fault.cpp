#include "fault/fault.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace mdd {

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::StuckAt0: return "SA0";
    case FaultKind::StuckAt1: return "SA1";
    case FaultKind::BridgeDom: return "BR-DOM";
    case FaultKind::BridgeWAnd: return "BR-WAND";
    case FaultKind::BridgeWOr: return "BR-WOR";
    case FaultKind::SlowToRise: return "STR";
    case FaultKind::SlowToFall: return "STF";
  }
  return "?";
}

std::string to_string(const Fault& f, const Netlist& nl) {
  std::string s(to_string(f.kind));
  if (f.is_transition()) return s + " " + nl.net_name(f.net);
  if (f.is_stuck_at()) {
    if (f.pin == kStemPin) {
      s += " " + nl.net_name(f.net);
    } else {
      s += " " + nl.net_name(f.net) + ".pin" + std::to_string(f.pin) + "(" +
           nl.net_name(nl.fanins(f.net)[f.pin]) + ")";
    }
  } else if (f.kind == FaultKind::BridgeDom) {
    s += " " + nl.net_name(f.bridge_net) + "->" + nl.net_name(f.net);
  } else {
    s += " " + nl.net_name(f.net) + "~" + nl.net_name(f.bridge_net);
  }
  return s;
}

void validate_fault(const Fault& f, const Netlist& nl) {
  if (f.net >= nl.n_nets())
    throw std::invalid_argument("fault: bad net id");
  if (f.is_stuck_at()) {
    if (f.pin != kStemPin && f.pin >= nl.fanins(f.net).size())
      throw std::invalid_argument("fault: bad pin index");
    return;
  }
  if (f.is_transition()) {
    if (f.pin != kStemPin)
      throw std::invalid_argument("fault: transition fault with pin site");
    return;
  }
  if (f.bridge_net >= nl.n_nets())
    throw std::invalid_argument("fault: bad bridge net id");
  if (f.bridge_net == f.net)
    throw std::invalid_argument("fault: degenerate bridge");
  if (f.pin != kStemPin)
    throw std::invalid_argument("fault: bridge with pin site");
}

std::vector<Fault> all_stuck_at_faults(const Netlist& nl) {
  std::vector<Fault> faults;
  for (NetId n = 0; n < nl.n_nets(); ++n) {
    faults.push_back(Fault::stem_sa(n, false));
    faults.push_back(Fault::stem_sa(n, true));
  }
  for (NetId g = 0; g < nl.n_nets(); ++g) {
    const auto fi = nl.fanins(g);
    for (std::uint32_t p = 0; p < fi.size(); ++p) {
      if (nl.fanouts(fi[p]).size() > 1) {
        faults.push_back(Fault::branch_sa(g, p, false));
        faults.push_back(Fault::branch_sa(g, p, true));
      }
    }
  }
  return faults;
}

std::vector<Fault> all_transition_faults(const Netlist& nl) {
  std::vector<Fault> faults;
  faults.reserve(nl.n_nets() * 2);
  for (NetId n = 0; n < nl.n_nets(); ++n) {
    faults.push_back(Fault::slow_to_rise(n));
    faults.push_back(Fault::slow_to_fall(n));
  }
  return faults;
}

bool is_feedback_pair(const Netlist& nl, NetId a, NetId b,
                      ReachScratch& scratch) {
  if (a == b) return true;
  // Levels strictly rise along every edge, so only the lower-level net can
  // reach the other, and two nets on one level never reach each other.
  if (nl.level(a) == nl.level(b)) return false;
  const NetId from = nl.level(a) < nl.level(b) ? a : b;
  const NetId to = (from == a) ? b : a;
  const std::uint32_t limit = nl.level(to);
  if (scratch.stamp.size() < nl.n_nets()) scratch.stamp.resize(nl.n_nets());
  if (++scratch.epoch == 0) {  // wrapped: no stale stamp may match
    std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0);
    scratch.epoch = 1;
  }
  const std::uint32_t epoch = scratch.epoch;
  std::vector<NetId>& stack = scratch.stack;
  stack.assign(1, from);
  scratch.stamp[from] = epoch;
  while (!stack.empty()) {
    const NetId g = stack.back();
    stack.pop_back();
    for (NetId s : nl.fanouts(g)) {
      if (s == to) return true;
      if (scratch.stamp[s] != epoch && nl.level(s) < limit) {
        scratch.stamp[s] = epoch;
        stack.push_back(s);
      }
    }
  }
  return false;
}

bool is_feedback_pair(const Netlist& nl, NetId a, NetId b) {
  ReachScratch scratch;
  return is_feedback_pair(nl, a, b, scratch);
}

std::vector<Fault> sample_bridge_faults(const Netlist& nl,
                                        const BridgeUniverseConfig& cfg) {
  std::mt19937_64 rng(cfg.seed);
  std::uniform_int_distribution<NetId> pick(
      0, static_cast<NetId>(nl.n_nets() - 1));
  std::vector<Fault> faults;
  std::unordered_set<std::uint64_t> seen_pairs;
  std::size_t accepted = 0;
  ReachScratch reach;
  // Bounded rejection sampling: a tiny or bridge-hostile netlist must not
  // hang the generator.
  for (std::size_t tries = 0; accepted < cfg.count && tries < cfg.count * 200;
       ++tries) {
    const NetId a = pick(rng);
    const NetId b = pick(rng);
    if (a == b) continue;
    const NetId lo = std::min(a, b), hi = std::max(a, b);
    const std::uint32_t gap =
        nl.level(lo) > nl.level(hi) ? nl.level(lo) - nl.level(hi)
                                    : nl.level(hi) - nl.level(lo);
    if (gap > cfg.max_level_gap) continue;
    if (is_feedback_pair(nl, lo, hi, reach)) continue;
    const std::uint64_t key = (std::uint64_t{lo} << 32) | hi;
    if (!seen_pairs.insert(key).second) continue;
    faults.push_back(Fault::bridge_dom(lo, hi));
    faults.push_back(Fault::bridge_dom(hi, lo));
    if (cfg.include_wired) {
      faults.push_back(Fault::bridge_wand(lo, hi));
      faults.push_back(Fault::bridge_wor(lo, hi));
    }
    ++accepted;
  }
  return faults;
}

}  // namespace mdd
