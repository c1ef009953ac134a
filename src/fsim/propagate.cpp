#include "fsim/propagate.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "obs/metrics.hpp"
#include "sim/sim2.hpp"

namespace mdd {

namespace {

struct PropagateMetrics {
  obs::Counter& queries = obs::registry().counter("propagate.queries");
  obs::Counter& patterns_simulated =
      obs::registry().counter("propagate.patterns_simulated");
  /// Feedback bridges that fell back to the exact fixpoint machine.
  obs::Counter& fallbacks = obs::registry().counter("propagate.fallbacks");
  obs::Counter& composite_queries =
      obs::registry().counter("propagate.composite_queries");
  /// Composite queries whose bridge couplings could cycle (or whose sweep
  /// cap tripped) and ran on the exact fixpoint machine instead.
  obs::Counter& composite_fallbacks =
      obs::registry().counter("propagate.composite_fallbacks");
};

PropagateMetrics& propagate_metrics() {
  static PropagateMetrics m;
  return m;
}

// Constant operand rows for pin overrides (see FaultyMachine).
constexpr Word kZeroLanes[kMaxKernelLanes] = {};
constexpr Word kOneLanes[kMaxKernelLanes] = {kAllOne, kAllOne, kAllOne,
                                             kAllOne, kAllOne, kAllOne,
                                             kAllOne, kAllOne};

/// Words per net row: n_blocks rounded up so every lane group, of any
/// kernel width, reads a full row in place.
std::size_t padded_stride(std::size_t n_blocks) {
  return (n_blocks + kMaxKernelLanes - 1) / kMaxKernelLanes * kMaxKernelLanes;
}

/// Good value of every net for every block of `patterns`, net-major with
/// `stride` words per net; each row's padding slots copy its last valid
/// block.
std::vector<Word> good_rows(const Netlist& netlist, const PatternSet& patterns,
                            std::size_t stride, const SimKernel& kernel) {
  const std::size_t n_blocks = patterns.n_blocks();
  std::vector<Word> values(netlist.n_nets() * stride, kAllZero);
  BlockSim sim(netlist, kernel);
  for (std::size_t b = 0; b < n_blocks;) {
    const std::size_t m = sim.run_wide(patterns, b);
    for (NetId n = 0; n < netlist.n_nets(); ++n)
      for (std::size_t l = 0; l < m; ++l)
        values[n * stride + b + l] = sim.value(n, l);
    b += m;
  }
  if (n_blocks > 0) {
    for (NetId n = 0; n < netlist.n_nets(); ++n) {
      Word* row = values.data() + n * stride;
      std::fill(row + n_blocks, row + stride, row[n_blocks - 1]);
    }
  }
  return values;
}

}  // namespace

std::shared_ptr<const PropagatorBaseline>
SingleFaultPropagator::make_baseline(const Netlist& netlist,
                                     const PatternSet& patterns) {
  auto baseline = std::make_shared<PropagatorBaseline>();
  baseline->n_blocks = patterns.n_blocks();
  baseline->stride = padded_stride(patterns.n_blocks());
  baseline->values =
      good_rows(netlist, patterns, baseline->stride, current_kernel());
  baseline->good = PatternSet(patterns.n_patterns(), netlist.n_outputs());
  for (std::size_t o = 0; o < netlist.n_outputs(); ++o) {
    const Word* row = baseline->row(netlist.outputs()[o]);
    for (std::size_t b = 0; b < patterns.n_blocks(); ++b)
      baseline->good.word(b, o) = row[b] & patterns.valid_mask(b);
  }
  return baseline;
}

SingleFaultPropagator::SingleFaultPropagator(
    const Netlist& netlist, const PatternSet& patterns,
    std::shared_ptr<const PropagatorBaseline> baseline,
    const SimKernel& kernel)
    : netlist_(&netlist),
      kernel_(&kernel),
      lanes_(kernel.lanes),
      patterns_(&patterns),
      baseline_(std::move(baseline)),
      stride_(baseline_->stride),
      scratch_(netlist.n_nets() * kernel.lanes, kAllZero),
      touched_(netlist.n_nets(), false),
      level_queue_(netlist.depth() + 1),
      queued_(netlist.n_nets(), false),
      n_po_words_((netlist.n_outputs() + 63) / 64),
      bit_table_(64 * n_po_words_, kAllZero),
      fallback_(netlist, kernel) {
  assert(baseline_->n_blocks == patterns.n_blocks() &&
         baseline_->values.size() == netlist.n_nets() * stride_ &&
         baseline_->good.n_patterns() == patterns.n_patterns());
  std::size_t max_fanin = 0;
  for (NetId n = 0; n < netlist.n_nets(); ++n)
    max_fanin = std::max(max_fanin, netlist.fanins(n).size());
  fanin_ptrs_.resize(max_fanin);
}

SingleFaultPropagator::SingleFaultPropagator(const Netlist& netlist,
                                             const PatternSet& patterns,
                                             const SimKernel& kernel)
    : SingleFaultPropagator(netlist, patterns,
                            make_baseline(netlist, patterns), kernel) {}

SingleFaultPropagator::SingleFaultPropagator(const Netlist& netlist,
                                             const PatternSet& launch,
                                             const PatternSet& capture,
                                             const SimKernel& kernel)
    : SingleFaultPropagator(netlist, capture, kernel) {
  assert(launch.n_blocks() == capture.n_blocks());
  launch_ = &launch;
  launch_values_ = good_rows(netlist, launch, stride_, kernel);
}

void SingleFaultPropagator::seed_site(NetId net, const Word* value,
                                      const Word* good) {
  Word seeded[kMaxKernelLanes];
  for (std::size_t l = 0; l < lanes_; ++l)
    seeded[l] = (value[l] & seed_mask_[l]) | (good[l] & ~seed_mask_[l]);
  if (!touched_[net] && std::equal(seeded, seeded + lanes_, good))
    return;  // fault not excited here
  std::copy(seeded, seeded + lanes_, scratch_.begin() + net * lanes_);
  if (touched_[net]) return;
  touched_[net] = true;
  touched_list_.push_back(net);
  for (NetId s : netlist_->fanouts(net)) {
    if (!queued_[s]) {
      queued_[s] = true;
      level_queue_[netlist_->level(s)].push_back(s);
    }
  }
}

void SingleFaultPropagator::seed_fault(const Fault& fault, std::size_t b0) {
  const Word* vals = baseline_->values.data();
  const Word* good = good_row(vals, fault.net, b0);
  Word val_row[kMaxKernelLanes];
  switch (fault.kind) {
    case FaultKind::StuckAt0:
    case FaultKind::StuckAt1: {
      if (fault.pin == kStemPin) {
        std::fill(val_row, val_row + lanes_,
                  fault.stuck_value() ? kAllOne : kAllZero);
      } else {
        // Branch fault: recompute the gate with the forced pin.
        const auto fi = netlist_->fanins(fault.net);
        for (std::size_t j = 0; j < fi.size(); ++j)
          fanin_ptrs_[j] = good_row(vals, fi[j], b0);
        fanin_ptrs_[fault.pin] = fault.stuck_value() ? kOneLanes : kZeroLanes;
        kernel_->eval_gate(netlist_->kind(fault.net), fanin_ptrs_.data(),
                           fi.size(), val_row);
      }
      seed_site(fault.net, val_row, good);
      return;
    }
    case FaultKind::BridgeDom:
      // Optimistic non-feedback assumption: the aggressor is unaffected,
      // so the victim simply takes the aggressor's good value. propagate()
      // watches the aggressor and triggers the fixpoint fallback if the
      // wave ever reaches it.
      seed_site(fault.net, good_row(vals, fault.bridge_net, b0), good);
      return;
    case FaultKind::BridgeWAnd:
    case FaultKind::BridgeWOr: {
      const Word* other = good_row(vals, fault.bridge_net, b0);
      for (std::size_t l = 0; l < lanes_; ++l)
        val_row[l] = fault.kind == FaultKind::BridgeWAnd ? (good[l] & other[l])
                                                         : (good[l] | other[l]);
      seed_site(fault.net, val_row, good);
      seed_site(fault.bridge_net, val_row, other);
      return;
    }
    case FaultKind::SlowToRise:
    case FaultKind::SlowToFall: {
      if (launch_ == nullptr) return;  // inert in single-frame mode
      const Word* launch = good_row(launch_values_.data(), fault.net, b0);
      for (std::size_t l = 0; l < lanes_; ++l) {
        const Word moved = fault.kind == FaultKind::SlowToRise
                               ? (~launch[l] & good[l])
                               : (launch[l] & ~good[l]);
        val_row[l] = (good[l] & ~moved) | (launch[l] & moved);
      }
      seed_site(fault.net, val_row, good);
      return;
    }
  }
}

bool SingleFaultPropagator::propagate(std::size_t b0, std::size_t m,
                                      ErrorSignature& sig, NetId watch) {
  const Word* vals = baseline_->values.data();
  Word vbuf[kMaxKernelLanes];

  for (std::uint32_t lv = 0; lv < level_queue_.size(); ++lv) {
    for (std::size_t idx = 0; idx < level_queue_[lv].size(); ++idx) {
      const NetId g = level_queue_[lv][idx];
      queued_[g] = false;
      const auto fi = netlist_->fanins(g);
      for (std::size_t j = 0; j < fi.size(); ++j)
        fanin_ptrs_[j] = read_row(vals, fi[j], b0);
      kernel_->eval_gate(netlist_->kind(g), fanin_ptrs_.data(), fi.size(),
                         vbuf);
      const Word* cur = read_row(vals, g, b0);
      if (!std::equal(vbuf, vbuf + lanes_, cur)) {
        std::copy(vbuf, vbuf + lanes_, scratch_.begin() + g * lanes_);
        if (!touched_[g]) {
          touched_[g] = true;
          touched_list_.push_back(g);
        }
        for (NetId s : netlist_->fanouts(g)) {
          if (!queued_[s]) {
            queued_[s] = true;
            level_queue_[netlist_->level(s)].push_back(s);
          }
        }
      }
    }
    level_queue_[lv].clear();
  }

  collect_pos(b0, m, sig);

  bool watch_touched = false;
  for (NetId t : touched_list_) {
    // Seeding marks the watched net itself; only a *recomputed* watch net
    // indicates feedback, which seed values never are (the watch net is
    // never a seed site for dominant bridges, and wired bridges watch
    // nothing).
    watch_touched = watch_touched || (t == watch);
    touched_[t] = false;
  }
  touched_list_.clear();
  return watch_touched;
}

void SingleFaultPropagator::collect_pos(std::size_t b0, std::size_t m,
                                        ErrorSignature& sig) {
  touched_pos_.clear();
  for (NetId t : touched_list_)
    if (auto idx = netlist_->output_index(t)) touched_pos_.push_back({t, *idx});
  if (touched_pos_.empty()) return;
  // Per lane: scatter every PO diff's set bits into the bit table, then
  // emit the failing patterns' rows in ascending order, zeroing each.
  for (std::size_t l = 0; l < m; ++l) {
    Word valid = patterns_->valid_mask(b0 + l);
    const std::size_t end = (b0 + l + 1) * 64;
    if (end > sig.n_patterns()) valid &= kAllOne >> (end - sig.n_patterns());
    Word any = kAllZero;
    for (const auto& [t, po] : touched_pos_) {
      Word diff = (scratch_[t * lanes_ + l] ^ baseline_->row(t)[b0 + l]) &
                  valid;
      any |= diff;
      Word* column = bit_table_.data() + po / 64;
      const Word po_bit = Word{1} << (po % 64);
      for (; diff; diff &= diff - 1)
        column[std::countr_zero(diff) * n_po_words_] |= po_bit;
    }
    for (; any; any &= any - 1) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(any));
      Word* row = bit_table_.data() + bit * n_po_words_;
      sig.append(static_cast<std::uint32_t>((b0 + l) * 64 + bit),
                 {row, n_po_words_});
      std::fill(row, row + n_po_words_, kAllZero);
    }
  }
}

ErrorSignature SingleFaultPropagator::signature(const Fault& fault,
                                                std::size_t n_patterns) {
  validate_fault(fault, *netlist_);
  const std::size_t n = std::min(n_patterns, patterns_->n_patterns());
  const std::size_t n_blocks = (n + 63) / 64;
  propagate_metrics().queries.inc();
  propagate_metrics().patterns_simulated.inc(n);
  ErrorSignature sig(n, netlist_->n_outputs());

  // Dominant bridges are propagated optimistically assuming the aggressor
  // is not downstream of the victim; watching the aggressor detects the
  // rare feedback pair, which then reruns on the exact fixpoint machine.
  // (Wired bridges seed the resolved value on both nets; if either net is
  // downstream of the other the wave reaches it as a recomputation, so
  // watch the higher-level net.)
  NetId watch = kNoNet;
  if (fault.kind == FaultKind::BridgeDom) {
    watch = fault.bridge_net;
  } else if (fault.kind == FaultKind::BridgeWAnd ||
             fault.kind == FaultKind::BridgeWOr) {
    if (is_feedback_pair(*netlist_, fault.net, fault.bridge_net,
                         reach_scratch_))
      watch = fault.net;  // force the fallback below via first group
  }

  for (std::size_t b = 0; b < n_blocks;) {
    const std::size_t m = std::min(lanes_, n_blocks - b);
    for (std::size_t l = 0; l < lanes_; ++l) {
      const std::size_t first = (b + l) * 64;
      seed_mask_[l] = first >= n        ? kAllZero
                      : n - first >= 64 ? kAllOne
                                        : kAllOne >> (64 - (n - first));
    }
    seed_fault(fault, b);
    const bool feedback =
        propagate(b, m, sig, watch) ||
        (watch == fault.net && fault.kind != FaultKind::BridgeDom);
    if (feedback) {
      propagate_metrics().fallbacks.inc();
      fallback_.set_faults({&fault, 1});
      const PatternSet faulty =
          launch_ ? fallback_.simulate_pair(*launch_, *patterns_)
                  : fallback_.simulate(*patterns_);
      return signature_prefix(ErrorSignature::diff(baseline_->good, faulty),
                              n);
    }
    b += m;
  }
  return sig;
}

bool SingleFaultPropagator::reaches(NetId from, NetId to) {
  if (from == to) return false;
  if (netlist_->level(from) >= netlist_->level(to)) return false;
  const std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) | to;
  if (auto it = reach_cache_.find(key); it != reach_cache_.end())
    return it->second;
  // Level-pruned DFS over fanouts (the is_feedback_pair approach, made
  // directional); memoized — the netlist never changes under a propagator.
  const std::uint32_t limit = netlist_->level(to);
  std::vector<bool> seen(netlist_->n_nets(), false);
  std::vector<NetId> stack{from};
  seen[from] = true;
  bool found = false;
  while (!stack.empty() && !found) {
    const NetId n = stack.back();
    stack.pop_back();
    for (NetId s : netlist_->fanouts(n)) {
      if (s == to) {
        found = true;
        break;
      }
      if (!seen[s] && netlist_->level(s) < limit) {
        seen[s] = true;
        stack.push_back(s);
      }
    }
  }
  reach_cache_.emplace(key, found);
  return found;
}

bool SingleFaultPropagator::prepare_composite(
    std::span<const Fault> multiplet) {
  comp_stems_.clear();
  comp_pins_.clear();
  comp_bridges_.clear();
  comp_transitions_.clear();
  for (const Fault& f : multiplet) {
    validate_fault(f, *netlist_);
    if (f.is_stuck_at()) {
      if (f.pin == kStemPin)
        comp_stems_.push_back({f.net, f.stuck_value()});
      else
        comp_pins_.push_back({f.net, f.pin, f.stuck_value()});
    } else if (f.is_transition()) {
      comp_transitions_.push_back({f.net, f.kind == FaultKind::SlowToRise});
    } else {
      comp_bridges_.push_back({f.kind, f.net, f.bridge_net});
    }
  }
  const std::size_t nb = comp_bridges_.size();
  if (nb == 0) return true;
  if (raw_scratch_.size() != netlist_->n_nets() * lanes_) {
    raw_scratch_.assign(netlist_->n_nets() * lanes_, kAllZero);
    raw_touched_.assign(netlist_->n_nets(), false);
  }

  // A bridge reads inputs (dom: the aggressor's final net value; wired:
  // both raw driver values) and writes outputs (dom: the victim; wired:
  // both nets). If any bridge output can feed one of its own inputs —
  // through the netlist or through a chain of other bridges — the
  // fixpoint is schedule-dependent and only the exact machine's pass
  // discipline reproduces the reference bits: detect any cycle over the
  // bridge influence graph and report it to the caller (conservative —
  // influence is over-approximated, a cycle is never missed).
  auto put_nets = [](const CompBridge& br, bool outputs, NetId out[2]) {
    out[0] = br.a;
    out[1] = br.kind == FaultKind::BridgeDom ? (outputs ? kNoNet : br.b)
                                             : br.b;
    if (br.kind == FaultKind::BridgeDom && !outputs) out[0] = kNoNet;
  };
  std::vector<char> edge(nb * nb, 0);
  for (std::size_t i = 0; i < nb; ++i) {
    NetId outs[2];
    put_nets(comp_bridges_[i], /*outputs=*/true, outs);
    for (std::size_t j = 0; j < nb; ++j) {
      NetId ins[2];
      put_nets(comp_bridges_[j], /*outputs=*/false, ins);
      for (NetId out : outs) {
        if (out == kNoNet) continue;
        for (NetId in : ins) {
          if (in == kNoNet) continue;
          if ((i != j && out == in) || reaches(out, in)) edge[i * nb + j] = 1;
        }
      }
    }
  }
  for (std::size_t k = 0; k < nb; ++k)
    for (std::size_t i = 0; i < nb; ++i)
      for (std::size_t j = 0; j < nb; ++j)
        if (edge[i * nb + k] && edge[k * nb + j]) edge[i * nb + j] = 1;
  for (std::size_t i = 0; i < nb; ++i)
    if (edge[i * nb + i]) return false;
  return true;
}

void SingleFaultPropagator::enqueue_net(NetId n) {
  if (queued_[n]) return;
  queued_[n] = true;
  level_queue_[netlist_->level(n)].push_back(n);
  ++pending_;
}

void SingleFaultPropagator::seed_composite(bool apply_transitions) {
  // Seeds are just "re-evaluate this net": eval_composite decides whether
  // the fault set actually changes anything for this group.
  for (const CompStem& s : comp_stems_) enqueue_net(s.net);
  for (const CompPin& p : comp_pins_) enqueue_net(p.gate);
  for (const CompBridge& br : comp_bridges_) {
    enqueue_net(br.a);
    if (br.kind != FaultKind::BridgeDom) enqueue_net(br.b);
  }
  if (apply_transitions)
    for (const CompTransition& t : comp_transitions_) enqueue_net(t.net);
}

bool SingleFaultPropagator::is_wired_member(NetId g) const {
  for (const CompBridge& br : comp_bridges_)
    if (br.kind != FaultKind::BridgeDom && (br.a == g || br.b == g))
      return true;
  return false;
}

void SingleFaultPropagator::eval_composite(NetId g, const Word* vals,
                                           std::size_t b0,
                                           bool apply_transitions, Word* out,
                                           Word* raw) {
  if (netlist_->kind(g) == GateKind::Input) {
    // The stimulus row; nothing upstream to fault.
    const Word* stimulus = good_row(vals, g, b0);
    std::copy(stimulus, stimulus + lanes_, raw);
  } else {
    const auto fi = netlist_->fanins(g);
    for (std::size_t j = 0; j < fi.size(); ++j)
      fanin_ptrs_[j] = read_row(vals, fi[j], b0);
    for (const CompPin& po : comp_pins_)
      if (po.gate == g) fanin_ptrs_[po.pin] = po.value ? kOneLanes : kZeroLanes;
    kernel_->eval_gate(netlist_->kind(g), fanin_ptrs_.data(), fi.size(),
                       raw);
  }
  // Identical transform order to FaultyMachine::run_frame: bridges in
  // declaration order (dom copies the aggressor's *net* value, wired
  // resolves the two *driver* values), then the transition hold, then
  // stem overrides (a hard stuck-at wins over coupling).
  std::copy(raw, raw + lanes_, out);
  for (const CompBridge& br : comp_bridges_) {
    if (br.kind == FaultKind::BridgeDom) {
      if (br.a == g) {
        const Word* other = read_row(vals, br.b, b0);
        std::copy(other, other + lanes_, out);
      }
    } else if (br.a == g || br.b == g) {
      const NetId other = (br.a == g) ? br.b : br.a;
      const Word* other_raw = raw_touched_[other]
                                  ? raw_scratch_.data() + other * lanes_
                                  : good_row(vals, other, b0);
      if (br.kind == FaultKind::BridgeWAnd) {
        for (std::size_t l = 0; l < lanes_; ++l)
          out[l] = raw[l] & other_raw[l];
      } else {
        for (std::size_t l = 0; l < lanes_; ++l)
          out[l] = raw[l] | other_raw[l];
      }
    }
  }
  if (apply_transitions) {
    for (const CompTransition& t : comp_transitions_) {
      if (t.net != g) continue;
      const Word* f1 = kZeroLanes;
      for (const LaunchRow& lr : launch_faulty_) {
        if (lr.net == g) {
          f1 = lr.lanes;
          break;
        }
      }
      for (std::size_t l = 0; l < lanes_; ++l) {
        const Word moved = t.rise ? (~f1[l] & out[l]) : (f1[l] & ~out[l]);
        out[l] = (out[l] & ~moved) | (f1[l] & moved);
      }
    }
  }
  for (const CompStem& so : comp_stems_)
    if (so.net == g)
      std::fill(out, out + lanes_, so.value ? kAllOne : kAllZero);
}

bool SingleFaultPropagator::propagate_composite(const Word* vals,
                                                std::size_t b0,
                                                bool apply_transitions) {
  Word vbuf[kMaxKernelLanes];
  Word raw_buf[kMaxKernelLanes];
  // Bridge couplings can enqueue backwards in level order; those events
  // survive into the next sweep. Any acyclic coupling chain settles
  // within n_bridges+1 sweeps, so the cap is pure safety (callers fall
  // back to the exact machine if it ever trips).
  const std::size_t max_sweeps = comp_bridges_.size() + 2;
  for (std::size_t sweep = 0; pending_ > 0; ++sweep) {
    if (sweep >= max_sweeps) return false;
    for (std::uint32_t lv = 0; lv < level_queue_.size(); ++lv) {
      auto& bucket = level_queue_[lv];
      for (std::size_t idx = 0; idx < bucket.size(); ++idx) {
        const NetId g = bucket[idx];
        queued_[g] = false;
        --pending_;
        eval_composite(g, vals, b0, apply_transitions, vbuf, raw_buf);
        if (is_wired_member(g)) {
          const Word* prev_raw = raw_touched_[g]
                                     ? raw_scratch_.data() + g * lanes_
                                     : good_row(vals, g, b0);
          if (!std::equal(raw_buf, raw_buf + lanes_, prev_raw)) {
            std::copy(raw_buf, raw_buf + lanes_,
                      raw_scratch_.begin() + g * lanes_);
            if (!raw_touched_[g]) {
              raw_touched_[g] = true;
              raw_touched_list_.push_back(g);
            }
            // The partner resolves against this driver value: re-resolve
            // it even if this net's own final value did not move.
            for (const CompBridge& br : comp_bridges_)
              if (br.kind != FaultKind::BridgeDom &&
                  (br.a == g || br.b == g))
                enqueue_net(br.a == g ? br.b : br.a);
          }
        }
        const Word* cur = read_row(vals, g, b0);
        if (!std::equal(vbuf, vbuf + lanes_, cur)) {
          std::copy(vbuf, vbuf + lanes_, scratch_.begin() + g * lanes_);
          if (!touched_[g]) {
            touched_[g] = true;
            touched_list_.push_back(g);
          }
          for (NetId s : netlist_->fanouts(g)) enqueue_net(s);
          // A dominant bridge's victim copies this net's final value.
          for (const CompBridge& br : comp_bridges_)
            if (br.kind == FaultKind::BridgeDom && br.b == g)
              enqueue_net(br.a);
        }
      }
      bucket.clear();
    }
  }
  return true;
}

void SingleFaultPropagator::reset_composite() {
  for (NetId t : touched_list_) touched_[t] = false;
  touched_list_.clear();
  for (NetId t : raw_touched_list_) raw_touched_[t] = false;
  raw_touched_list_.clear();
  for (auto& bucket : level_queue_) {
    for (NetId g : bucket) queued_[g] = false;
    bucket.clear();
  }
  pending_ = 0;
}

ErrorSignature SingleFaultPropagator::composite_fallback(
    std::span<const Fault> multiplet) {
  propagate_metrics().composite_fallbacks.inc();
  fallback_.set_faults(multiplet);
  const PatternSet faulty =
      launch_ ? fallback_.simulate_pair(*launch_, *patterns_)
              : fallback_.simulate(*patterns_);
  return ErrorSignature::diff(baseline_->good, faulty);
}

ErrorSignature SingleFaultPropagator::signature(
    std::span<const Fault> multiplet) {
  propagate_metrics().composite_queries.inc();
  if (!prepare_composite(multiplet)) return composite_fallback(multiplet);
  propagate_metrics().patterns_simulated.inc(patterns_->n_patterns());
  ErrorSignature sig(patterns_->n_patterns(), netlist_->n_outputs());
  for (std::size_t b = 0; b < patterns_->n_blocks();) {
    const std::size_t m = std::min(lanes_, patterns_->n_blocks() - b);
    if (launch_ != nullptr && !comp_transitions_.empty()) {
      // Frame 1 (launch) under the static members only — run purely to
      // harvest the faulty launch rows the transition hold consumes in
      // frame 2 (the capture frame reads no other frame-1 state).
      seed_composite(/*apply_transitions=*/false);
      if (!propagate_composite(launch_values_.data(), b,
                               /*apply_transitions=*/false)) {
        reset_composite();
        return composite_fallback(multiplet);
      }
      launch_faulty_.clear();
      for (const CompTransition& t : comp_transitions_) {
        LaunchRow row;
        row.net = t.net;
        const Word* faulty = read_row(launch_values_.data(), t.net, b);
        std::copy(faulty, faulty + lanes_, row.lanes);
        launch_faulty_.push_back(row);
      }
      reset_composite();
    }
    seed_composite(/*apply_transitions=*/launch_ != nullptr);
    if (!propagate_composite(baseline_->values.data(), b,
                             /*apply_transitions=*/launch_ != nullptr)) {
      reset_composite();
      return composite_fallback(multiplet);
    }
    collect_pos(b, m, sig);
    reset_composite();
    b += m;
  }
  return sig;
}

}  // namespace mdd
