// openmdd — event-driven fault signature extraction (PPSFP).
//
// `SingleFaultPropagator` precomputes the good-machine value of every net
// for every 64-pattern block, then answers signature queries by seeding
// the fault sites' faulty words and propagating only through the affected
// cone with a levelized event queue — the classic parallel-pattern fault
// propagation that makes per-candidate simulation proportional to the
// fault's influence cone instead of the whole netlist. Queries evaluate
// one simulation-kernel lane group (kernel.lanes consecutive 64-pattern
// blocks) per wave; results are bit-identical for every kernel.
//
// Two query shapes share the machinery:
//  * signature(const Fault&) — single-fault queries (solo signatures);
//  * signature(span<const Fault>) — an entire multiplet injected at once
//    (composite evaluation), propagating through the union of the
//    members' fan-out cones with the same bridge-fixpoint and two-frame
//    transition semantics as FaultyMachine. Multiplets whose bridge
//    couplings could interact cyclically (feedback pairs, bridge chains
//    that close a loop through the netlist) fall back to the exact
//    fixpoint machine, so results are bit-identical to the reference
//    simulators in every case (verified by property tests).
//
// Used by DiagnosisContext for candidate solo signatures and for the
// greedy multiplet search's composite scores, where thousands of queries
// per case make full re-simulation the dominant cost.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/inject.hpp"
#include "fsim/fsim.hpp"

namespace mdd {

/// The propagator's precomputed good-machine state: every net's value for
/// every 64-pattern block, plus the PO response. It depends only on
/// (netlist, patterns) and is read-only during queries, so propagators for
/// the same pair — across threads or across requests in the serving layer
/// — can share one copy instead of re-simulating the whole circuit each
/// (including propagators running different kernels: the layout is
/// kernel-independent).
///
/// Values are net-major: net n owns one row of `stride` words, n_blocks
/// rounded up to kMaxKernelLanes. The padding slots hold copies of the
/// last valid block, the replication a kernel's padding lanes expect, so
/// the lane row of net n for the group starting at block b0 is
/// row(n) + b0 for every kernel width and is read in place.
struct PropagatorBaseline {
  std::size_t n_blocks = 0;  ///< 64-pattern blocks of the pattern set
  std::size_t stride = 0;    ///< words per net row
  std::vector<Word> values;  ///< [net][stride]
  PatternSet good;           ///< PO response (masked to valid)

  const Word* row(NetId n) const { return values.data() + n * stride; }
};

class SingleFaultPropagator {
 public:
  /// Single-frame (static test) mode.
  SingleFaultPropagator(const Netlist& netlist, const PatternSet& patterns,
                        const SimKernel& kernel = current_kernel());

  /// Single-frame mode reusing a shared baseline (must have been built by
  /// make_baseline for this exact netlist + patterns pair); skips the
  /// full-circuit good simulation.
  SingleFaultPropagator(const Netlist& netlist, const PatternSet& patterns,
                        std::shared_ptr<const PropagatorBaseline> baseline,
                        const SimKernel& kernel = current_kernel());

  /// Two-frame (launch/capture) mode: signatures are capture-frame and
  /// transition faults are supported.
  SingleFaultPropagator(const Netlist& netlist, const PatternSet& launch,
                        const PatternSet& capture,
                        const SimKernel& kernel = current_kernel());

  /// Computes the shareable good-machine state for (netlist, patterns).
  static std::shared_ptr<const PropagatorBaseline> make_baseline(
      const Netlist& netlist, const PatternSet& patterns);

  const SimKernel& kernel() const { return *kernel_; }

  /// Error signature of one fault; equals FaultyMachine-based signatures
  /// for non-feedback faults. Feedback bridges fall back to the exact
  /// fixpoint machine. `n_patterns` limits the query to that prefix of
  /// the pattern set, shape included — byte-identical to a propagator
  /// built over just the prefix. Only the prefix's bits carry the fault,
  /// so a short prefix costs what its own patterns cost.
  ErrorSignature signature(const Fault& fault,
                           std::size_t n_patterns = SIZE_MAX);

  /// Error signature of an entire multiplet injected simultaneously
  /// (composite evaluation). Bit-identical to
  /// FaultSimulator/PairFaultSimulator::signature(multiplet) for any fault
  /// mix: multiplets whose bridges could couple cyclically are detected up
  /// front and run on the exact fixpoint machine instead.
  ErrorSignature signature(std::span<const Fault> multiplet);

  const Netlist& netlist() const { return *netlist_; }
  const PatternSet& good_response() const { return baseline_->good; }

 private:
  /// Good lane row of net `n` for the group at block `b0`, in place in
  /// `frame` (a [net][stride_] array laid out like PropagatorBaseline).
  const Word* good_row(const Word* frame, NetId n, std::size_t b0) const {
    return frame + n * stride_ + b0;
  }
  /// Lane row of net `n`: the scratch overlay if touched, else the good row.
  const Word* read_row(const Word* frame, NetId n, std::size_t b0) const {
    return touched_[n] ? scratch_.data() + n * lanes_
                       : good_row(frame, n, b0);
  }

  void seed_fault(const Fault& fault, std::size_t b0);
  /// Propagates the seeded wave; returns true if `watch` was touched
  /// (feedback-bridge detection — the optimistic result is then invalid).
  bool propagate(std::size_t b0, std::size_t m, ErrorSignature& sig,
                 NetId watch);
  /// Seeds `value` in the bits seed_mask_ selects; the others keep `good`,
  /// so they never start a wave.
  void seed_site(NetId net, const Word* value, const Word* good);
  /// Appends the failing patterns of this group's first `m` lanes — every
  /// touched PO whose overlay differs from the good machine — to `sig`,
  /// up to its pattern count.
  void collect_pos(std::size_t b0, std::size_t m, ErrorSignature& sig);

  // Composite (multi-fault) machinery. The multiplet is partitioned like
  // FaultyMachine::set_faults; every dequeued net is re-evaluated through
  // the identical per-net transform stack (pin overrides -> gate -> bridge
  // couplings -> transition hold -> stem overrides), so the converged
  // overlay matches the exact machine's fixpoint bit for bit.
  struct CompStem {
    NetId net;
    bool value;
  };
  struct CompPin {
    NetId gate;
    std::uint32_t pin;
    bool value;
  };
  struct CompBridge {
    FaultKind kind;
    NetId a;  ///< victim (dom) / first net (wired)
    NetId b;  ///< aggressor (dom) / second net (wired)
  };
  struct CompTransition {
    NetId net;
    bool rise;
  };
  /// Faulty launch-frame lane row of one transition net (pair mode).
  struct LaunchRow {
    NetId net;
    Word lanes[kMaxKernelLanes];
  };

  /// Partitions the multiplet; false when the bridge couplings could form
  /// a cycle (the event fixpoint would be schedule-dependent there — use
  /// the exact machine).
  bool prepare_composite(std::span<const Fault> multiplet);
  /// True if `to` lies in the strict fan-out cone of `from` (cached; the
  /// netlist is fixed for the propagator's lifetime).
  bool reaches(NetId from, NetId to);
  void enqueue_net(NetId n);
  void seed_composite(bool apply_transitions);
  /// Re-evaluates net `g` under the composite fault set against the
  /// frame's committed `vals`; writes the final lane row to `out` and the
  /// pre-transform driver row (wired-bridge input) to `raw`.
  void eval_composite(NetId g, const Word* vals, std::size_t b0,
                      bool apply_transitions, Word* out, Word* raw);
  /// Runs the seeded wave to quiescence (multi-sweep: bridge couplings may
  /// enqueue backwards in level order). False if the sweep cap was hit.
  bool propagate_composite(const Word* vals, std::size_t b0,
                           bool apply_transitions);
  void reset_composite();
  /// Exact-machine path (cyclic couplings / sweep-cap safety).
  ErrorSignature composite_fallback(std::span<const Fault> multiplet);
  bool is_wired_member(NetId g) const;

  const Netlist* netlist_;
  const SimKernel* kernel_;
  std::size_t lanes_;
  const PatternSet* patterns_;  // capture frame in pair mode
  const PatternSet* launch_ = nullptr;

  /// Committed good values + PO response (owned or shared; never written
  /// after construction).
  std::shared_ptr<const PropagatorBaseline> baseline_;
  std::size_t stride_;                ///< baseline_->stride
  std::vector<Word> launch_values_;  ///< pair mode; baseline layout

  // Per-query scratch.
  /// Per lane of the current group, the query's pattern bits.
  Word seed_mask_[kMaxKernelLanes] = {};
  std::vector<Word> scratch_;  ///< [net][lane] faulty overlay
  std::vector<char> touched_;  // bytes, not bits: tested per fanin
  std::vector<NetId> touched_list_;
  std::vector<std::vector<NetId>> level_queue_;
  std::vector<char> queued_;
  std::vector<const Word*> fanin_ptrs_;
  /// (net, PO index) of the group's touched POs.
  std::vector<std::pair<NetId, std::uint32_t>> touched_pos_;
  std::size_t n_po_words_;
  /// [pattern bit][PO word] failing-output masks of one lane; all zero
  /// between lanes.
  std::vector<Word> bit_table_;

  // Composite-query scratch (allocated on first composite query).
  std::vector<CompStem> comp_stems_;
  std::vector<CompPin> comp_pins_;
  std::vector<CompBridge> comp_bridges_;
  std::vector<CompTransition> comp_transitions_;
  std::vector<Word> raw_scratch_;  ///< pre-transform rows, wired members
  std::vector<char> raw_touched_;
  std::vector<NetId> raw_touched_list_;
  /// Faulty launch-frame rows at the transition nets (pair mode; the only
  /// frame-1 state the capture frame consumes).
  std::vector<LaunchRow> launch_faulty_;
  std::size_t pending_ = 0;  ///< enqueued, not yet re-evaluated
  std::unordered_map<std::uint64_t, bool> reach_cache_;
  ReachScratch reach_scratch_;  ///< wired-bridge feedback checks

  FaultyMachine fallback_;
};

}  // namespace mdd
