// openmdd — shared diagnosis types and the per-case context.
//
// `DiagnosisContext` packages everything the diagnosers need for one
// failing device: the netlist, the applied pattern window, the observed
// (possibly truncated) error signature, the extracted candidate pool, and
// a cache of per-candidate solo signatures (computed lazily — every
// diagnoser needs most of them, no diagnoser wants to recompute them).
// The cross-case memos hold full-pattern-set signatures; a context cuts
// each down to what its tester observed: its window, minus X-masked bits.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/exec.hpp"
#include "diag/candidates.hpp"
#include "diag/composite_memo.hpp"
#include "diag/datalog.hpp"
#include "fsim/fsim.hpp"
#include "fsim/propagate.hpp"
#include "obs/trace.hpp"

namespace mdd {

/// Per-bit match weights: reward explained failures, punish mispredictions
/// harder than unexplained failures (another defect may explain those).
struct ScoreWeights {
  double tfsf = 10.0;
  double tpsf = 5.0;
  double tfsp = 2.0;
};

inline double score_of(const MatchCounts& m, const ScoreWeights& w) {
  return w.tfsf * static_cast<double>(m.tfsf) -
         w.tpsf * static_cast<double>(m.tpsf) -
         w.tfsp * static_cast<double>(m.tfsp);
}

struct ScoredCandidate {
  Fault fault{};
  MatchCounts counts{};
  double score = 0.0;
  /// Candidates whose solo signature over the applied window is identical
  /// (logically indistinguishable with this pattern set).
  std::vector<Fault> alternates;
};

struct DiagnosisReport {
  std::string method;
  /// Ranked suspects. For the multiplet diagnosers each entry is one
  /// member of the reported defect multiplet; for single-fault diagnosis
  /// it is the top-k ranking.
  std::vector<ScoredCandidate> suspects;
  /// The reported suspect set reproduces the datalog exactly.
  bool explains_all = false;
  /// The diagnoser hit its cancellation token / deadline and wound down
  /// early; `suspects` holds the best partial answer found so far.
  bool timed_out = false;
  std::size_t n_candidates_scored = 0;
  /// SLAT bookkeeping (filled by the SLAT baseline).
  std::size_t n_slat_patterns = 0;
  std::size_t n_nonslat_patterns = 0;
  double cpu_seconds = 0.0;

  std::vector<Fault> suspect_faults() const {
    std::vector<Fault> out;
    out.reserve(suspects.size());
    for (const ScoredCandidate& s : suspects) out.push_back(s.fault);
    return out;
  }
};

/// Cross-case store for candidate solo signatures, keyed by the fault
/// alone. An entry is the signature over the FULL pattern set, before
/// masking: every datalog for one circuit — full, ATE-truncated or
/// X-masked — can read it and cut what its tester did not observe.
/// Implementations must be thread-safe; lookups must return exactly what
/// a fresh full-set compute would produce (the serving layer's
/// determinism contract rides on it).
class SoloSignatureStore {
 public:
  virtual ~SoloSignatureStore() = default;
  /// Batch lookup: `out[k]` becomes the cached signature of `faults[k]`,
  /// or null on miss. One call per context, so a locking store locks once
  /// per datalog rather than once per candidate. `out.size()` must equal
  /// `faults.size()`.
  virtual void lookup_many(
      std::span<const Fault> faults,
      std::span<std::shared_ptr<const ErrorSignature>> out) = 0;
  /// One-key lookup_many.
  std::shared_ptr<const ErrorSignature> lookup(const Fault& f) {
    std::shared_ptr<const ErrorSignature> sig;
    lookup_many({&f, 1}, {&sig, 1});
    return sig;
  }
  /// Offers a freshly computed signature (shared, so neither side
  /// copies); the store may decline (full).
  virtual void store(const Fault& f,
                     std::shared_ptr<const ErrorSignature> sig) = 0;
};

class DiagnosisContext {
 public:
  /// Static-test context (single-frame patterns). Its engines run on the
  /// full `patterns`; solo misses are simulated over the datalog's applied
  /// window only. `precomputed_good`, if given, must be
  /// simulate(netlist, patterns) (the serving session cache computes it
  /// once per circuit); only the reference composite simulator reads it.
  /// `baseline`, if given, must be SingleFaultPropagator::make_baseline(
  /// netlist, patterns) — shared, not copied, sparing each context the
  /// full-circuit good simulation; null builds one. Candidate extraction
  /// reads its traced patterns' good values from it. `netlist`,
  /// `patterns`, `datalog` and `precomputed_good` must outlive the
  /// context. `trace`, if non-null, receives nested "baseline" /
  /// "extract" spans covering simulation-engine setup and candidate
  /// extraction.
  DiagnosisContext(
      const Netlist& netlist, const PatternSet& patterns,
      const Datalog& datalog, const CandidateOptions& candidate_options = {},
      const PatternSet* precomputed_good = nullptr,
      std::shared_ptr<const PropagatorBaseline> baseline = nullptr,
      obs::Trace* trace = nullptr);

  /// Pair-test context (launch/capture pairs, transition-fault capable).
  /// Candidate extraction adds slow-to-rise/fall candidates and every
  /// signature is computed with two-frame simulation — the diagnosers
  /// themselves are unchanged.
  DiagnosisContext(const Netlist& netlist, const PatternSet& launch,
                   const PatternSet& capture, const Datalog& datalog,
                   const CandidateOptions& candidate_options = {});

  // The simulation engines hold pointers into the window members.
  DiagnosisContext(const DiagnosisContext&) = delete;
  DiagnosisContext& operator=(const DiagnosisContext&) = delete;

  const Netlist& netlist() const { return *netlist_; }
  bool pair_mode() const { return pair_fsim_.has_value(); }
  /// Patterns restricted to the datalog's applied window (capture frame in
  /// pair mode).
  const PatternSet& patterns() const { return window_; }
  /// Launch-frame window; pair mode only.
  const PatternSet& launch_patterns() const { return launch_window_; }
  /// Observed error bits within the applied window.
  const ErrorSignature& observed() const { return observed_; }
  const Datalog& datalog() const { return *datalog_; }

  const CandidatePool& pool() const { return pool_; }
  std::size_t n_candidates() const { return pool_.faults.size(); }
  const Fault& candidate(std::size_t i) const { return pool_.faults[i]; }

  /// Solo signature of candidate `i` over the applied window (cached).
  /// Thread-safe: concurrent callers for the same `i` all receive the same
  /// cached object, computed exactly once (per-slot std::once_flag).
  ///
  /// The first solo query of any kind (this, any warm) looks every
  /// candidate up in the attached store in ONE batch and fills the slots
  /// it answers; a slot the batch left cold is simulated on demand and
  /// offered back to the store, never looked up again.
  const ErrorSignature& solo_signature(std::size_t i);

  /// Fills the solo-signature cache candidate-parallel under `policy`,
  /// each worker propagating with its own event engine. Slots already
  /// computed are kept; the cached values are byte-identical to the lazy
  /// serial fill for any thread count. A cancelled `cancel` token stops
  /// the warm at the next candidate boundary — remaining slots simply
  /// stay cold and fill lazily on demand.
  void warm_solo_signatures(const ExecPolicy& policy,
                            const CancelToken* cancel = nullptr);

  /// The many-context warm (one diagnose_batch wave): every distinct
  /// fault across `contexts` is looked up once in the shared store and
  /// each miss is simulated once, over the longest window any context
  /// needs; every context's slots then receive that context's own cut.
  /// Work runs on `threads` private threads (run_on_threads) that claim
  /// chunks off a shared counter. The contexts must be static, over one
  /// netlist and pattern set, with the same store attached (or none), and
  /// no other thread may query them during the warm (std::invalid_argument
  /// on a mix). The values are those of each context's own fill, so
  /// reports do not change. One context is simply the one-context warm
  /// above under ExecPolicy{threads}, on the shared pool. A cancelled
  /// `cancel` stops the simulations at the next chunk; cold slots fill
  /// lazily. Each simulation counts once, in one context's
  /// solo_compute_count().
  static void warm_solo_signatures(std::span<DiagnosisContext* const> contexts,
                                   std::size_t threads,
                                   const CancelToken* cancel = nullptr);

  /// Fills every solo slot the attached store can answer WITHOUT
  /// simulating anything (the context's batch lookup) — the store-backed
  /// cold-start path: candidates the persistent dictionary covers become
  /// lookups, only the remainder is worth a parallel PPSFP warm. Returns
  /// the number of slots now filled (store answers plus slots already
  /// computed); 0 when no store is attached. Thread-safe, like the other
  /// fills.
  std::size_t warm_solo_from_store();

  /// Number of solo signatures computed so far (cache instrumentation;
  /// never exceeds n_candidates()).
  std::size_t solo_compute_count() const {
    return solo_computes_.load(std::memory_order_relaxed);
  }

  /// Attaches a cross-case solo-signature store. Honored for every
  /// static-test context; it offers its solo misses only when its window
  /// is the full pattern set. Pair-mode (transition) contexts never
  /// attach: their signatures depend on the launch frame as well. Call
  /// before the first solo_signature()/warm_solo_signatures() query.
  void attach_solo_store(SoloSignatureStore* store) {
    if (memo_attachable_) solo_store_ = store;
  }
  bool solo_store_attached() const { return solo_store_ != nullptr; }

  /// Signature of an arbitrary multiplet over the applied window
  /// (composite evaluation). Served from the composite memo when this
  /// exact member set was evaluated before (restarts, the drop/swap
  /// refinement, the marginal-gain report, and repeat requests all replay
  /// composites); computed by the event-driven composite propagator
  /// otherwise. Bit-identical to the reference simulators either way.
  ErrorSignature multiplet_signature(std::span<const Fault> multiplet);

  /// Attaches a cross-request composite-signature memo (the serving
  /// session cache owns one per circuit). Like attach_solo_store,
  /// honored for every static context: composites are evaluated over the
  /// full pattern set, so entries mean the same thing in every attaching
  /// context. Pair-mode contexts keep their private per-request memo.
  void attach_composite_memo(CompositeMemo* memo) {
    if (memo_attachable_ && memo != nullptr) composites_ = memo;
  }

  /// Routes multiplet_signature through the reference full-circuit
  /// simulator instead of the event engine + memo (A/B benchmarking and
  /// differential tests). The static reference simulator is built on the
  /// first such query.
  void use_reference_composites(bool on) { reference_composites_ = on; }

  /// Candidates (other than `i`) with a solo signature identical to
  /// candidate `i`'s — its indistinguishability class.
  std::vector<Fault> indistinguishable_from(std::size_t i);

 private:
  const Netlist* netlist_;
  const Datalog* datalog_;
  const PatternSet* patterns_ = nullptr;  ///< full set; null in pair mode
  const PatternSet* precomputed_good_ = nullptr;  ///< static mode, may be null
  PatternSet window_;         // capture window in pair mode
  PatternSet launch_window_;  // pair mode only
  ErrorSignature observed_;
  CandidatePool pool_;
  /// Reference simulators; the static one is built on first use.
  std::optional<FaultSimulator> fsim_;
  std::optional<PairFaultSimulator> pair_fsim_;
  /// Event-driven PPSFP engine for the per-candidate solo signatures and
  /// the composite multiplet signatures.
  std::optional<SingleFaultPropagator> propagator_;

  struct SoloSlot {
    std::once_flag once;
    /// Shared with the attached store when one is in play — a cache hit
    /// is a pointer copy, not a signature copy.
    std::shared_ptr<const ErrorSignature> sig;
  };
  /// Slot `i`, filled on first use: by the context's batch lookup, else
  /// simulated with `prop` (null: the shared propagator, under its
  /// mutex), offered to the store, and cut to what this tester observed.
  const ErrorSignature& fill_solo(std::size_t i, SingleFaultPropagator* prop);
  /// The context's one batch lookup; idempotent, and a no-op fast path
  /// once done. Runs outside every slot's once_flag (see diagnosis.cpp).
  void lookup_solo_batch();
  /// Fills slot `i` with `sig` (pre-masking, at least this window long)
  /// unless it is filled already. The cut runs before the once_flag, so
  /// only a nothrow move executes inside it.
  void offer_solo(std::size_t i, std::shared_ptr<const ErrorSignature> sig);
  /// Marks the batch lookup done on behalf of a many-context warm that
  /// looked every candidate up and filled `hits` slots.
  void finish_solo_batch(std::size_t hits);
  /// Cuts the bits this datalog's tester did not observe — patterns past
  /// the applied window, X-masked bits — from a pre-masking signature
  /// (pointer pass-through when there are none).
  std::shared_ptr<const ErrorSignature> cut_unobserved(
      std::shared_ptr<const ErrorSignature> pre) const;

  /// deque: slots are neither movable (once_flag) nor relocated.
  std::deque<SoloSlot> solo_cache_;
  std::mutex propagator_mutex_;  ///< guards propagator_'s scratch state
  std::atomic<std::size_t> solo_computes_{0};
  std::mutex solo_batch_mutex_;  ///< serializes the one batch lookup
  std::atomic<bool> solo_batch_done_{false};
  std::size_t solo_batch_hits_ = 0;  ///< store answers; set before done
  SoloSignatureStore* solo_store_ = nullptr;
  bool memo_attachable_ = false;  ///< static mode (full-set memos OK)
  /// Per-context composite memo (intra-request reuse across restarts and
  /// refinement); replaced by the session-wide memo when one is attached.
  CompositeMemo local_composites_{32ull << 20};
  CompositeMemo* composites_ = &local_composites_;
  bool reference_composites_ = false;
  /// Shared good-machine state for the static propagators and candidate
  /// extraction (null in pair mode).
  std::shared_ptr<const PropagatorBaseline> baseline_;
};

}  // namespace mdd
