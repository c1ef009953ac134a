// openmdd — initial candidate extraction.
//
// Builds the candidate fault pool the diagnosers score. Per failing
// pattern, the good machine is simulated and every failing output is
// back-traced with critical path tracing; the union over all failing
// (pattern, output) pairs is kept (union, not intersection — with multiple
// defects different patterns expose different sites, so intersecting would
// assume exactly the failing-pattern property this library avoids).
//
// Bridge candidates are instantiated on top: for each suspect stem, nearby
// non-feedback partner nets give dominant-bridge candidates with the
// suspect as victim. A structural back-cone fallback covers the corner
// where CPT's classical multi-controlling-input rule under-approximates.
//
// The traced patterns' good values come from a `PropagatorBaseline` (the
// session's, when served); a pattern is simulated one at a time only
// when a trace-store miss needs critical path tracing.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "diag/datalog.hpp"
#include "fault/fault.hpp"
#include "sim/patterns.hpp"

namespace mdd {

struct PropagatorBaseline;

/// Cross-case store for critical-path traces. The critical fault set of a
/// failing (pattern, output) pair depends only on (netlist, patterns) —
/// not on which datalog reported the failure — so a long-lived session can
/// cache traces and answer repeated failures by lookup instead of
/// re-tracing. Implementations must be thread-safe and must return exactly
/// what a fresh trace would produce.
class CptTraceStore {
 public:
  /// One failing (pattern, output) pair.
  struct Key {
    std::uint32_t pattern;
    std::uint32_t po;
  };

  virtual ~CptTraceStore() = default;
  /// Batch lookup: `out[k]` becomes the cached critical faults of
  /// `keys[k]`, or null on miss. One call per datalog, so a locking store
  /// locks once per datalog rather than once per failing output.
  /// `out.size()` must equal `keys.size()`.
  virtual void lookup_many(
      std::span<const Key> keys,
      std::span<std::shared_ptr<const std::vector<Fault>>> out) = 0;
  /// One-key lookup_many.
  std::shared_ptr<const std::vector<Fault>> lookup(std::uint32_t pattern,
                                                   std::uint32_t po) {
    const Key key{pattern, po};
    std::shared_ptr<const std::vector<Fault>> faults;
    lookup_many({&key, 1}, {&faults, 1});
    return faults;
  }
  /// Offers a freshly traced set; the store may decline (full).
  virtual void store(std::uint32_t pattern, std::uint32_t po,
                     std::shared_ptr<const std::vector<Fault>> faults) = 0;
};

struct CandidateOptions {
  bool include_bridges = true;
  /// Bridge partners per suspect net: nearest-by-id nets whose good values
  /// are behaviour-consistent with the aggressor role.
  std::size_t bridge_partners = 16;
  /// Hard cap on the candidate pool (kept by descending CPT support;
  /// stuck-at candidates survive ties against bridges).
  std::size_t max_candidates = 6000;
  /// Failing patterns traced (all if larger; tracing is cheap but bounded
  /// for pathological logs).
  std::size_t max_traced_patterns = 64;
  /// Add stem stuck-at candidates for the whole fan-in cone of the failing
  /// outputs when CPT support is thin (< this many candidates).
  std::size_t back_cone_threshold = 2;
  /// Optional cross-case trace cache (non-owning; see CptTraceStore).
  /// Static-test extraction only; the pair-mode variant ignores it.
  CptTraceStore* trace_store = nullptr;
};

struct CandidatePool {
  std::vector<Fault> faults;
  /// Per-fault support: in how many traced (pattern, output) failures the
  /// fault appeared as critical (bridges inherit their victim's support).
  std::vector<std::uint32_t> support;
};

/// Static-test extraction. `baseline`, if given, must be
/// SingleFaultPropagator::make_baseline(netlist, P) for a pattern set P
/// that `patterns` is a prefix of (the serving session's full set when
/// `patterns` is a datalog's applied window); null builds one for
/// `patterns`. Throws std::invalid_argument when a failing pattern lies
/// past `patterns`.
CandidatePool extract_candidates(const Netlist& netlist,
                                 const PatternSet& patterns,
                                 const Datalog& datalog,
                                 const CandidateOptions& options = {},
                                 const PropagatorBaseline* baseline = nullptr);

/// Pair-testing (transition) variant: traces capture-frame failures; every
/// critical stem whose value moved between launch and capture additionally
/// yields a slow-to-rise/slow-to-fall candidate in the observed direction.
/// Bridge candidates are not generated in pair mode.
CandidatePool extract_tdf_candidates(const Netlist& netlist,
                                     const PatternSet& launch,
                                     const PatternSet& capture,
                                     const Datalog& datalog,
                                     const CandidateOptions& options = {});

}  // namespace mdd
