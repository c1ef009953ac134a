// openmdd — fault simulation.
//
// `ErrorSignature` is the sparse set of (pattern, output) *error bits* a
// fault (or fault multiplet) produces relative to the good machine — the
// currency of the diagnosis core. `FaultSimulator` computes signatures and
// detection/coverage via FaultyMachine, evaluating one kernel lane group
// (kernel.lanes x 64 patterns) per pass; results are bit-identical for
// every kernel (tests/test_kernel_equiv.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/exec.hpp"
#include "fault/inject.hpp"
#include "sim/sim2.hpp"

namespace mdd {

/// Sparse (pattern, output) error-bit set, sorted by pattern. Output masks
/// are fixed-width bit vectors of n_outputs bits (n_po_words words each).
class ErrorSignature {
 public:
  ErrorSignature() = default;
  ErrorSignature(std::size_t n_patterns, std::size_t n_outputs);

  /// Error bits of `faulty` relative to `good` (same shape required).
  static ErrorSignature diff(const PatternSet& good, const PatternSet& faulty);

  std::size_t n_patterns() const { return n_patterns_; }
  std::size_t n_outputs() const { return n_outputs_; }
  std::size_t n_po_words() const { return n_po_words_; }

  bool empty() const { return patterns_.empty(); }
  std::size_t n_failing_patterns() const { return patterns_.size(); }
  std::size_t n_error_bits() const;

  /// Sorted failing pattern indices.
  const std::vector<std::uint32_t>& failing_patterns() const {
    return patterns_;
  }

  /// PO error mask of the i-th failing pattern (n_po_words words).
  std::span<const Word> mask(std::size_t i) const;

  /// PO error mask of pattern `p`, or empty span if `p` does not fail.
  std::span<const Word> mask_of_pattern(std::uint32_t p) const;

  /// Appends a failing pattern (must be > all current patterns).
  void append(std::uint32_t pattern, std::span<const Word> po_mask);

  /// Failing output indices of the i-th failing pattern.
  std::vector<std::uint32_t> failing_outputs(std::size_t i) const;

  bool operator==(const ErrorSignature&) const = default;

 private:
  std::size_t n_patterns_ = 0;
  std::size_t n_outputs_ = 0;
  std::size_t n_po_words_ = 0;
  std::vector<std::uint32_t> patterns_;
  std::vector<Word> masks_;  // patterns_.size() * n_po_words_
};

/// Per-bit match counts between an observed signature (tester) and a
/// simulated candidate signature.
struct MatchCounts {
  std::size_t tfsf = 0;  ///< tester fail & sim fail (same bit)
  std::size_t tfsp = 0;  ///< tester fail, sim pass (unexplained)
  std::size_t tpsf = 0;  ///< tester pass, sim fail (misprediction)
};

/// Computes per-bit match counts between two signatures of the same shape.
MatchCounts match(const ErrorSignature& observed, const ErrorSignature& sim);

/// Repeated-matching accelerator: expands the observed signature into a
/// dense per-pattern bitmap once, then scores each candidate signature by
/// direct indexing — O(candidate entries) instead of a branchy sorted
/// merge. Produces exactly match(observed, sim) for every sim of the same
/// shape (property-tested); use it wherever one observed signature is
/// matched against many candidates.
class SignatureMatcher {
 public:
  explicit SignatureMatcher(const ErrorSignature& observed);
  SignatureMatcher(const ErrorSignature& observed, const SimKernel& kernel);

  MatchCounts match(const ErrorSignature& sim) const;

 private:
  const SimKernel* kernel_;
  std::size_t n_po_words_ = 0;
  std::size_t observed_bits_ = 0;
  std::vector<Word> dense_;  // n_patterns * n_po_words
};

/// Error bits of `a` not present in `b` (same shape): the residual failures
/// left unexplained by `b`.
ErrorSignature signature_difference(const ErrorSignature& a,
                                    const ErrorSignature& b);

/// The first `n_patterns` patterns of `sig`, shape included: byte-identical
/// to simulating over just that prefix of the pattern set.
ErrorSignature signature_prefix(const ErrorSignature& sig,
                                std::size_t n_patterns);

/// Drops failing patterns with index >= `n_patterns` (ATE applied-window
/// restriction).
ErrorSignature restrict_signature(const ErrorSignature& sig,
                                  std::size_t n_patterns);

class FaultSimulator {
 public:
  /// Precomputes the good-machine response for `patterns`. The kernel
  /// (default: the process-wide current kernel) is snapshotted for the
  /// simulator's lifetime, including batch workers.
  FaultSimulator(const Netlist& netlist, const PatternSet& patterns);
  FaultSimulator(const Netlist& netlist, const PatternSet& patterns,
                 const SimKernel& kernel);

  /// Reuses an already-simulated good response instead of recomputing it
  /// (the serving session cache amortizes one good simulation across many
  /// datalogs). `good` must be exactly simulate(netlist, patterns); shape
  /// mismatches throw std::invalid_argument.
  FaultSimulator(const Netlist& netlist, const PatternSet& patterns,
                 PatternSet good);
  FaultSimulator(const Netlist& netlist, const PatternSet& patterns,
                 PatternSet good, const SimKernel& kernel);

  const SimKernel& kernel() const { return machine_.kernel(); }
  const Netlist& netlist() const { return *netlist_; }
  const PatternSet& patterns() const { return *patterns_; }
  const PatternSet& good_response() const { return good_; }

  /// Error signature of one fault.
  ErrorSignature signature(const Fault& fault);

  /// Error signature of a multiplet simulated *simultaneously*.
  ErrorSignature signature(std::span<const Fault> multiplet);

  /// True if the fault produces any error bit (early-exits per block).
  bool detects(const Fault& fault);

  /// Lowest pattern index whose response differs under `fault`, if any.
  std::optional<std::uint32_t> first_detecting_pattern(const Fault& fault);

  /// Detection flags for a fault list (serial, with early exit per fault).
  std::vector<bool> detected(std::span<const Fault> faults);

  /// Fraction of `faults` detected by the pattern set.
  double coverage(std::span<const Fault> faults);

  /// Solo signatures of every fault, fault-parallel under `policy` with
  /// per-worker FaultyMachine scratch. Result order matches `faults` and
  /// each entry is byte-identical to `signature(faults[i])` for any thread
  /// count.
  std::vector<ErrorSignature> signatures(std::span<const Fault> faults,
                                         const ExecPolicy& policy) const;

  /// Fault-parallel `detected` (same early exit per fault, identical
  /// output for any thread count).
  std::vector<bool> detected(std::span<const Fault> faults,
                             const ExecPolicy& policy) const;

  /// Fault-parallel coverage.
  double coverage(std::span<const Fault> faults,
                  const ExecPolicy& policy) const;

 private:
  const Netlist* netlist_;
  const PatternSet* patterns_;
  PatternSet good_;
  FaultyMachine machine_;
};

/// Fault simulation over launch/capture pattern *pairs* (transition-fault
/// testing). Pattern index i refers to the pair (launch[i], capture[i]);
/// responses and signatures are capture-frame. Handles any fault mix —
/// static faults corrupt both frames, transition faults activate only on
/// launch->capture transitions.
class PairFaultSimulator {
 public:
  PairFaultSimulator(const Netlist& netlist, const PatternSet& launch,
                     const PatternSet& capture);
  PairFaultSimulator(const Netlist& netlist, const PatternSet& launch,
                     const PatternSet& capture, const SimKernel& kernel);

  const SimKernel& kernel() const { return machine_.kernel(); }
  const Netlist& netlist() const { return *netlist_; }
  const PatternSet& launch() const { return *launch_; }
  const PatternSet& capture() const { return *capture_; }
  std::size_t n_pairs() const { return capture_->n_patterns(); }
  /// Good-machine capture responses.
  const PatternSet& good_response() const { return good_; }

  ErrorSignature signature(const Fault& fault);
  ErrorSignature signature(std::span<const Fault> multiplet);
  bool detects(const Fault& fault);
  std::optional<std::uint32_t> first_detecting_pair(const Fault& fault);
  double coverage(std::span<const Fault> faults);

  /// Pair-parallel batch APIs, mirroring FaultSimulator: output is
  /// byte-identical to the per-fault serial calls for any thread count.
  std::vector<ErrorSignature> signatures(std::span<const Fault> faults,
                                         const ExecPolicy& policy) const;
  std::vector<bool> detected(std::span<const Fault> faults,
                             const ExecPolicy& policy) const;
  double coverage(std::span<const Fault> faults,
                  const ExecPolicy& policy) const;

 private:
  const Netlist* netlist_;
  const PatternSet* launch_;
  const PatternSet* capture_;
  PatternSet good_;
  FaultyMachine machine_;
};

}  // namespace mdd
