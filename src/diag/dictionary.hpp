// openmdd — fault-dictionary diagnosis (comparison baseline).
//
// The pre-computed-dictionary approach the effect-cause literature argues
// against: simulate every collapsed stuck-at fault (and, optionally, a
// sampled bridge universe) ahead of time, store signature -> faults, and
// diagnose by exact lookup with single-fault fallback ranking.
//
// Strengths: O(1) per diagnosis after the (expensive) build; exact for
// single defects whose signature is in the dictionary. Weaknesses the
// benches quantify: the build cost scales with the whole fault universe
// rather than the failing cone, storage is proportional to faults x
// failing bits, and multiple interacting defects produce composite
// signatures that match no dictionary entry at all (the no-assumptions
// method's whole point).
#pragma once

#include <unordered_map>

#include "diag/diagnosis.hpp"
#include "fault/collapse.hpp"

namespace mdd {

namespace store {
class DictReader;
}

struct DictionaryOptions {
  /// Also index a sampled bridge universe (adds 4x pairs per sample).
  bool include_bridges = true;
  std::size_t bridge_pairs = 256;
  std::uint64_t bridge_seed = 1;
  /// Suspects returned by rank fallback when no exact entry matches.
  std::size_t top_k = 10;
  ScoreWeights weights{};
};

/// Pre-computed full-response dictionary for one (netlist, pattern set).
class FaultDictionary {
 public:
  FaultDictionary(const Netlist& netlist, const PatternSet& patterns,
                  const DictionaryOptions& options = {});

  /// Builds the same dictionary from a persistent store instead of
  /// simulating: every universe fault found in `reader` is decoded off
  /// the mapping; faults the store lacks fall back to simulation (one
  /// FaultSimulator is constructed lazily, only if needed). The store
  /// must have been built for exactly this (netlist, patterns) —
  /// validated by content hash; a mismatch throws store::StoreError.
  FaultDictionary(const Netlist& netlist, const PatternSet& patterns,
                  const store::DictReader& reader,
                  const DictionaryOptions& options = {});

  /// Faults whose full signature equals `observed` exactly (may be several
  /// — they are indistinguishable under this pattern set).
  std::vector<Fault> exact_matches(const ErrorSignature& observed) const;

  /// Dictionary-based diagnosis: exact lookup first; otherwise rank all
  /// dictionary entries by match score (classic dictionary fallback).
  DiagnosisReport diagnose(const Datalog& datalog) const;

  std::size_t n_entries() const { return faults_.size(); }
  double build_seconds() const { return build_seconds_; }
  /// Total stored error bits (storage-cost proxy).
  std::size_t stored_bits() const { return stored_bits_; }

 private:
  struct SigKeyHash {
    std::size_t operator()(const std::string& s) const {
      return std::hash<std::string>{}(s);
    }
  };

  static std::string key_of(const ErrorSignature& sig);

  const Netlist* netlist_;
  DictionaryOptions options_;
  std::vector<Fault> faults_;
  std::vector<ErrorSignature> signatures_;
  std::unordered_map<std::string, std::vector<std::size_t>, SigKeyHash>
      by_signature_;
  std::size_t stored_bits_ = 0;
  double build_seconds_ = 0.0;

  /// Shared by both constructors: the dictionary fault universe.
  std::vector<Fault> build_universe(const Netlist& netlist) const;
  /// Indexes signatures_ / by_signature_ / stored_bits_ (signatures_ and
  /// faults_ must already be parallel).
  void index_signatures();
};

}  // namespace mdd
