// openmdd — cross-request solo-signature memo for cached sessions.
//
// The expensive part of a steady-state diagnosis request is not loading
// the circuit (the session cache already amortizes that) but simulating
// the solo signature of every candidate in the datalog's suspect cone.
// Over the full pattern set those signatures depend only on the netlist
// and the fault, so every datalog for one circuit shares them exactly.
// `SignatureMemo` is the session-scoped `SoloSignatureStore`
// implementation — a bounded fault→signature map that turns the second
// and later requests touching a cone into lookups instead of event-driven
// simulations. Entries hold full-set, PRE-masking truth: each context
// cuts its own unobserved bits (patterns past its applied window, X-masked
// bits) after lookup, so ATE-truncated and X-masked datalogs share every
// entry with full ones.
//
// The memory tier is a `ClockCache` (second-chance eviction, exact byte
// accounting); this class adds the read-only mmap store tier. Its
// traffic is counted only in the registry: `memo.signature.*` for the
// memory tier and `store.{hits,misses}` for the mmap tier (a store hit
// is neither a memo hit nor a miss).
#pragma once

#include <memory>
#include <mutex>
#include <span>

#include "diag/clock_cache.hpp"
#include "diag/diagnosis.hpp"
#include "store/reader.hpp"

namespace mdd::server {

class SignatureMemo final : public SoloSignatureStore {
 public:
  /// `max_bytes` bounds the memo's approximate footprint; stores beyond
  /// it evict cold (second-chance) entries to make room. A single
  /// signature larger than the whole budget is declined outright.
  explicit SignatureMemo(std::size_t max_bytes = 256ull << 20);

  /// Per key the tiers answer in order: memory, the mmap store (decoded
  /// and promoted into memory), else null. The memory tier answers under
  /// one lock; store decodes run outside it, and one more lock promotes
  /// them, so concurrent batches decode in parallel. Each key counts at
  /// most one of store.hits / store.misses.
  void lookup_many(
      std::span<const Fault> faults,
      std::span<std::shared_ptr<const ErrorSignature>> out) override;
  void store(const Fault& f,
             std::shared_ptr<const ErrorSignature> sig) override;

  /// Attaches a persistent dictionary as the warm tier below memory, once
  /// at session load: lookup order becomes memory → mmap store → (caller
  /// simulates). The reader must have been validated against this
  /// session's (netlist, patterns) — the memo trusts it. Decoded store
  /// answers are admitted into the memory tier so repeat lookups are
  /// pointer copies. A decode error (corrupt postings that survived
  /// open-time hashing — near impossible, but cheap to handle) detaches
  /// the store and falls back to simulation for good.
  void set_store(std::shared_ptr<const store::DictReader> dict);
  bool has_store() const;
  std::shared_ptr<const store::DictReader> store_reader() const;

  /// Memory-tier footprint; the traffic is in the registry.
  CacheStats stats() const;

 private:
  mutable std::mutex mutex_;
  ClockCache<Fault, std::shared_ptr<const ErrorSignature>, FaultHash> cache_;
  std::shared_ptr<const store::DictReader> dict_;  ///< warm tier, may be null
};

}  // namespace mdd::server
