// openmdd — cross-request solo-signature memo for cached sessions.
//
// The expensive part of a steady-state diagnosis request is not loading
// the circuit (the session cache already amortizes that) but simulating
// the solo signature of every candidate in the datalog's suspect cone.
// Those signatures depend only on (netlist, applied window): two datalogs
// for the same circuit that apply the same window share them exactly.
// `SignatureMemo` is the session-scoped `SoloSignatureStore`
// implementation — a bounded (fault, window)→signature map that turns the
// second and later requests touching a cone into lookups instead of
// event-driven simulations. Entries hold PRE-masking truth (contexts
// subtract their own X-mask after lookup), so ATE-truncated and X-masked
// datalogs amortize too. A truncated-window lookup that misses its exact
// key is served by restricting the full-window entry (memory tier or the
// mmap dictionary) — a full window contains every shorter one.
//
// The memory tier is a `ClockCache` (second-chance eviction, exact byte
// accounting); this class adds the window restriction, the mmap store
// tier and the store-miss journal. Its traffic is counted only in the
// registry: `memo.signature.*` for the memory tier and `store.{hits,misses}`
// for the mmap tier (a store hit is neither a memo hit nor a miss); every
// restriction, from either tier, also counts
// `memo.signature.window_restricts`.
#pragma once

#include <memory>
#include <mutex>
#include <span>

#include "diag/clock_cache.hpp"
#include "diag/diagnosis.hpp"
#include "store/journal.hpp"
#include "store/reader.hpp"

namespace mdd::server {

class SignatureMemo final : public SoloSignatureStore {
 public:
  /// `max_bytes` bounds the memo's approximate footprint; stores beyond
  /// it evict cold (second-chance) entries to make room. A single
  /// signature larger than the whole budget is declined outright.
  /// `full_window` is the session pattern count — the window over which
  /// the persistent dictionary (if any) and untruncated requests
  /// simulate; it lets shorter-window lookups fall back to restricting a
  /// full-window entry. 0 means unknown (exact-key and dict-derived
  /// serving only).
  explicit SignatureMemo(std::size_t max_bytes = 256ull << 20,
                         std::size_t full_window = 0);

  /// Takes the memo lock once for the whole batch. Per key the tiers
  /// answer in order: memory, restriction of a full-window memory entry,
  /// the mmap store (decoded, restricted if shorter, promoted), else null.
  void lookup_many(
      std::span<const Fault> faults, std::size_t window_patterns,
      std::span<std::shared_ptr<const ErrorSignature>> out) override;
  void store(const Fault& f, std::size_t window_patterns,
             std::shared_ptr<const ErrorSignature> sig) override;

  /// Attaches a persistent dictionary as the warm tier below memory:
  /// lookup order becomes memory → mmap store → (caller simulates). The
  /// reader must have been validated against this session's (netlist,
  /// patterns) — the memo trusts it. Decoded store answers are admitted
  /// into the memory tier so repeat lookups are pointer copies. A decode
  /// error (corrupt postings that survived open-time hashing — near
  /// impossible, but cheap to handle) detaches the store and falls back
  /// to simulation for good.
  void set_store(std::shared_ptr<const store::DictReader> dict);
  bool has_store() const;
  std::shared_ptr<const store::DictReader> store_reader() const;

  /// Attaches the store-miss journal. store() is called exactly when a
  /// context had to simulate a signature — i.e. every tier (memory,
  /// window restriction, mmap dictionary) missed — so each such fault is
  /// recorded for the next refresh to fold into the dictionary. The
  /// journal itself dedups and never throws.
  void set_journal(std::shared_ptr<store::FaultJournal> journal);

  /// Memory-tier footprint; the traffic is in the registry.
  CacheStats stats() const;

 private:
  struct Key {
    Fault fault{};
    std::size_t window = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return (FaultHash{}(k.fault) ^ k.window * 0x9e3779b97f4a7c15ull);
    }
  };

  /// One key through every tier; the caller holds mutex_.
  std::shared_ptr<const ErrorSignature> lookup_locked(
      const Fault& f, std::size_t window_patterns);

  std::size_t full_window_ = 0;  ///< session pattern count; 0 = unknown
  mutable std::mutex mutex_;
  ClockCache<Key, std::shared_ptr<const ErrorSignature>, KeyHash> cache_;
  std::shared_ptr<const store::DictReader> dict_;  ///< warm tier, may be null
  std::shared_ptr<store::FaultJournal> journal_;  ///< miss ledger, may be null
};

}  // namespace mdd::server
