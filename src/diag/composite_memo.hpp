// openmdd — bounded composite-signature memo for the multiplet search.
//
// The greedy multiplet diagnoser re-evaluates many identical composites:
// restarts replay shared prefixes, the drop pass computes every
// leave-one-out subset the marginal-gain report needs again, and repeated
// requests for the same datalog (or datalogs with overlapping defects)
// walk the same candidate sets. `CompositeMemo` is a bounded
// multiplet→signature map keyed by the *sorted member set* — stable
// across contexts and requests, unlike candidate-pool indexes — so each
// distinct composite is propagated once.
//
// Signatures are stored pre-masking (full-window truth); callers subtract
// their context's masked bits after lookup. The memory tier is a
// `ClockCache` (second-chance eviction, exact byte accounting); this class
// adds the `.cspill` disk tier. Thread-safe.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "diag/clock_cache.hpp"
#include "fault/fault.hpp"
#include "fsim/fsim.hpp"
#include "store/spill.hpp"

namespace mdd {

/// Canonical memo key for a composite: the multiplet's member faults,
/// sorted, plus the applied-window length they were propagated over. Two
/// spans listing the same members in any order map to the same entry; the
/// same member set over a different (e.g. ATE-truncated) window does not.
class CompositeKey {
 public:
  explicit CompositeKey(std::span<const Fault> multiplet,
                        std::size_t window_patterns = 0)
      : members_(multiplet.begin(), multiplet.end()),
        window_patterns_(window_patterns) {
    std::sort(members_.begin(), members_.end());
  }

  const std::vector<Fault>& members() const { return members_; }
  std::size_t window_patterns() const { return window_patterns_; }
  bool operator==(const CompositeKey&) const = default;

 private:
  std::vector<Fault> members_;
  std::size_t window_patterns_ = 0;
};

struct CompositeKeyHash {
  std::size_t operator()(const CompositeKey& key) const {
    // FNV-style fold over the per-member hashes (members are sorted, so
    // the fold order is canonical), then the window length.
    std::size_t h = 0xcbf29ce484222325ull;
    for (const Fault& f : key.members())
      h = (h ^ FaultHash{}(f)) * 0x100000001b3ull;
    h = (h ^ key.window_patterns()) * 0x100000001b3ull;
    return h;
  }
};

struct CompositeMemoStats : CacheStats {
  /// Disk-tier traffic (zero unless a spill is attached). A spill hit is
  /// NOT a miss: the composite was served without propagation, just from
  /// disk instead of the heap.
  std::uint64_t spill_hits = 0;
  std::uint64_t spill_misses = 0;

  CompositeMemoStats& operator+=(const CompositeMemoStats& o) {
    CacheStats::operator+=(o);
    spill_hits += o.spill_hits;
    spill_misses += o.spill_misses;
    return *this;
  }
};

class CompositeMemo {
 public:
  /// `max_bytes` bounds the memo's approximate footprint; stores beyond
  /// it evict cold (second-chance) entries to make room. A single entry
  /// larger than the whole budget is declined outright.
  explicit CompositeMemo(std::size_t max_bytes = 64ull << 20);

  std::shared_ptr<const ErrorSignature> lookup(const CompositeKey& key);
  void store(const CompositeKey& key,
             std::shared_ptr<const ErrorSignature> sig);

  /// Attaches the disk tier: lookups that miss memory consult the spill
  /// (promoting hits back into the memory tier), and stores write through
  /// to it, so multiplet composites survive eviction AND restarts — the
  /// same memory → disk → compute ladder the SignatureMemo has. The spill
  /// is fail-open by construction; the memo never observes its errors.
  void set_spill(std::shared_ptr<store::CompositeSpill> spill);
  std::shared_ptr<store::CompositeSpill> spill() const;

  CompositeMemoStats stats() const;

 private:
  mutable std::mutex mutex_;
  ClockCache<CompositeKey, std::shared_ptr<const ErrorSignature>,
             CompositeKeyHash>
      cache_;
  std::shared_ptr<store::CompositeSpill> spill_;  ///< disk tier, may be null
  std::uint64_t spill_hits_ = 0;
  std::uint64_t spill_misses_ = 0;
};

}  // namespace mdd
