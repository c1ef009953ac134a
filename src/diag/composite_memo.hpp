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
// Signatures are stored over the full pattern set and pre-masking; each
// caller cuts its context's unobserved bits (patterns past the applied
// window, X-masked bits) after lookup, so one entry serves every datalog.
// The memo is a mutex around a `ClockCache` (second-chance eviction, exact
// byte accounting) with no tier behind it: an evicted composite is
// re-propagated, because a disk tier measured no cheaper than that
// (DESIGN.md §14). Thread-safe.
#pragma once

#include <algorithm>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "diag/clock_cache.hpp"
#include "fault/fault.hpp"
#include "fsim/fsim.hpp"

namespace mdd {

/// Canonical memo key for a composite: the multiplet's member faults,
/// sorted. Two spans listing the same members in any order map to the
/// same entry.
class CompositeKey {
 public:
  explicit CompositeKey(std::span<const Fault> multiplet)
      : members_(multiplet.begin(), multiplet.end()) {
    std::sort(members_.begin(), members_.end());
  }

  const std::vector<Fault>& members() const { return members_; }
  bool operator==(const CompositeKey&) const = default;

 private:
  std::vector<Fault> members_;
};

struct CompositeKeyHash {
  std::size_t operator()(const CompositeKey& key) const {
    // FNV-style fold over the per-member hashes (members are sorted, so
    // the fold order is canonical).
    std::size_t h = 0xcbf29ce484222325ull;
    for (const Fault& f : key.members())
      h = (h ^ FaultHash{}(f)) * 0x100000001b3ull;
    return h;
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

  CacheStats stats() const;

 private:
  mutable std::mutex mutex_;
  ClockCache<CompositeKey, std::shared_ptr<const ErrorSignature>,
             CompositeKeyHash>
      cache_;
};

}  // namespace mdd
