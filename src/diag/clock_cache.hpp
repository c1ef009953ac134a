// openmdd — the bounded memory tier shared by the session memos.
//
// `SignatureMemo`, `TraceMemo` and `CompositeMemo` each keep a byte-bounded
// key → value map in front of whatever they fall back on (a store tier
// or recomputation). `ClockCache` is that map: an index plus a
// second-chance (clock) ring. A lookup marks its entry referenced; an
// insert that would exceed the budget sweeps the clock hand, clearing
// referenced bits and evicting cold entries until the newcomer fits. Hot
// keys that first appear after warm-up therefore still get cached; a
// first-come set can never squat the budget. Byte accounting is exact
// against the caller's cost function, and one entry larger than the whole
// budget is declined outright.
//
// The cache's event counts live only in the registry, as the series
// `<prefix>.{hits,misses,evictions,inserts,declined}`; `stats()` reports
// levels (entries, bytes) only. A lookup that misses counts nothing: the
// owning memo may still answer from a lower tier, and then records the
// outcome with `record_hit` or `record_miss`.
//
// Not thread-safe: the owning memo serializes every call under its lock.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace mdd {

/// One memory tier's footprint (its traffic is in the registry).
struct CacheStats {
  std::size_t entries = 0;
  std::size_t approx_bytes = 0;

  CacheStats& operator+=(const CacheStats& o) {
    entries += o.entries;
    approx_bytes += o.approx_bytes;
    return *this;
  }
};

template <class Key, class Value, class Hash = std::hash<Key>>
class ClockCache {
 public:
  /// Accounted bytes of one entry; must be a pure function of its inputs.
  using CostFn = std::size_t (*)(const Key&, const Value&);

  /// `metric_prefix` names the registry series, e.g. "memo.signature".
  ClockCache(std::size_t max_bytes, CostFn cost, std::string_view metric_prefix)
      : max_bytes_(max_bytes),
        cost_(cost),
        hits_metric_(counter(metric_prefix, "hits")),
        misses_metric_(counter(metric_prefix, "misses")),
        evictions_metric_(counter(metric_prefix, "evictions")),
        inserts_metric_(counter(metric_prefix, "inserts")),
        declined_metric_(counter(metric_prefix, "declined")) {}

  /// The cached value, marked referenced and counted as a hit; null on a
  /// miss, which is not counted (see the file comment).
  const Value* find(const Key& key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    it->second.referenced = true;
    record_hit();
    return &it->second.value;
  }

  /// A lookup the owner answered from outside this tier, or not at all.
  void record_hit() { hits_metric_.inc(); }
  void record_miss() { misses_metric_.inc(); }

  /// Admits `value` under `key`, evicting cold entries to make room. An
  /// entry over the whole budget is declined; a key already present keeps
  /// its first value (racing computes of one key store equal values).
  void insert(const Key& key, Value value) {
    const std::size_t cost = cost_(key, value);
    if (cost > max_bytes_) {
      declined_metric_.inc();
      return;
    }
    if (entries_.count(key) != 0) return;
    make_room(cost);
    entries_.emplace(key, Entry{std::move(value), cost, false});
    ring_.push_back(key);
    bytes_ += cost;
    inserts_metric_.inc();
  }

  CacheStats stats() const { return CacheStats{entries_.size(), bytes_}; }

 private:
  struct Entry {
    Value value;
    std::size_t cost = 0;
    bool referenced = false;  ///< set on hit, cleared by the clock hand
  };

  static obs::Counter& counter(std::string_view prefix, std::string_view name) {
    std::string full(prefix);
    full += '.';
    full += name;
    return obs::registry().counter(full);
  }

  /// Evicts until `need` more bytes fit. Second chance: a referenced entry
  /// survives one hand pass (its bit is cleared); an unreferenced one is
  /// evicted. Every full lap either evicts something or clears at least
  /// one bit, so the sweep terminates.
  void make_room(std::size_t need) {
    while (bytes_ + need > max_bytes_ && !ring_.empty()) {
      if (hand_ >= ring_.size()) hand_ = 0;
      auto it = entries_.find(ring_[hand_]);
      if (it->second.referenced) {
        it->second.referenced = false;
        ++hand_;
        continue;
      }
      bytes_ -= it->second.cost;
      entries_.erase(it);
      evictions_metric_.inc();
      ring_[hand_] = std::move(ring_.back());
      ring_.pop_back();
    }
  }

  const std::size_t max_bytes_;
  const CostFn cost_;
  std::unordered_map<Key, Entry, Hash> entries_;
  std::vector<Key> ring_;  ///< clock order (swap-with-back on evict)
  std::size_t hand_ = 0;
  std::size_t bytes_ = 0;
  obs::Counter& hits_metric_;
  obs::Counter& misses_metric_;
  obs::Counter& evictions_metric_;
  obs::Counter& inserts_metric_;
  obs::Counter& declined_metric_;
};

}  // namespace mdd
