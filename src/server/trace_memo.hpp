// openmdd — cross-request critical-path-trace memo for cached sessions.
//
// Companion to SignatureMemo on the candidate-extraction side: the
// critical fault set of a failing (pattern, output) pair is a pure
// function of (netlist, patterns), so datalogs that report overlapping
// failures — repeats, or distinct dies failing the same way — share their
// back-traces. `TraceMemo` is the session-scoped `CptTraceStore`
// implementation: a bounded (pattern, output) → fault-vector map whose
// memory tier is a `ClockCache`, so a full memo evicts cold traces to
// admit new ones.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "diag/candidates.hpp"
#include "diag/clock_cache.hpp"

namespace mdd::server {

class TraceMemo final : public CptTraceStore {
 public:
  explicit TraceMemo(std::size_t max_bytes = 64ull << 20);

  /// Takes the memo mutex once for the whole batch; every key still
  /// counts one hit or one miss.
  void lookup_many(
      std::span<const Key> keys,
      std::span<std::shared_ptr<const std::vector<Fault>>> out) override;
  void store(std::uint32_t pattern, std::uint32_t po,
             std::shared_ptr<const std::vector<Fault>> faults) override;

  CacheStats stats() const;

 private:
  static std::uint64_t key(std::uint32_t pattern, std::uint32_t po) {
    return (std::uint64_t{pattern} << 32) | po;
  }

  mutable std::mutex mutex_;
  ClockCache<std::uint64_t, std::shared_ptr<const std::vector<Fault>>> cache_;
};

}  // namespace mdd::server
