#include "server/trace_memo.hpp"

namespace mdd::server {

namespace {

std::size_t approx_trace_bytes(
    const std::uint64_t&,
    const std::shared_ptr<const std::vector<Fault>>& faults) {
  return sizeof(std::vector<Fault>) + faults->size() * sizeof(Fault) + 64;
}

}  // namespace

TraceMemo::TraceMemo(std::size_t max_bytes)
    : cache_(max_bytes, &approx_trace_bytes, "memo.trace") {}

void TraceMemo::lookup_many(
    std::span<const Key> keys,
    std::span<std::shared_ptr<const std::vector<Fault>>> out) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    if (const auto* faults = cache_.find(key(keys[k].pattern, keys[k].po))) {
      out[k] = *faults;
    } else {
      cache_.record_miss();
      out[k] = nullptr;
    }
  }
}

void TraceMemo::store(std::uint32_t pattern, std::uint32_t po,
                      std::shared_ptr<const std::vector<Fault>> faults) {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.insert(key(pattern, po), std::move(faults));
}

CacheStats TraceMemo::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.stats();
}

}  // namespace mdd::server
