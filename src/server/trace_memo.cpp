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

std::shared_ptr<const std::vector<Fault>> TraceMemo::lookup(
    std::uint32_t pattern, std::uint32_t po) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto* faults = cache_.find(key(pattern, po))) return *faults;
  cache_.record_miss();
  return nullptr;
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
