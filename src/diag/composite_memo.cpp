#include "diag/composite_memo.hpp"

namespace mdd {

namespace {

/// Exact against the accounting tests: the key lives twice (index + clock
/// ring), the signature payload is its sparse entries.
std::size_t approx_entry_bytes(
    const CompositeKey& key, const std::shared_ptr<const ErrorSignature>& sig) {
  return 2 * key.members().size() * sizeof(Fault) + sizeof(ErrorSignature) +
         sig->n_failing_patterns() *
             (sizeof(std::uint32_t) + sig->n_po_words() * sizeof(Word));
}

}  // namespace

CompositeMemo::CompositeMemo(std::size_t max_bytes)
    : cache_(max_bytes, &approx_entry_bytes, "memo.composite") {}

std::shared_ptr<const ErrorSignature> CompositeMemo::lookup(
    const CompositeKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto* sig = cache_.find(key)) return *sig;
  cache_.record_miss();
  return nullptr;
}

void CompositeMemo::store(const CompositeKey& key,
                          std::shared_ptr<const ErrorSignature> sig) {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.insert(key, std::move(sig));
}

CacheStats CompositeMemo::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.stats();
}

}  // namespace mdd
