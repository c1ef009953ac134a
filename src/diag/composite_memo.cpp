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
  std::shared_ptr<store::CompositeSpill> spill;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto* sig = cache_.find(key)) return *sig;
    spill = spill_;
    if (spill == nullptr) {
      cache_.record_miss();
      return nullptr;
    }
  }
  // Disk tier, consulted outside the memo lock (the spill does file I/O
  // under its own mutex). A spill hit is served without re-propagation,
  // so it does not count as a memo miss.
  std::optional<ErrorSignature> from_disk =
      spill->get(key.members(), key.window_patterns());
  std::lock_guard<std::mutex> lock(mutex_);
  if (!from_disk) {
    ++spill_misses_;
    cache_.record_miss();
    return nullptr;
  }
  auto sig = std::make_shared<const ErrorSignature>(std::move(*from_disk));
  ++spill_hits_;
  cache_.record_hit();
  // Promote into the memory tier (racing promoters dedup inside insert).
  cache_.insert(key, sig);
  return sig;
}

void CompositeMemo::store(const CompositeKey& key,
                          std::shared_ptr<const ErrorSignature> sig) {
  std::shared_ptr<store::CompositeSpill> spill;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.insert(key, sig);
    spill = spill_;
  }
  // Write-through outside the memo lock: the composite reaches disk at
  // store time, not eviction time, so it survives a restart even if it
  // stays hot in memory until shutdown. The spill dedups and never throws.
  if (spill != nullptr)
    spill->put(key.members(), key.window_patterns(), *sig);
}

void CompositeMemo::set_spill(std::shared_ptr<store::CompositeSpill> spill) {
  std::lock_guard<std::mutex> lock(mutex_);
  spill_ = std::move(spill);
}

std::shared_ptr<store::CompositeSpill> CompositeMemo::spill() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spill_;
}

CompositeMemoStats CompositeMemo::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return CompositeMemoStats{cache_.stats(), spill_hits_, spill_misses_};
}

}  // namespace mdd
