#include "server/signature_memo.hpp"

#include "obs/metrics.hpp"

namespace mdd::server {

namespace {

std::size_t approx_signature_bytes(
    const Fault&, const std::shared_ptr<const ErrorSignature>& sig) {
  return sizeof(ErrorSignature) +
         sig->n_failing_patterns() *
             (sizeof(std::uint32_t) + sig->n_po_words() * sizeof(Word));
}

struct MemoMetrics {
  /// Disk-tier traffic (persistent dictionary store).
  obs::Counter& store_hits = obs::registry().counter("store.hits");
  obs::Counter& store_misses = obs::registry().counter("store.misses");
  obs::Counter& store_decode_failures =
      obs::registry().counter("store.decode_failures");
};

MemoMetrics& memo_metrics() {
  static MemoMetrics m;
  return m;
}

}  // namespace

SignatureMemo::SignatureMemo(std::size_t max_bytes)
    : cache_(max_bytes, &approx_signature_bytes, "memo.signature") {}

void SignatureMemo::lookup_many(
    std::span<const Fault> faults,
    std::span<std::shared_ptr<const ErrorSignature>> out) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t k = 0; k < faults.size(); ++k)
    out[k] = lookup_locked(faults[k]);
}

std::shared_ptr<const ErrorSignature> SignatureMemo::lookup_locked(
    const Fault& f) {
  if (const auto* sig = cache_.find(f)) return *sig;
  if (dict_ != nullptr) {
    if (auto idx = dict_->find(f)) {
      try {
        auto sig = std::make_shared<const ErrorSignature>(dict_->decode(*idx));
        memo_metrics().store_hits.inc();
        // Promote into the memory tier: repeat lookups become pointer
        // copies and the clock policy decides how long it stays hot.
        cache_.insert(f, sig);
        return sig;
      } catch (const store::StoreError&) {
        // Structurally impossible after open-time hashing unless the file
        // was truncated/rewritten underneath the mapping. Degrade to
        // simulation permanently rather than rethrowing into a request.
        memo_metrics().store_decode_failures.inc();
        dict_ = nullptr;
      }
    } else {
      memo_metrics().store_misses.inc();
    }
  }
  cache_.record_miss();
  return nullptr;
}

void SignatureMemo::set_store(std::shared_ptr<const store::DictReader> dict) {
  std::lock_guard<std::mutex> lock(mutex_);
  dict_ = std::move(dict);
}

bool SignatureMemo::has_store() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dict_ != nullptr;
}

std::shared_ptr<const store::DictReader> SignatureMemo::store_reader() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dict_;
}

void SignatureMemo::store(const Fault& f,
                          std::shared_ptr<const ErrorSignature> sig) {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.insert(f, std::move(sig));
}

CacheStats SignatureMemo::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.stats();
}

}  // namespace mdd::server
