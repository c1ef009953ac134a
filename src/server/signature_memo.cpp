#include "server/signature_memo.hpp"

#include "obs/metrics.hpp"

namespace mdd::server {

namespace {

template <class Key>
std::size_t approx_signature_bytes(
    const Key&, const std::shared_ptr<const ErrorSignature>& sig) {
  return sizeof(ErrorSignature) +
         sig->n_failing_patterns() *
             (sizeof(std::uint32_t) + sig->n_po_words() * sizeof(Word));
}

/// Restriction to a SHORTER applied window, shape included: the result
/// reports n_patterns() == `n` so it is byte-identical to a fresh
/// simulation over that window. (restrict_signature keeps the original
/// shape — wrong for the memo's determinism contract.)
ErrorSignature restrict_to_window(const ErrorSignature& full, std::size_t n) {
  ErrorSignature out(n, full.n_outputs());
  const auto& patterns = full.failing_patterns();
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    if (patterns[i] >= n) break;  // sorted: nothing later fits either
    out.append(patterns[i], full.mask(i));
  }
  return out;
}

struct MemoMetrics {
  /// Lookups for a truncated window served by restricting a full-window
  /// entry (memory or store tier).
  obs::Counter& window_restricts =
      obs::registry().counter("memo.signature.window_restricts");
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

SignatureMemo::SignatureMemo(std::size_t max_bytes, std::size_t full_window)
    : full_window_(full_window),
      cache_(max_bytes, &approx_signature_bytes<Key>, "memo.signature") {}

void SignatureMemo::lookup_many(
    std::span<const Fault> faults, std::size_t window_patterns,
    std::span<std::shared_ptr<const ErrorSignature>> out) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t k = 0; k < faults.size(); ++k)
    out[k] = lookup_locked(faults[k], window_patterns);
}

std::shared_ptr<const ErrorSignature> SignatureMemo::lookup_locked(
    const Fault& f, std::size_t window_patterns) {
  const Key key{f, window_patterns};
  if (const auto* sig = cache_.find(key)) return *sig;
  // A full-window entry answers any shorter window by restriction — the
  // signature over the first w patterns is a prefix of the full one.
  if (full_window_ != 0 && window_patterns < full_window_) {
    if (const auto* full = cache_.find(Key{f, full_window_})) {
      auto restricted = std::make_shared<const ErrorSignature>(
          restrict_to_window(**full, window_patterns));
      memo_metrics().window_restricts.inc();
      // Admit under the exact key: the batch's remaining datalogs with
      // this window shape get pointer copies.
      cache_.insert(key, restricted);
      return restricted;
    }
  }
  if (dict_ != nullptr && window_patterns <= dict_->n_patterns()) {
    if (auto idx = dict_->find(f)) {
      try {
        auto full =
            std::make_shared<const ErrorSignature>(dict_->decode(*idx));
        memo_metrics().store_hits.inc();
        std::shared_ptr<const ErrorSignature> sig;
        if (window_patterns == dict_->n_patterns()) {
          sig = std::move(full);
        } else {
          sig = std::make_shared<const ErrorSignature>(
              restrict_to_window(*full, window_patterns));
          memo_metrics().window_restricts.inc();
        }
        // Promote into the memory tier: repeat lookups become pointer
        // copies and the clock policy decides how long it stays hot.
        cache_.insert(key, sig);
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
  // The dictionary always simulates the full pattern set, so it pins the
  // session's full-window length when the memo was built without one.
  if (full_window_ == 0 && dict_ != nullptr) full_window_ = dict_->n_patterns();
}

bool SignatureMemo::has_store() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dict_ != nullptr;
}

std::shared_ptr<const store::DictReader> SignatureMemo::store_reader() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dict_;
}

void SignatureMemo::store(const Fault& f, std::size_t window_patterns,
                          std::shared_ptr<const ErrorSignature> sig) {
  std::shared_ptr<store::FaultJournal> journal;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.insert(Key{f, window_patterns}, std::move(sig));
    journal = journal_;
  }
  // Outside the memo lock: the journal has its own mutex and does file
  // I/O. Reaching store() means every serving tier missed and a real
  // simulation was paid — exactly what the next refresh should fold in.
  if (journal != nullptr) journal->record(f);
}

void SignatureMemo::set_journal(std::shared_ptr<store::FaultJournal> journal) {
  std::lock_guard<std::mutex> lock(mutex_);
  journal_ = std::move(journal);
}

CacheStats SignatureMemo::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.stats();
}

}  // namespace mdd::server
