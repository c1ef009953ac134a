#include "server/signature_memo.hpp"

#include <unordered_map>
#include <utility>
#include <vector>

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
  std::vector<std::size_t> misses;  ///< keys the memory tier missed
  std::shared_ptr<const store::DictReader> dict;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t k = 0; k < faults.size(); ++k) {
      if (const auto* sig = cache_.find(faults[k])) {
        out[k] = *sig;
      } else {
        out[k] = nullptr;
        misses.push_back(k);
      }
    }
    dict = dict_;
    if (dict == nullptr) {
      for (std::size_t i = 0; i < misses.size(); ++i) cache_.record_miss();
      return;
    }
  }
  // The store tier decodes outside the lock (the reader is immutable), so
  // concurrent lookups decode in parallel; one re-lock promotes them.
  // A key repeated among the misses decodes once; its later copies read
  // as the memory hit (or the second miss) a serial lookup would count.
  std::unordered_map<Fault, std::size_t, FaultHash> first_miss;
  std::vector<std::pair<std::size_t, std::size_t>> repeats;  ///< (k, first)
  bool failed = false;
  for (const std::size_t k : misses) {
    const auto [it, fresh] = first_miss.try_emplace(faults[k], k);
    if (!fresh) {
      repeats.emplace_back(k, it->second);
      continue;
    }
    const auto idx = dict->find(faults[k]);
    if (!idx) {
      memo_metrics().store_misses.inc();
      continue;
    }
    try {
      out[k] = std::make_shared<const ErrorSignature>(dict->decode(*idx));
      memo_metrics().store_hits.inc();
    } catch (const store::StoreError&) {
      // Structurally impossible after open-time hashing unless the file
      // was truncated/rewritten underneath the mapping. Degrade to
      // simulation permanently rather than rethrowing into a request.
      memo_metrics().store_decode_failures.inc();
      failed = true;
      break;
    }
  }
  for (const auto& [k, first] : repeats) {
    out[k] = out[first];
    if (out[k] == nullptr && !failed) memo_metrics().store_misses.inc();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (failed && dict_ == dict) dict_ = nullptr;
  for (const std::size_t k : misses) {
    if (out[k] == nullptr) {
      cache_.record_miss();
    } else if (first_miss.at(faults[k]) != k) {
      cache_.record_hit();  // a repeat of a key decoded above
    } else {
      // Promote into the memory tier, unless a concurrent lookup or a
      // store() got there first: repeat lookups become pointer copies and
      // the clock policy decides how long the entry stays hot.
      cache_.insert(faults[k], out[k]);
    }
  }
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
