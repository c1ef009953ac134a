#include "diag/diagnosis.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"

namespace mdd {

namespace {

PatternSet make_window(const PatternSet& patterns, std::size_t n_applied) {
  if (n_applied >= patterns.n_patterns()) return patterns;
  PatternSet window(0, patterns.n_signals());
  for (std::size_t p = 0; p < n_applied; ++p)
    window.append(patterns.pattern(p));
  return window;
}

struct DiagMetrics {
  obs::Counter& contexts = obs::registry().counter("diag.contexts");
  /// Solo slots looked up: every candidate once, in the context's batch.
  obs::Counter& solo_lookups = obs::registry().counter("diag.solo_lookups");
  obs::Counter& solo_computes =
      obs::registry().counter("diag.solo_computes");
  /// Candidates a cancelled warm left cold (they fill lazily later).
  obs::Counter& warm_dropped = obs::registry().counter("diag.warm_dropped");
  /// Composite (multiplet) signatures actually evaluated; the ones the
  /// composite memo answered instead count as memo.composite.hits.
  obs::Counter& composite_evals =
      obs::registry().counter("diag.composite_evals");
  /// Wall time of one composite propagation (the multiplet search's
  /// dominant stage).
  obs::Histogram& composite_ms = obs::registry().latency("diag.composite_ms");
};

DiagMetrics& diag_metrics() {
  static DiagMetrics m;
  return m;
}

}  // namespace

DiagnosisContext::DiagnosisContext(
    const Netlist& netlist, const PatternSet& patterns,
    const Datalog& datalog, const CandidateOptions& candidate_options,
    const PatternSet* precomputed_good,
    std::shared_ptr<const PropagatorBaseline> baseline, obs::Trace* trace)
    : netlist_(&netlist),
      datalog_(&datalog),
      patterns_(&patterns),
      precomputed_good_(precomputed_good),
      window_(make_window(patterns, datalog.n_patterns_applied)),
      observed_(restrict_signature(datalog.observed,
                                   datalog.n_patterns_applied)) {
  diag_metrics().contexts.inc();
  {
    std::optional<obs::Trace::Span> span;
    if (trace != nullptr) span.emplace(trace->span("baseline"));
    // One engine on the full set whatever the window, so every context
    // shares the session's baseline; solo queries simulate just the window.
    baseline_ = baseline != nullptr
                    ? std::move(baseline)
                    : SingleFaultPropagator::make_baseline(netlist, patterns);
    propagator_.emplace(netlist, patterns, baseline_);
  }
  {
    std::optional<obs::Trace::Span> span;
    if (trace != nullptr) span.emplace(trace->span("extract"));
    // The traced patterns' good values are the baseline's rows.
    pool_ = extract_candidates(netlist, window_, datalog, candidate_options,
                               baseline_.get());
  }
  for (std::size_t i = 0; i < pool_.faults.size(); ++i)
    solo_cache_.emplace_back();
  // Static contexts always admit the cross-case memos: cut_unobserved
  // tailors their full-set, pre-masking entries to this datalog.
  memo_attachable_ = true;
}

DiagnosisContext::DiagnosisContext(const Netlist& netlist,
                                   const PatternSet& launch,
                                   const PatternSet& capture,
                                   const Datalog& datalog,
                                   const CandidateOptions& candidate_options)
    : netlist_(&netlist),
      datalog_(&datalog),
      window_(make_window(capture, datalog.n_patterns_applied)),
      launch_window_(make_window(launch, datalog.n_patterns_applied)),
      observed_(restrict_signature(datalog.observed,
                                   datalog.n_patterns_applied)),
      pool_(extract_tdf_candidates(netlist, launch_window_, window_, datalog,
                                   candidate_options)),
      pair_fsim_(std::in_place, netlist, launch_window_, window_),
      propagator_(std::in_place, netlist, launch_window_, window_),
      solo_cache_(pool_.faults.size()) {}

/// The cut takes the window's shape, byte-identical to simulating over
/// the window and subtracting the mask.
std::shared_ptr<const ErrorSignature> DiagnosisContext::cut_unobserved(
    std::shared_ptr<const ErrorSignature> pre) const {
  const std::size_t n = window_.n_patterns();
  const ErrorSignature& masked = datalog_->masked;
  if (pre->n_patterns() == n && masked.empty()) return pre;
  ErrorSignature cut = signature_prefix(*pre, n);
  if (!masked.empty()) cut = signature_difference(cut, masked);
  return std::make_shared<const ErrorSignature>(std::move(cut));
}

void DiagnosisContext::lookup_solo_batch() {
  if (solo_batch_done_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(solo_batch_mutex_);
  if (solo_batch_done_.load(std::memory_order_relaxed)) return;
  const std::size_t n = pool_.faults.size();
  std::size_t hits = 0;
  if (solo_store_ != nullptr) {
    std::vector<std::shared_ptr<const ErrorSignature>> found(n);
    solo_store_->lookup_many(pool_.faults, found);
    // A store miss must leave the slot cold for the warm/lazy fill, so
    // the lookup and the cut run OUTSIDE the call_once and only a
    // hit executes the callable, a nothrow move. Nothing may throw
    // through a once_flag: TSan's pthread_once interceptor never resets
    // an exceptionally-unwound flag (glibc's unwind handler does), so
    // the next call_once on that slot blocks forever under the
    // sanitizer. A throw here leaves the batch undone; the next query
    // retries it, and slots already filled keep their value.
    for (std::size_t i = 0; i < n; ++i) {
      if (found[i] == nullptr) continue;
      offer_solo(i, std::move(found[i]));
      ++hits;
    }
  }
  // One lookup per candidate, store or not: lookups minus computes (both
  // exported) is the number of slots served without simulation.
  diag_metrics().solo_lookups.inc(n);
  solo_batch_hits_ = hits;
  solo_batch_done_.store(true, std::memory_order_release);
}

void DiagnosisContext::offer_solo(
    std::size_t i, std::shared_ptr<const ErrorSignature> sig) {
  auto cut = cut_unobserved(std::move(sig));
  SoloSlot& slot = solo_cache_[i];
  std::call_once(slot.once, [&] { slot.sig = std::move(cut); });
}

void DiagnosisContext::finish_solo_batch(std::size_t hits) {
  std::lock_guard<std::mutex> lock(solo_batch_mutex_);
  if (solo_batch_done_.load(std::memory_order_relaxed)) return;
  diag_metrics().solo_lookups.inc(pool_.faults.size());
  solo_batch_hits_ = hits;
  solo_batch_done_.store(true, std::memory_order_release);
}

const ErrorSignature& DiagnosisContext::fill_solo(
    std::size_t i, SingleFaultPropagator* prop) {
  lookup_solo_batch();
  SoloSlot& slot = solo_cache_[i];
  std::call_once(slot.once, [&] {
    const Fault& f = pool_.faults[i];
    // Only the window is simulated: a full-set solo would cost a truncated
    // window 2-3x its own patterns' price (EXPERIMENTS "One key per
    // fault"). So only a full window yields truth the store may hold.
    const std::size_t n = window_.n_patterns();
    std::shared_ptr<const ErrorSignature> pre;
    if (prop != nullptr) {
      pre = std::make_shared<const ErrorSignature>(prop->signature(f, n));
    } else {
      // The shared propagator's scratch state needs exclusive access.
      std::lock_guard<std::mutex> lock(propagator_mutex_);
      pre = std::make_shared<const ErrorSignature>(
          propagator_->signature(f, n));
    }
    solo_computes_.fetch_add(1, std::memory_order_relaxed);
    diag_metrics().solo_computes.inc();
    if (solo_store_ != nullptr && n == patterns_->n_patterns())
      solo_store_->store(f, pre);
    slot.sig = cut_unobserved(std::move(pre));
  });
  return *slot.sig;
}

const ErrorSignature& DiagnosisContext::solo_signature(std::size_t i) {
  return fill_solo(i, nullptr);
}

std::size_t DiagnosisContext::warm_solo_from_store() {
  if (solo_store_ == nullptr) return 0;
  lookup_solo_batch();
  const std::size_t warmed = solo_batch_hits_ + solo_compute_count();
  if (warmed > 0) {
    static obs::Counter& c =
        obs::registry().counter("diag.solo_store_warmed");
    c.inc(warmed);
  }
  return warmed;
}

void DiagnosisContext::warm_solo_signatures(const ExecPolicy& policy,
                                            const CancelToken* cancel) {
  const std::size_t n = pool_.faults.size();
  lookup_solo_batch();
  if (solo_batch_hits_ == n) return;  // the store answered every slot
  if (policy.is_serial()) {
    CancelCheckpoint cp(cancel, 8);
    for (std::size_t i = 0; i < n; ++i) {
      if (cp()) {
        diag_metrics().warm_dropped.inc(n - i);
        return;
      }
      fill_solo(i, nullptr);
    }
    return;
  }
  parallel_for_ranges(policy, n,
                      [&](std::size_t begin, std::size_t end, std::size_t) {
                        // One private event engine per worker: identical
                        // per-query results, no shared scratch. The good
                        // machine is read-only, so workers share it.
                        SingleFaultPropagator prop =
                            pair_mode()
                                ? SingleFaultPropagator(*netlist_,
                                                        launch_window_,
                                                        window_)
                                : SingleFaultPropagator(*netlist_, *patterns_,
                                                        baseline_);
                        CancelCheckpoint cp(cancel, 8);
                        for (std::size_t i = begin; i < end; ++i) {
                          if (cp()) {
                            diag_metrics().warm_dropped.inc(end - i);
                            return;
                          }
                          fill_solo(i, &prop);
                        }
                      });
}

void DiagnosisContext::warm_solo_signatures(
    std::span<DiagnosisContext* const> contexts, std::size_t threads,
    const CancelToken* cancel) {
  if (contexts.empty()) return;
  const DiagnosisContext& first = *contexts.front();
  for (const DiagnosisContext* c : contexts)
    if (c->pair_mode() || c->netlist_ != first.netlist_ ||
        c->patterns_ != first.patterns_ || c->solo_store_ != first.solo_store_)
      throw std::invalid_argument(
          "warm_solo_signatures: contexts must be static and share one "
          "netlist, pattern set and store");
  if (contexts.size() == 1) {
    contexts.front()->warm_solo_signatures(ExecPolicy{threads}, cancel);
    return;
  }
  const auto cancelled = [cancel] {
    return cancel != nullptr && cancel->cancelled();
  };
  // Each thread calls make_worker() once, then feeds the worker it
  // returns chunks [b, e) of [0, n) claimed off one counter.
  const auto on_chunks = [&](std::size_t n, std::size_t chunk,
                             bool cancellable, const auto& make_worker) {
    if (n == 0) return;
    std::atomic<std::size_t> next{0};
    run_on_threads(std::min(threads, (n + chunk - 1) / chunk), [&] {
      auto work = make_worker();
      for (std::size_t b;
           !(cancellable && cancelled()) &&
           (b = next.fetch_add(chunk, std::memory_order_relaxed)) < n;)
        work(b, std::min(n, b + chunk));
    });
  };

  // Every (fault, context, slot), grouped by fault: group g is the
  // distinct fault keys[g] and its entries [starts[g], starts[g + 1]).
  struct Entry {
    Fault fault;
    std::uint32_t ctx;
    std::uint32_t slot;
  };
  std::vector<Entry> entries;
  for (std::size_t c = 0; c < contexts.size(); ++c) {
    const std::vector<Fault>& faults = contexts[c]->pool_.faults;
    for (std::size_t i = 0; i < faults.size(); ++i)
      entries.push_back({faults[i], static_cast<std::uint32_t>(c),
                         static_cast<std::uint32_t>(i)});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.fault < b.fault; });
  std::vector<Fault> keys;
  std::vector<std::size_t> starts;
  std::vector<std::size_t> window;  ///< longest window of the group
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const std::size_t n = contexts[entries[k].ctx]->window_.n_patterns();
    if (k == 0 || entries[k].fault != keys.back()) {
      keys.push_back(entries[k].fault);
      starts.push_back(k);
      window.push_back(n);
    } else {
      window.back() = std::max(window.back(), n);
    }
  }
  starts.push_back(entries.size());
  const std::size_t n_keys = keys.size();
  const auto group = [&](std::size_t g) {
    return std::span<const Entry>(entries).subspan(starts[g],
                                                   starts[g + 1] - starts[g]);
  };

  // One lookup per distinct fault, in chunks across the threads; hits go
  // straight into every slot that wants them.
  std::vector<std::shared_ptr<const ErrorSignature>> found(n_keys);
  SoloSignatureStore* const store = first.solo_store_;
  if (store != nullptr) {
    on_chunks(n_keys, 256, false, [&] {
      return [&](std::size_t b, std::size_t e) {
        store->lookup_many(std::span<const Fault>(keys).subspan(b, e - b),
                           std::span(found).subspan(b, e - b));
        for (std::size_t g = b; g < e; ++g)
          if (found[g] != nullptr)
            for (const Entry& x : group(g))
              contexts[x.ctx]->offer_solo(x.slot, found[g]);
      };
    });
  }
  std::vector<std::size_t> hits(contexts.size(), 0);
  std::vector<std::size_t> misses;
  std::size_t miss_slots = 0;
  for (std::size_t g = 0; g < n_keys; ++g) {
    if (found[g] != nullptr) {
      for (const Entry& e : group(g)) ++hits[e.ctx];
    } else {
      misses.push_back(g);
      miss_slots += group(g).size();
    }
  }
  found = {};
  for (std::size_t c = 0; c < contexts.size(); ++c)
    contexts[c]->finish_solo_batch(hits[c]);

  // Each miss simulated once over its longest window; only a full window
  // is truth the store may hold. One private event engine per thread:
  // identical per-query results, no shared scratch. The good machine is
  // read-only, so the engines share it.
  const std::size_t full = first.patterns_->n_patterns();
  std::atomic<std::size_t> filled{0};
  on_chunks(misses.size(), 8, true, [&] {
    return [&, prop = SingleFaultPropagator(*first.netlist_, *first.patterns_,
                                            first.baseline_)](
               std::size_t b, std::size_t e) mutable {
      for (std::size_t m = b; m < e; ++m) {
        const std::size_t g = misses[m];
        const auto pre = std::make_shared<const ErrorSignature>(
            prop.signature(keys[g], window[g]));
        diag_metrics().solo_computes.inc();
        // Counted once, in a context whose window was simulated.
        for (const Entry& x : group(g))
          if (contexts[x.ctx]->window_.n_patterns() == window[g]) {
            contexts[x.ctx]->solo_computes_.fetch_add(
                1, std::memory_order_relaxed);
            break;
          }
        if (store != nullptr && window[g] == full) store->store(keys[g], pre);
        for (const Entry& x : group(g))
          contexts[x.ctx]->offer_solo(x.slot, pre);
        filled.fetch_add(group(g).size(), std::memory_order_relaxed);
      }
    };
  });
  if (filled.load() < miss_slots)
    diag_metrics().warm_dropped.inc(miss_slots - filled.load());
}

ErrorSignature DiagnosisContext::multiplet_signature(
    std::span<const Fault> multiplet) {
  // Static engines simulate the full pattern set, the memo's shareable
  // shape; this context's unobserved bits come off at the end.
  std::shared_ptr<const ErrorSignature> sig;
  const CompositeKey key(multiplet);
  if (reference_composites_) {
    diag_metrics().composite_evals.inc();
    std::lock_guard<std::mutex> lock(propagator_mutex_);
    if (pair_mode()) {
      sig = std::make_shared<const ErrorSignature>(
          pair_fsim_->signature(multiplet));
    } else {
      if (!fsim_.has_value()) {
        if (precomputed_good_ != nullptr)
          fsim_.emplace(*netlist_, *patterns_, *precomputed_good_);
        else
          fsim_.emplace(*netlist_, *patterns_);
      }
      sig = std::make_shared<const ErrorSignature>(fsim_->signature(multiplet));
    }
  } else {
    sig = composites_->lookup(key);
    if (sig == nullptr) {
      diag_metrics().composite_evals.inc();
      const auto t0 = std::chrono::steady_clock::now();
      {
        std::lock_guard<std::mutex> lock(propagator_mutex_);
        sig = std::make_shared<const ErrorSignature>(
            propagator_->signature(multiplet));
      }
      diag_metrics().composite_ms.observe(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count());
      composites_->store(key, sig);
    }
  }
  return *cut_unobserved(std::move(sig));
}

std::vector<Fault> DiagnosisContext::indistinguishable_from(std::size_t i) {
  std::vector<Fault> out;
  const ErrorSignature& ref = solo_signature(i);
  for (std::size_t j = 0; j < pool_.faults.size(); ++j) {
    if (j == i) continue;
    if (solo_signature(j) == ref) out.push_back(pool_.faults[j]);
  }
  return out;
}

}  // namespace mdd
