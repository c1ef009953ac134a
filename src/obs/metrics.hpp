// openmdd — process-wide metrics registry.
//
// The measurement substrate for the serving layer: named monotonic
// counters, gauges, and fixed-bucket latency histograms, all updated with
// relaxed atomics, so a hot path pays one RMW per event and no lock is
// ever taken after a metric handle has been resolved. Each counter is one
// atomic shared by every thread (a separate small heap object, so
// neighbouring counters may share a cache line): the RMW is cheap only
// while one thread at a time bumps it. Per-candidate hot loops count in
// bulk — one inc(n) per batch — rather than once per event.
// Registration (name → handle) takes a mutex once; instrument sites cache
// the returned reference, typically in a function-local static:
//
//     static obs::Counter& c = obs::registry().counter("fsim.signatures");
//     c.inc();
//
// Names are label-free dotted paths ("server.request_ms"); the
// Prometheus exposition rewrites '.' to '_' (dots are not legal there).
// Snapshots are point-in-time copies, safe to take while writers run;
// counter reads are monotonic, histogram bins may be mid-update relative
// to each other (sum/count can trail by in-flight observations — fine
// for monitoring, documented here so nobody asserts exactness).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mdd::obs {

/// Monotonic event count. Relaxed increments; value() is a point read.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous level (queue depth, resident bytes). Signed so transient
/// decrements below an initial set() cannot wrap.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-boundary histogram with atomic bins. Boundaries are inclusive
/// upper bounds ("le"), strictly increasing; one implicit +Inf bin is
/// appended. observe() is one binary search plus two relaxed RMWs.
class Histogram {
 public:
  explicit Histogram(std::span<const double> upper_bounds);

  void observe(double value);

  std::size_t n_bins() const { return bins_.size(); }  ///< bounds + Inf
  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t bin(std::size_t i) const {
    return bins_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> bin_storage_;
  std::span<std::atomic<std::uint64_t>> bins_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default latency boundaries (milliseconds) shared by the request,
/// queue-wait, and stage histograms: ~1–2 bins per decade, 100µs..10s.
std::span<const double> latency_buckets_ms();

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};
struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
};
struct HistogramSample {
  std::string name;
  std::vector<double> bounds;       ///< upper bounds, +Inf implicit
  std::vector<std::uint64_t> bins;  ///< bounds.size() + 1 entries
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// A Prometheus-style info series: constant value 1 with one identifying
/// label ("which kernel / build / config is this process running").
struct InfoSample {
  std::string name;
  std::string label_key;
  std::string label_value;
};

/// Point-in-time copy of a registry, sorted by name within each kind.
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  std::vector<InfoSample> infos;
};

/// Named metric registry. Handles are created on first use and live as
/// long as the registry; the same name always returns the same handle.
/// Asking for an existing name as a different kind throws
/// std::logic_error (a misspelled instrument site, not a runtime input).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `upper_bounds` is consulted only on first creation.
  Histogram& histogram(std::string_view name,
                       std::span<const double> upper_bounds);
  /// Latency histogram with the shared millisecond buckets.
  Histogram& latency(std::string_view name) {
    return histogram(name, latency_buckets_ms());
  }

  /// Sets (or replaces) an info series: rendered as
  /// `name{label_key="label_value"} 1`. Unlike the handle-based metrics
  /// this is set-once-per-change state, not a hot-path instrument.
  void set_info(std::string_view name, std::string_view label_key,
                std::string_view label_value);

  Snapshot snapshot() const;

 private:
  enum class Kind { Counter, Gauge, Histogram, Info };
  struct Slot {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::string info_key;
    std::string info_value;
  };

  Slot& resolve(std::string_view name, Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Slot, std::less<>> slots_;
};

/// The process-wide registry every instrument site records into.
Registry& registry();

/// Prometheus text exposition (format 0.0.4) of a snapshot: '.' in names
/// becomes '_', histograms render as cumulative `_bucket{le="..."}`
/// series plus `_sum`/`_count`, infos as `name{key="value"} 1` gauges.
std::string render_prometheus(const Snapshot& snapshot);

}  // namespace mdd::obs
