#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace mdd::obs {

Histogram::Histogram(std::span<const double> upper_bounds)
    : bounds_(upper_bounds.begin(), upper_bounds.end()) {
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    if (!(bounds_[i - 1] < bounds_[i]))
      throw std::invalid_argument(
          "histogram bounds must be strictly increasing");
  const std::size_t n = bounds_.size() + 1;  // + implicit Inf bin
  bin_storage_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  bins_ = {bin_storage_.get(), n};
  for (auto& b : bins_) b.store(0, std::memory_order_relaxed);
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  bins_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::span<const double> latency_buckets_ms() {
  static constexpr std::array<double, 16> kBuckets = {
      0.1, 0.25, 0.5, 1.0,    2.5,    5.0,    10.0,   25.0,
      50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0};
  return kBuckets;
}

Registry::Slot& Registry::resolve(std::string_view name, Kind kind) {
  auto it = slots_.find(name);
  if (it == slots_.end())
    it = slots_.emplace(std::string(name), Slot{kind, nullptr, nullptr,
                                                nullptr, {}, {}})
             .first;
  if (it->second.kind != kind)
    throw std::logic_error("metric '" + std::string(name) +
                           "' already registered as a different kind");
  return it->second;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& slot = resolve(name, Kind::Counter);
  if (!slot.counter) slot.counter = std::make_unique<Counter>();
  return *slot.counter;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& slot = resolve(name, Kind::Gauge);
  if (!slot.gauge) slot.gauge = std::make_unique<Gauge>();
  return *slot.gauge;
}

Histogram& Registry::histogram(std::string_view name,
                               std::span<const double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& slot = resolve(name, Kind::Histogram);
  if (!slot.histogram) slot.histogram = std::make_unique<Histogram>(
      upper_bounds);
  return *slot.histogram;
}

void Registry::set_info(std::string_view name, std::string_view label_key,
                        std::string_view label_value) {
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& slot = resolve(name, Kind::Info);
  slot.info_key = std::string(label_key);
  slot.info_value = std::string(label_value);
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  for (const auto& [name, slot] : slots_) {
    switch (slot.kind) {
      case Kind::Counter:
        snap.counters.push_back({name, slot.counter->value()});
        break;
      case Kind::Gauge:
        snap.gauges.push_back({name, slot.gauge->value()});
        break;
      case Kind::Histogram: {
        const Histogram& h = *slot.histogram;
        HistogramSample s;
        s.name = name;
        s.bounds = h.bounds();
        s.bins.reserve(h.n_bins());
        for (std::size_t i = 0; i < h.n_bins(); ++i)
          s.bins.push_back(h.bin(i));
        s.count = h.count();
        s.sum = h.sum();
        snap.histograms.push_back(std::move(s));
        break;
      }
      case Kind::Info:
        snap.infos.push_back({name, slot.info_key, slot.info_value});
        break;
    }
  }
  return snap;  // map iteration order is already name-sorted
}

Registry& registry() {
  static Registry instance;
  return instance;
}

namespace {

std::string prom_name(const std::string& name) {
  std::string out = name;
  for (char& c : out)
    if (c == '.' || c == '-') c = '_';
  return out;
}

void append_number(std::string& out, double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::abs(v) < 1e15) {
    out += std::to_string(static_cast<std::int64_t>(v));
    return;
  }
  std::ostringstream ss;
  ss << v;
  out += ss.str();
}

}  // namespace

std::string render_prometheus(const Snapshot& snapshot) {
  std::string out;
  for (const CounterSample& c : snapshot.counters) {
    const std::string n = prom_name(c.name);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(c.value) + "\n";
  }
  for (const GaugeSample& g : snapshot.gauges) {
    const std::string n = prom_name(g.name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + std::to_string(g.value) + "\n";
  }
  for (const InfoSample& i : snapshot.infos) {
    const std::string n = prom_name(i.name);
    out += "# TYPE " + n + " gauge\n";
    out += n + "{" + i.label_key + "=\"" + i.label_value + "\"} 1\n";
  }
  for (const HistogramSample& h : snapshot.histograms) {
    const std::string n = prom_name(h.name);
    out += "# TYPE " + n + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.bins[i];
      out += n + "_bucket{le=\"";
      append_number(out, h.bounds[i]);
      out += "\"} " + std::to_string(cumulative) + "\n";
    }
    cumulative += h.bins.empty() ? 0 : h.bins.back();
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
    out += n + "_sum ";
    append_number(out, h.sum);
    out += "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

}  // namespace mdd::obs
