// Span recording for the traced in-process replay.
//
// A span is (name, start, end, parent, datalog id). Each replay thread
// writes into its own SpanLog, so recording takes no lock; the logs are
// merged once the replay ends and written out as JSON lines. Self time is
// a span's duration minus the part of it that its child spans cover.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = -1;   ///< -1: root
  std::int64_t datalog = -1;  ///< -1: not tied to one datalog
  Clock::time_point start{};
  Clock::time_point end{};
};

/// Span ids are unique across every log of one process, so a parent may
/// live in another thread's log (a batch and its items).
std::int64_t next_span_id();

class SpanLog {
 public:
  /// RAII span; closes on destruction or at close().
  class Scope {
   public:
    Scope(SpanLog& log, std::size_t index)
        : log_(&log), index_(index), id_(log.spans_[index].id) {}
    Scope(Scope&& o) noexcept
        : log_(std::exchange(o.log_, nullptr)), index_(o.index_), id_(o.id_) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;
    ~Scope() { close(); }
    void close() {
      if (log_ != nullptr)
        std::exchange(log_, nullptr)->spans_[index_].end = Clock::now();
    }
    std::int64_t id() const { return id_; }

   private:
    SpanLog* log_;
    std::size_t index_;
    std::int64_t id_;
  };

  Scope open(std::string name, std::int64_t parent, std::int64_t datalog);
  /// Records an already finished interval (child stages reported by the
  /// library's own obs::Trace).
  void add(std::string name, std::int64_t parent, std::int64_t datalog,
           Clock::time_point start, Clock::time_point end);

  std::vector<SpanRecord>& spans() { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
};

struct LayerTotals {
  std::size_t count = 0;
  double self_ms = 0.0;
  double total_ms = 0.0;
};

/// Self time per span name across all `spans` (children matched by
/// parent id, overlapping children counted once).
std::map<std::string, LayerTotals> layer_totals(
    const std::vector<SpanRecord>& spans);

/// Writes one JSON object per span (times in ms from `origin`).
void write_spans(const std::string& path, const std::vector<SpanRecord>& spans,
                 Clock::time_point origin);

}  // namespace perfbench
