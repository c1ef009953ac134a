#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

std::int64_t next_span_id() {
  static std::atomic<std::int64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

SpanLog::Scope SpanLog::open(std::string name, std::int64_t parent,
                             std::int64_t datalog) {
  const Clock::time_point now = Clock::now();
  spans_.push_back(
      {std::move(name), next_span_id(), parent, datalog, now, now});
  return Scope(*this, spans_.size() - 1);
}

void SpanLog::add(std::string name, std::int64_t parent, std::int64_t datalog,
                  Clock::time_point start, Clock::time_point end) {
  spans_.push_back({std::move(name), next_span_id(), parent, datalog, start,
                    end});
}

std::map<std::string, LayerTotals> layer_totals(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::int64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans)
    if (s.parent >= 0) children[s.parent].push_back(&s);

  std::map<std::string, LayerTotals> out;
  for (const SpanRecord& s : spans) {
    const double total = ms_between(s.start, s.end);
    double covered = 0.0;
    if (auto it = children.find(s.id); it != children.end()) {
      // Union of the children's intervals, clipped to the parent: batch
      // items run on several threads and overlap each other.
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (const SpanRecord* c : it->second)
        iv.emplace_back(std::max(c->start, s.start), std::min(c->end, s.end));
      std::sort(iv.begin(), iv.end());
      Clock::time_point cur_start{}, cur_end{};
      bool open = false;
      for (const auto& [a, b] : iv) {
        if (b <= a) continue;
        if (open && a <= cur_end) {
          cur_end = std::max(cur_end, b);
          continue;
        }
        if (open) covered += ms_between(cur_start, cur_end);
        cur_start = a;
        cur_end = b;
        open = true;
      }
      if (open) covered += ms_between(cur_start, cur_end);
    }
    LayerTotals& t = out[s.name];
    ++t.count;
    t.total_ms += total;
    t.self_ms += std::max(0.0, total - covered);
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<SpanRecord>& spans,
                 Clock::time_point origin) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  for (const SpanRecord& s : spans)
    os << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"datalog\":" << s.datalog
       << ",\"start_ms\":" << ms_between(origin, s.start)
       << ",\"end_ms\":" << ms_between(origin, s.end) << "}\n";
}

}  // namespace perfbench
