#include "load.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "server/json.hpp"
#include "server/serve.hpp"

namespace perfbench {

using mdd::server::Json;

namespace {

/// Requests per latency group. A group of 100 puts its tail at about p90;
/// on g1k-distinct (~300 requests in the window) that gives three tails to
/// take the median of, where one group of all of them put the tail at
/// p96.5, which hung on the few slowest datalogs a seed drew.
constexpr std::size_t kLatencyGroup = 100;

/// A drained sequence would leave the last slices idle and skew every
/// rate, so the run fails instead.
constexpr const char* kRanOut =
    "request sequence ran out before the end of the window; the corpus "
    "sizes in make_inputs need raising";

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Collects answers from several client threads.
class Recorder {
 public:
  Recorder(Served& served, Clock::time_point start)
      : served_(served), start_(start) {}

  void datalog(std::int64_t id, const Json& item) {
    std::string reports;
    if (const Json* r = item.find("reports")) reports = r->dump();
    const double at = seconds_between(start_, Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    ++served_.attempted;
    served_.datalog_at_s.push_back(at);
    if (item.get_string("status") != "ok") ++served_.not_ok;
    else served_.reports[id].insert(std::move(reports));
  }

  void request(Clock::time_point sent, const Json& response) {
    const Clock::time_point now = Clock::now();
    Answer a;
    a.at_s = seconds_between(start_, now);
    a.latency_ms = 1000.0 * seconds_between(sent, now);
    if (const Json* t = response.find("timings_ms"))
      a.queue_wait_ms = a.latency_ms - t->get_number("total");
    std::lock_guard<std::mutex> lock(mutex_);
    served_.requests.push_back(a);
  }

 private:
  Served& served_;
  Clock::time_point start_;
  std::mutex mutex_;
};

/// Latency median and tail of one sample set. The tail is the highest
/// percentile with at least ten samples beyond it, and never below the
/// median (samples of 20 or fewer).
void latency_of(std::vector<double> v, double& p50, double& tail,
                double& percentile) {
  std::sort(v.begin(), v.end());
  const std::size_t tail_index =
      std::max(v.size() / 2, v.size() > 10 ? v.size() - 11 : 0);
  p50 = median(v);
  tail = v[tail_index];
  percentile = 100.0 * static_cast<double>(tail_index + 1) /
               static_cast<double>(v.size());
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Served serve_diagnose(std::uint16_t port, const std::vector<Request>& requests,
                      std::size_t clients, Clock::time_point start,
                      double seconds, bool cycle) {
  Served s;
  Recorder rec(s, start);
  std::atomic<std::size_t> next{0};
  const std::size_t limit = cycle && seconds > 0 ? SIZE_MAX : requests.size();
  const auto until = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  std::mutex error_mutex;
  std::string error;
  std::vector<std::thread> group;
  for (std::size_t c = 0; c < clients; ++c)
    group.emplace_back([&] {
      try {
        mdd::server::TcpLineClient client("127.0.0.1", port);
        for (;;) {
          if (seconds > 0 && Clock::now() >= until) return;
          const std::size_t i = next.fetch_add(1);
          if (i >= limit) return;
          const Request& r = requests[i % requests.size()];
          const auto sent = Clock::now();
          const Json response = Json::parse(client.roundtrip(r.line));
          rec.request(sent, response);
          rec.datalog(r.datalogs.front(), response);
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(error_mutex);
        error = e.what();
      }
    });
  for (std::thread& t : group) t.join();
  if (!error.empty()) throw std::runtime_error("client: " + error);
  s.wall_s = seconds_between(start, Clock::now());
  s.requests_sent = std::min(next.load(), limit);
  if (s.requests_sent == requests.size() && seconds > 0 && !cycle)
    throw std::runtime_error(kRanOut);
  return s;
}

Served serve_batches(std::uint16_t port, const std::vector<Request>& requests,
                     Clock::time_point start, double seconds) {
  Served s;
  Recorder rec(s, start);
  mdd::server::TcpLineClient client("127.0.0.1", port);
  for (const Request& r : requests) {
    if (seconds_between(start, Clock::now()) >= seconds) break;
    const auto sent = Clock::now();
    client.send_line(r.line);
    for (;;) {
      const Json line = Json::parse(client.recv_line());
      if (line.get_string("op") == "diagnose_batch_item") {
        rec.datalog(
            r.datalogs.at(static_cast<std::size_t>(line.get_number("index"))),
            line);
        continue;
      }
      if (line.get_string("status") != "ok")
        throw std::runtime_error("batch failed: " + line.dump());
      rec.request(sent, line);
      break;
    }
    ++s.requests_sent;
  }
  s.wall_s = seconds_between(start, Clock::now());
  if (s.requests_sent == requests.size()) throw std::runtime_error(kRanOut);
  return s;
}

std::map<std::string, double> registry_counters(std::uint16_t port) {
  mdd::server::TcpLineClient client("127.0.0.1", port);
  const Json r = Json::parse(client.roundtrip("{\"op\":\"metrics\"}"));
  std::map<std::string, double> out;
  if (const Json* m = r.find("metrics"))
    if (const Json* c = m->find("counters"))
      for (const auto& [name, value] : c->as_object())
        out[name] = value.as_number();
  return out;
}

WindowStats window_stats(const Served& served, double ramp_s, double seconds,
                         const std::vector<double>& cpu_at) {
  const std::size_t slices = cpu_at.size() - 1;
  const auto slice_of = [&](double at) -> std::ptrdiff_t {
    if (at < ramp_s) return -1;
    const auto k = static_cast<std::size_t>((at - ramp_s) / seconds *
                                            static_cast<double>(slices));
    return static_cast<std::ptrdiff_t>(std::min(k, slices - 1));
  };
  // Per slice: completions, and the first and last completion time.
  std::vector<double> n(slices, 0.0), first(slices, 0.0), last(slices, 0.0);
  for (double at : served.datalog_at_s)
    if (const auto s = slice_of(at); s >= 0) {
      const auto k = static_cast<std::size_t>(s);
      first[k] = n[k] == 0 ? at : std::min(first[k], at);
      last[k] = std::max(last[k], at);
      ++n[k];
    }
  std::vector<double> pooled;
  double wait_sum = 0.0;
  for (const Answer& a : served.requests)
    if (a.at_s >= ramp_s) {
      pooled.push_back(a.latency_ms);
      wait_sum += a.queue_wait_ms;
    }

  WindowStats w;
  std::vector<double> rates, cpu;
  for (std::size_t k = 0; k < slices; ++k) {
    w.datalogs += n[k];
    // Completions per second between the slice's first and last one: a
    // count over the fixed slice length would be quantized to 1/length.
    if (n[k] >= 2) rates.push_back((n[k] - 1) / (last[k] - first[k]));
    if (n[k] > 0) cpu.push_back((cpu_at[k + 1] - cpu_at[k]) / n[k]);
  }
  w.slice_rates = rates;
  w.datalogs_per_s = median(rates);
  w.cpu_ms_per_datalog = median(cpu);
  if (pooled.empty()) return w;
  w.queue_wait_ms = wait_sum / static_cast<double>(pooled.size());

  // Latency over consecutive groups of kLatencyGroup requests in
  // completion order (the tail is then the same percentile in every
  // group); fewer than two groups' worth is taken as one group.
  const std::size_t groups =
      std::max<std::size_t>(1, pooled.size() / kLatencyGroup);
  const std::size_t per_group = pooled.size() / groups;
  std::vector<double> p50s, tails;
  for (std::size_t g = 0; g < groups; ++g) {
    const auto first =
        pooled.begin() + static_cast<std::ptrdiff_t>(g * per_group);
    const auto last = first + static_cast<std::ptrdiff_t>(per_group);
    double p50 = 0, tail = 0;
    latency_of(std::vector<double>(first, last), p50, tail,
               w.tail_percentile);
    p50s.push_back(p50);
    tails.push_back(tail);
  }
  w.latency_p50_ms = median(p50s);
  w.latency_tail_ms = median(tails);
  w.latency_samples = per_group;
  w.latency_groups = groups;
  return w;
}

}  // namespace perfbench
