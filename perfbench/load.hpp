// The served side of a run: closed-loop clients against the daemon over
// TCP, and the end-to-end statistics of the measured window.
//
// The load starts with a ramp that is served and checked but not
// measured: on a virtual machine the first second after idle runs several
// times slower while the host schedules the vCPUs back in. The measured
// window after it is cut into equal time slices for rates, and into
// groups of requests for latency; the median over slices (groups) is
// reported, so a host stall that hits one of them does not set the
// result.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "replay.hpp"
#include "spans.hpp"

namespace perfbench {

struct Answer {
  double at_s = 0.0;  ///< completion, seconds from the start of the load
  double latency_ms = 0.0;
  double queue_wait_ms = 0.0;  ///< latency minus the daemon's timings total
};

struct Served {
  std::vector<Answer> requests;       ///< per request (per batch if volume)
  std::vector<double> datalog_at_s;   ///< completion of each datalog answer
  std::size_t attempted = 0;          ///< datalogs answered
  std::size_t not_ok = 0;             ///< datalogs answered other than ok
  std::size_t requests_sent = 0;      ///< prefix of the request sequence
  double wall_s = 0.0;
  /// Distinct "reports" bytes seen per datalog id.
  std::map<std::int64_t, std::set<std::string>> reports;
};

/// Closed loop over diagnose requests: `clients` connections, each sending
/// its next request when the previous answer arrives, until `seconds`
/// after `start` (0 = one pass over `requests`). With `cycle` the
/// sequence repeats; without it, a sequence that runs out before
/// `seconds` throws.
Served serve_diagnose(std::uint16_t port, const std::vector<Request>& requests,
                      std::size_t clients, Clock::time_point start,
                      double seconds, bool cycle);

/// One connection sending streamed diagnose_batch requests back to back
/// until `seconds` after `start`; throws if the sequence runs out first.
Served serve_batches(std::uint16_t port, const std::vector<Request>& requests,
                     Clock::time_point start, double seconds);

/// Counters of the daemon's registry (`op=metrics`).
std::map<std::string, double> registry_counters(std::uint16_t port);

struct WindowStats {
  double datalogs = 0.0;  ///< datalogs completed in the measured window
  double datalogs_per_s = 0.0;
  std::vector<double> slice_rates;  ///< datalogs/s per slice
  double cpu_ms_per_datalog = 0.0;
  double latency_p50_ms = 0.0;
  /// The highest percentile with at least ten samples beyond it.
  double latency_tail_ms = 0.0;
  double tail_percentile = 0.0;
  std::size_t latency_samples = 0;  ///< requests per latency group
  std::size_t latency_groups = 0;
  double queue_wait_ms = 0.0;       ///< mean
};

/// Statistics of the window [ramp_s, served.wall_s], cut into
/// `cpu_at.size() - 1` slices at ramp_s + k * seconds / slices (the last
/// slice runs to the end of the load). A slice's rate is its completions
/// per second between its first and last completion. `cpu_at` holds the
/// daemon's CPU time at each boundary and at the end. Latency is taken
/// per group of 100 consecutive requests (one group when the window has
/// fewer than 200): each group's median and its highest percentile with
/// at least ten samples beyond it, then the median over groups.
WindowStats window_stats(const Served& served, double ramp_s, double seconds,
                         const std::vector<double>& cpu_at);

double median(std::vector<double> v);

}  // namespace perfbench
