// The traced in-process replay.
//
// It runs the served workload again inside the benchmark process, against
// a SessionCache configured like the daemon (same memo budgets, its own
// copy of the store), at the same concurrency. Each datalog calls the
// layers' public functions in the order DiagnosisService::diagnose_one
// uses them, with a span around each call:
//
//   request
//     server.request_parse   Json::parse of the request line
//     sessions.get           SessionCache::get (sessions.load on a miss)
//     diag.datalog_parse     read_datalog
//     diag.context           DiagnosisContext construction + memo attach
//       diag.extract           candidate extraction (the context's trace)
//       diag.baseline          engine set-up (the context's trace)
//     store.warm             warm_solo_from_store (store-backed sessions)
//     diag.solo_warm         warm_solo_signatures, serial
//     diag.rank              diagnose_multiplet
//     server.serialize       reports_to_json + response dump
//
// The daemon computes solo signatures lazily inside the ranking; the
// replay warms them first so the two costs separate. Reports are the same
// bytes either way, which the benchmark checks datalog by datalog.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "fault/collapse.hpp"
#include "server/json.hpp"
#include "server/session_cache.hpp"
#include "spans.hpp"

namespace perfbench {

/// One request line as sent to the daemon. For diagnose requests
/// `datalogs` holds the one datalog id; for diagnose_batch the ids of
/// its items in index order.
struct Request {
  std::string line;
  std::vector<std::int64_t> datalogs;
};

struct ReplayOptions {
  std::size_t cache_bytes = 256ull << 20;
  std::size_t memo_bytes = 256ull << 20;
  std::size_t composite_bytes = 64ull << 20;
  std::string store_dir;
  std::size_t threads = 4;
};

struct DatalogResult {
  std::string reports;  ///< dump of the "reports" value
  double hit_rate = 0.0;
  double precision = 0.0;
  std::size_t n_candidates = 0;
};

class Replay {
 public:
  Replay(const Circuit& circuit, const std::vector<mdd::LoadgenCase>& cases,
         const ReplayOptions& options);

  /// First SessionCache::get for the circuit (a miss), as span
  /// "sessions.load".
  void load_session();

  /// Runs diagnose requests closed-loop on `threads` threads. With
  /// `record` false nothing is kept (warm-up passes).
  void run_diagnose(const std::vector<Request>& requests, bool record);

  /// Runs diagnose_batch requests one at a time, each fanned out over
  /// `threads` item threads, then aggregated (span "volume.aggregate").
  void run_batches(const std::vector<Request>& requests);

  const std::map<std::int64_t, DatalogResult>& results() const {
    return results_;
  }
  std::vector<SpanRecord> spans() const;
  double wall_s() const { return wall_s_; }
  std::size_t datalogs() const { return n_datalogs_; }

 private:
  /// The per-datalog core, spans parented to `parent`: parse, context,
  /// warm, rank. Returns the context's candidate count.
  std::size_t diagnose(SpanLog& log, std::int64_t parent,
                       std::int64_t datalog_id, const std::string& datalog_text,
                       const mdd::server::Session& session,
                       std::vector<mdd::DiagnosisReport>& reports,
                       mdd::Datalog& parsed);
  void keep(std::int64_t datalog_id, const mdd::server::Json& reports,
            const std::vector<mdd::DiagnosisReport>& parsed,
            std::size_t n_candidates);

  const Circuit& circuit_;
  const std::vector<mdd::LoadgenCase>& cases_;
  ReplayOptions options_;
  mdd::CollapsedFaults collapsed_;
  mdd::server::SessionCache cache_;
  std::mutex mutex_;  ///< guards results_ and logs_
  std::map<std::int64_t, DatalogResult> results_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
  double wall_s_ = 0.0;
  std::size_t n_datalogs_ = 0;
};

}  // namespace perfbench
