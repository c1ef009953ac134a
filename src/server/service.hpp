// openmdd — diagnosis-as-a-service core.
//
// `DiagnosisService` is the transport-independent heart of the daemon:
// decoded JSON requests go in, JSON responses come out. Requests admitted
// through submit() flow through a bounded job queue (full queue → an
// immediate `overloaded` response — explicit backpressure, not unbounded
// latency) and execute on a core::ThreadPool whose workers drain the
// queue until shutdown. Each request carries an optional deadline,
// counted from ADMISSION (queue wait spends budget): expired-in-queue
// jobs are answered `timeout` without running, and in-flight work is cut
// short cooperatively via CancelToken checkpoints inside the diagnosers,
// returning whatever partial result was found.
//
// Protocol (one JSON object per line; see DESIGN.md §7):
//   {"id":7,"op":"diagnose","netlist":"c.bench","patterns":"c.pat",
//    "datalog":"datalog\napplied 128\nfail 3 : z1\n",
//    "method":"multiplet","deadline_ms":2000}
//   -> {"id":7,"status":"ok","cache":"hit","reports":[...],
//       "timings_ms":{...}}
//
// Volume mode (`op=diagnose_batch`) diagnoses a STREAM of datalogs for
// one session in a single request: the session is pinned (no mid-batch
// eviction), baseline/dictionary/memos warm once, and private threads
// take the datalogs in waves of at most 2 x threads — open every
// context, one shared solo warm that simulates each distinct candidate
// fault of the wave at most once, rank — while sharing the session's
// SignatureMemo/CompositeMemo. Single diagnose runs the same three steps
// with one context. Per-datalog "reports" are
// byte-identical to N separate `diagnose` requests; the response adds a
// cross-datalog volume summary (systematic vs. random recurrence, net
// hit histograms — see diag/volume.hpp). With `"stream":true` on a
// transport that supports it, each per-datalog result is emitted as its
// own JSONL line (`op=diagnose_batch_item`, in index order) before the
// summary response.
//
// Other ops: ping, stats, metrics (obs-registry snapshot as JSON), sleep
// (test/load-shaping aid). Responses carry status ok | timeout |
// overloaded | error. A request with `"trace": true` gets a per-stage
// wall-time breakdown attached to its response (see obs/trace.hpp);
// requests slower than ServiceOptions::slow_ms additionally emit one
// structured JSON line to the slow log.
#pragma once

#include <chrono>
#include <mutex>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/cancel.hpp"
#include "core/exec.hpp"
#include "core/thread_pool.hpp"
#include "diag/method.hpp"
#include "obs/trace.hpp"
#include "server/job_queue.hpp"
#include "server/json.hpp"
#include "server/session_cache.hpp"

namespace mdd::server {

/// The largest `deadline_ms` a request may carry: 1e12 ms (about 31.7
/// years). Past it, admission time plus the budget would overflow
/// steady_clock's signed 64-bit nanosecond count and wrap negative.
constexpr double kMaxDeadlineMs = 1e12;

/// The largest value of a request's count fields (`min_recurrences`,
/// `top_k`): 2^53, the largest double below which every integer is exact.
constexpr double kMaxRequestCount = 9007199254740992.0;

/// Deadline budget of a request, shared by every admission path so a
/// given `deadline_ms` means the same instant on stdio, TCP, and direct
/// handle() calls (microsecond resolution; the old handle() path
/// truncated to whole milliseconds, turning 0.5 into "no deadline").
/// Absent or 0 falls back to `default_deadline` (0 = none → nullopt).
/// Negative, NaN, non-numeric values and values above kMaxDeadlineMs
/// throw std::invalid_argument.
std::optional<std::chrono::steady_clock::duration> deadline_budget(
    const Json& request,
    std::chrono::milliseconds default_deadline = std::chrono::milliseconds{
        0});

struct ServiceOptions {
  /// Worker threads executing queued requests (one request per worker at
  /// a time; independent of intra-request parallelism below).
  std::size_t n_workers = 2;
  /// Job-queue capacity; admission beyond it answers `overloaded`.
  std::size_t queue_depth = 64;
  /// Session-cache budget (parsed circuits + good responses).
  std::size_t cache_bytes = 256ull << 20;
  /// Per-session solo-signature memo budget (cross-request amortization).
  std::size_t memo_bytes = 256ull << 20;
  /// Per-session composite-signature memo budget (multiplet search).
  std::size_t composite_bytes = 64ull << 20;
  /// Directory of prebuilt dictionary stores (`openmdd dict build`).
  /// Non-empty: each session load looks up its content-hash-named store
  /// file and, when present and valid, serves candidate signatures from
  /// the mmap instead of simulating them — warm cold starts across
  /// daemon restarts. Empty (default): no persistent store.
  std::string store_dir;
  /// Intra-request parallelism for the solo-signature warm. Serial by
  /// default: with many concurrent requests, request-level parallelism
  /// is the better use of the cores.
  ExecPolicy exec{};
  /// Applied when a request carries no deadline_ms; zero = no deadline.
  /// Above kMaxDeadlineMs the constructor throws std::invalid_argument.
  std::chrono::milliseconds default_deadline{0};
  /// Requests slower than this (end-to-end, queue wait included) emit one
  /// structured JSON line to `slow_log`; 0 disables.
  double slow_ms = 0.0;
  /// Destination for slow-request records; null means std::cerr. The
  /// stream must outlive the service and tolerate worker-thread writes
  /// (the service serializes them internally).
  std::ostream* slow_log = nullptr;
  /// Simulation kernel ("scalar", "avx2", "avx512"). Empty = keep the
  /// process-wide default (CPUID best, or MDD_KERNEL). An unavailable
  /// name makes the service constructor throw std::invalid_argument.
  /// Applied process-wide before any session is built; the active choice
  /// is reported by ping/stats and the fsim_kernel info metric.
  std::string kernel;
  /// Datalog-level parallelism inside one diagnose_batch request. The
  /// batch occupies a single queue worker and spawns its own threads —
  /// the pool's nested-parallelism guard would serialize parallel_for —
  /// so this is independent of n_workers. 0 = use n_workers. A request's
  /// own "threads" field overrides this per batch, clamped to the batch
  /// size and to max(this default, hardware threads).
  std::size_t batch_threads = 0;
};

class DiagnosisService {
 public:
  /// Streaming sink for multi-response ops (diagnose_batch with
  /// "stream":true): invoked once per intermediate JSONL line, from the
  /// executing thread, strictly before the final response. Must be
  /// thread-safe against concurrent responses, like `done`.
  using Emit = std::function<void(const Json&)>;

  explicit DiagnosisService(const ServiceOptions& options = {});
  ~DiagnosisService();

  DiagnosisService(const DiagnosisService&) = delete;
  DiagnosisService& operator=(const DiagnosisService&) = delete;

  /// Queues `request`; `done` is invoked exactly once with the response —
  /// from a worker thread normally, or inline right here when the queue
  /// rejects (overloaded / shutting down). `done` must be thread-safe
  /// against other responses (the serve loops serialize on a write
  /// mutex). `emit`, if given, receives intermediate streamed lines.
  void submit(Json request, std::function<void(Json)> done, Emit emit = {});

  /// Executes a request synchronously on the calling thread, bypassing
  /// queue and deadline admission (tests, one-shot tools). A null
  /// `cancel` honors the request's own deadline_ms, if any.
  Json handle(const Json& request, const CancelToken* cancel = nullptr,
              const Emit& emit = {});

  /// Stops admission and joins the workers (queued jobs still drain and
  /// answer). Idempotent; the destructor calls it.
  void shutdown();

  /// The op=stats body: every count read from one registry snapshot
  /// (process-wide: there is one service per daemon), every level from
  /// the object that owns it, plus this service's configuration.
  Json stats_json() const;
  SessionCache& cache() { return cache_; }
  const ServiceOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;
  struct Job {
    Json request;
    std::function<void(Json)> done;
    Emit emit;  ///< streamed intermediate lines; may be empty
    Clock::time_point admitted{};  ///< for the queue-wait histogram
    Clock::time_point deadline{};
    bool has_deadline = false;
  };

  /// One datalog reference inside a batch (inline text or file path).
  struct DatalogInput {
    bool is_file = false;
    std::string value;
  };
  /// One datalog on its way through open → warm → rank. `ctx` points
  /// into `log`, so an item never moves once opened; `reports` serialize
  /// to the exact "reports" value of the single-request path.
  struct Item {
    Datalog log;
    std::unique_ptr<DiagnosisContext> ctx;
    std::vector<DiagnosisReport> reports;
    bool timed_out = false;
    std::string error;        ///< set when open or rank threw
    double t_context = 0.0;   ///< datalog parse + context, ms
    double t_diagnose = 0.0;  ///< ranking, ms
  };

  void drain();  ///< worker loop: pop → execute → done(response)
  Json dispatch(const Json& request, const CancelToken* cancel,
                obs::Trace& trace, const Emit& emit);
  Json handle_diagnose(const Json& request, const CancelToken* cancel,
                       obs::Trace& trace);
  Json handle_diagnose_batch(const Json& request, const CancelToken* cancel,
                             obs::Trace& trace, const Emit& emit);
  /// Step one of a diagnosis, shared by handle_diagnose and the batch
  /// waves: parse the datalog and build its context with the session
  /// memos attached. Throws on parse errors.
  void open_item(const Session& session, const DatalogInput& input,
                 Item& item, obs::Trace& trace);
  /// Step three (step two is DiagnosisContext's many-context solo warm):
  /// run every method of `methods` on the opened item.
  void rank_item(Item& item, std::span<const DiagnosisMethod> methods,
                 const CancelToken* cancel, obs::Trace& trace);
  Json handle_sleep(const Json& request, const CancelToken* cancel);
  void count_status(const Json& response);
  /// Post-dispatch bookkeeping shared by drain() and handle(): status
  /// counters, the end-to-end latency histogram, trace attachment
  /// ("trace": true), and the slow-request log.
  void finish_request(const Json& request, Json& response,
                      const obs::Trace& trace, double total_ms);

  ServiceOptions options_;
  SessionCache cache_;
  BoundedQueue<Job> queue_;
  std::unique_ptr<ThreadPool> pool_;
  std::thread pump_;  ///< runs pool_->run_on_all(drain) until shutdown
  bool joined_ = false;

  std::mutex slow_log_mutex_;  ///< one slow-request record per line
};

}  // namespace mdd::server
