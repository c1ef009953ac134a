#include "server/service.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/version.hpp"
#include "diag/multiplet.hpp"
#include "diag/single_fault.hpp"
#include "diag/slat.hpp"
#include "diag/volume.hpp"
#include "obs/metrics.hpp"
#include "server/reorder.hpp"
#include "server/result_json.hpp"
#include "sim/kernel.hpp"
#include "store/format.hpp"
#include "store/refresh.hpp"
#include "workload/textio.hpp"

namespace mdd::server {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Echoes the request id (verbatim, any JSON type) into a fresh response.
Json make_response(const Json& request, std::string_view status) {
  Json r;
  if (const Json* id = request.find("id")) r.set("id", *id);
  r.set("status", std::string(status));
  return r;
}

Json error_response(const Json& request, const std::string& what) {
  Json r = make_response(request, "error");
  r.set("error", what);
  return r;
}

/// Server-side registry handles, resolved once per process.
struct ServiceMetrics {
  obs::Counter& ok = obs::registry().counter("server.requests.ok");
  obs::Counter& error = obs::registry().counter("server.requests.error");
  obs::Counter& timeout = obs::registry().counter("server.requests.timeout");
  obs::Counter& overloaded =
      obs::registry().counter("server.requests.overloaded");
  /// Requests answered `timeout` before running (expired while queued).
  obs::Counter& queue_expired =
      obs::registry().counter("server.deadline_queue_expired");
  /// Timed-out diagnoses that still returned a partial ranking.
  obs::Counter& partials = obs::registry().counter("server.partial_results");
  obs::Counter& queue_rejects =
      obs::registry().counter("server.queue_rejects");
  obs::Counter& slow_requests =
      obs::registry().counter("server.slow_requests");
  obs::Gauge& queue_depth = obs::registry().gauge("server.queue_depth");
  obs::Histogram& request_ms = obs::registry().latency("server.request_ms");
  obs::Histogram& queue_wait_ms =
      obs::registry().latency("server.queue_wait_ms");
};

ServiceMetrics& service_metrics() {
  static ServiceMetrics m;
  return m;
}

/// Volume-pipeline registry handles (op=diagnose_batch).
struct VolumeMetrics {
  obs::Counter& batches = obs::registry().counter("volume.batches");
  obs::Counter& datalogs = obs::registry().counter("volume.datalogs");
  /// Per-datalog failures inside otherwise-successful batches.
  obs::Counter& datalog_errors =
      obs::registry().counter("volume.datalog_errors");
  /// Amortization ledger: candidates considered vs. solo signatures
  /// actually simulated across batch datalogs — the gap is what the
  /// shared memos absorbed.
  obs::Counter& candidates = obs::registry().counter("volume.candidates");
  obs::Counter& solo_computes =
      obs::registry().counter("volume.solo_computes");
  obs::Counter& systematic =
      obs::registry().counter("volume.systematic_datalogs");
  obs::Counter& random = obs::registry().counter("volume.random_datalogs");
  obs::Histogram& batch_ms = obs::registry().latency("volume.batch_ms");
  obs::Histogram& datalog_ms = obs::registry().latency("volume.datalog_ms");
  /// Peak done-but-unemitted streamed items of the latest batch — how far
  /// out-of-order completion ran ahead of the in-order protocol.
  obs::Gauge& reorder_high_water =
      obs::registry().gauge("volume.reorder_buffer_high_water");
};

VolumeMetrics& volume_metrics() {
  static VolumeMetrics m;
  return m;
}

Json trace_to_json(const obs::Trace& trace) {
  JsonArray stages;
  for (const obs::Trace::SpanRecord& s : trace.spans()) {
    Json stage;
    stage.set("stage", s.stage);
    if (s.depth > 0) stage.set("depth", s.depth);
    stage.set("ms", s.ms);
    stages.push_back(std::move(stage));
  }
  return Json(std::move(stages));
}

Json snapshot_to_json(const obs::Snapshot& snap) {
  Json counters;
  for (const obs::CounterSample& c : snap.counters)
    counters.set(c.name, c.value);
  Json gauges;
  for (const obs::GaugeSample& g : snap.gauges) gauges.set(g.name, g.value);
  Json histograms;
  for (const obs::HistogramSample& h : snap.histograms) {
    Json hist;
    JsonArray bounds, bins;
    for (double b : h.bounds) bounds.push_back(b);
    for (std::uint64_t v : h.bins) bins.push_back(v);
    hist.set("le", Json(std::move(bounds)));
    hist.set("bins", Json(std::move(bins)));
    hist.set("count", h.count);
    hist.set("sum", h.sum);
    histograms.set(h.name, std::move(hist));
  }
  Json infos;
  for (const obs::InfoSample& i : snap.infos) infos.set(i.name, i.label_value);
  Json out;
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  out.set("infos", std::move(infos));
  return out;
}

}  // namespace

std::optional<std::chrono::steady_clock::duration> deadline_budget(
    const Json& request, std::chrono::milliseconds default_deadline) {
  double ms = 0.0;
  if (const Json* v = request.find("deadline_ms")) {
    if (!v->is_number())
      throw std::invalid_argument("deadline_ms must be a number");
    ms = v->as_number();
    if (std::isnan(ms) || std::isinf(ms) || ms < 0.0)
      throw std::invalid_argument(
          "deadline_ms must be a finite non-negative number");
  }
  if (ms <= 0.0 && default_deadline.count() > 0)
    ms = static_cast<double>(default_deadline.count());
  if (ms <= 0.0) return std::nullopt;
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

DiagnosisService::DiagnosisService(const ServiceOptions& options)
    : options_(options),
      cache_(options.cache_bytes, options.memo_bytes,
             options.composite_bytes, options.store_dir),
      queue_(options.queue_depth),
      pool_(std::make_unique<ThreadPool>(
          std::max<std::size_t>(1, options.n_workers))) {
  if (!options.kernel.empty() && !set_current_kernel(options.kernel))
    throw std::invalid_argument("unknown simulation kernel '" +
                                options.kernel + "' (available: " +
                                kernel_names() + ")");
  obs::registry().set_info("fsim.kernel", "kernel", current_kernel().name);
  pump_ = std::thread([this] {
    pool_->run_on_all([this](std::size_t) { drain(); });
  });
  if (options_.store_refresh_threshold > 0 && !options_.store_dir.empty())
    refresh_thread_ = std::thread([this] { refresh_loop(); });
}

DiagnosisService::~DiagnosisService() { shutdown(); }

void DiagnosisService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(refresh_mutex_);
    stop_refresh_ = true;
  }
  refresh_cv_.notify_all();
  if (refresh_thread_.joinable()) refresh_thread_.join();
  queue_.close();
  if (!joined_ && pump_.joinable()) {
    pump_.join();
    joined_ = true;
  }
}

void DiagnosisService::refresh_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(refresh_mutex_);
      refresh_cv_.wait_for(lock, std::chrono::milliseconds(200),
                           [this] { return stop_refresh_; });
      if (stop_refresh_) return;
    }
    for (const auto& session : cache_.resident_sessions()) {
      if (session->journal == nullptr || session->journal->detached())
        continue;
      if (session->journal->pending() < options_.store_refresh_threshold)
        continue;
      refresh_session(session);
    }
  }
}

void DiagnosisService::refresh_session(
    const std::shared_ptr<const Session>& session) {
  // Lock → snapshot → fold → swap → compact. The fold simulates on THIS
  // thread (the maintenance thread, not a queue worker), and the swap is
  // one shared_ptr store inside the memo: in-flight requests keep
  // decoding the old mapping, later lookups serve the merged one. Faults
  // recorded between the snapshot and the compact survive as journal
  // remainder for the next round. Failures are counted and skipped — a
  // broken disk must never take the serving path down.
  //
  // The cross-process flock serializes folds of one store folder:
  // `openmdd dict refresh` (or a second daemon on the same --store-dir)
  // can fold it concurrently, and two unserialized folds are a lost
  // update (both read version N, the second rename drops the first's
  // learned faults while its journal was already compacted). `busy`
  // skips the round — the holder folds now, this daemon's backlog folds
  // on a later tick against the holder's output. The snapshot is taken
  // AFTER the lock so it cannot interleave with the holder's compact.
  try {
    const store::RefreshLock lock = store::RefreshLock::try_acquire(
        options_.store_dir, session->netlist, session->patterns);
    if (!lock.may_fold()) return;
    const std::vector<Fault> folded = session->journal->pending_faults();
    if (folded.empty()) return;
    store::fold_into_store(session->netlist, session->patterns,
                           options_.store_dir, folded, options_.exec);
    auto reader = store::DictReader::open(store::store_path_for(
        options_.store_dir, session->netlist, session->patterns));
    reader->validate_for(session->netlist, session->patterns);
    session->memo->set_store(std::move(reader));
    session->journal->compact(folded);
    refreshes_.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::exception& e) {
    refresh_failures_.fetch_add(1, std::memory_order_relaxed);
    obs::registry().counter("store.refresh_failures").inc();
    std::cerr << "openmdd_serve: store refresh failed: " << e.what() << "\n";
  }
}

void DiagnosisService::drain() {
  while (auto job = queue_.pop()) {
    service_metrics().queue_depth.set(
        static_cast<std::int64_t>(queue_.size()));
    service_metrics().queue_wait_ms.observe(ms_since(job->admitted));
    obs::Trace trace;
    Json response;
    try {
      if (job->has_deadline && Clock::now() >= job->deadline) {
        // Expired while queued: answer without burning a worker on it.
        service_metrics().queue_expired.inc();
        response = make_response(job->request, "timeout");
        response.set("where", "queue");
      } else if (job->has_deadline) {
        CancelToken token(job->deadline);
        response = dispatch(job->request, &token, trace, job->emit);
      } else {
        response = dispatch(job->request, nullptr, trace, job->emit);
      }
    } catch (const std::exception& e) {
      response = error_response(job->request, e.what());
    }
    finish_request(job->request, response, trace, ms_since(job->admitted));
    job->done(std::move(response));
  }
}

void DiagnosisService::submit(Json request, std::function<void(Json)> done,
                              Emit emit) {
  Job job;
  job.emit = std::move(emit);
  job.admitted = Clock::now();
  try {
    if (auto budget = deadline_budget(request, options_.default_deadline)) {
      job.has_deadline = true;
      job.deadline = job.admitted + *budget;
    }
  } catch (const std::exception& e) {
    Json response = error_response(request, e.what());
    count_status(response);
    done(std::move(response));
    return;
  }
  job.request = std::move(request);
  job.done = std::move(done);
  if (!queue_.try_push(std::move(job))) {
    // try_push moves from the job only on success; on rejection it is
    // intact and carries the reject reply.
    service_metrics().queue_rejects.inc();
    Json response = make_response(job.request, "overloaded");
    count_status(response);
    job.done(std::move(response));
  }
}

Json DiagnosisService::handle(const Json& request, const CancelToken* cancel,
                              const Emit& emit) {
  const auto t0 = Clock::now();
  obs::Trace trace;
  Json r;
  try {
    std::optional<CancelToken> own_token;
    if (cancel == nullptr) {
      if (auto budget = deadline_budget(request)) {
        own_token.emplace(t0 + *budget);
        cancel = &*own_token;
      }
    }
    r = dispatch(request, cancel, trace, emit);
  } catch (const std::exception& e) {
    r = error_response(request, e.what());
  }
  finish_request(request, r, trace, ms_since(t0));
  return r;
}

Json DiagnosisService::dispatch(const Json& request,
                                const CancelToken* cancel,
                                obs::Trace& trace, const Emit& emit) {
  if (!request.is_object())
    return error_response(request, "request must be a JSON object");
  const std::string op = request.get_string("op", "diagnose");
  if (op == "diagnose") return handle_diagnose(request, cancel, trace);
  if (op == "diagnose_batch")
    return handle_diagnose_batch(request, cancel, trace, emit);
  if (op == "sleep") return handle_sleep(request, cancel);
  if (op == "ping") {
    Json r = make_response(request, "ok");
    r.set("op", "ping");
    r.set("version", kVersion);
    r.set("kernel", current_kernel().name);
    Json store;
    store.set("enabled", !options_.store_dir.empty());
    if (!options_.store_dir.empty()) store.set("dir", options_.store_dir);
    store.set("format_version", store::kFormatVersion);
    r.set("store", std::move(store));
    return r;
  }
  if (op == "stats") {
    Json r = make_response(request, "ok");
    r.set("op", "stats");
    r.set("stats", stats_json());
    return r;
  }
  if (op == "metrics") {
    Json r = make_response(request, "ok");
    r.set("op", "metrics");
    r.set("metrics", snapshot_to_json(obs::registry().snapshot()));
    return r;
  }
  return error_response(request, "unknown op '" + op + "'");
}

DiagnosisService::DiagnoseOutcome DiagnosisService::diagnose_one(
    const Session& session, const DatalogInput& input,
    const std::string& method, const CancelToken* cancel,
    obs::Trace& trace) {
  DiagnoseOutcome out;
  const auto t1 = Clock::now();
  {
    auto datalog_span = trace.span("datalog");
    if (input.is_file) {
      out.log = read_datalog_file(input.value, session.netlist);
    } else {
      std::istringstream in(input.value);
      out.log = read_datalog(in, session.netlist);
    }
  }

  auto context_span = trace.span("context");
  CandidateOptions candidate_options;
  candidate_options.trace_store = session.traces.get();
  DiagnosisContext ctx(session.netlist, session.patterns, out.log,
                       candidate_options, &session.good, session.baseline,
                       &trace);
  if (session.memo) ctx.attach_solo_store(session.memo.get());
  if (session.composites)
    ctx.attach_composite_memo(session.composites.get());
  context_span.close();
  // Consult the persistent store BEFORE scheduling a PPSFP warm: slots it
  // answers are pure mmap decodes, and when it covers every candidate the
  // parallel warm-up is skipped outright (the store-served cold start).
  std::size_t store_warmed = 0;
  if (ctx.solo_store_attached() && session.memo && session.memo->has_store()) {
    auto span = trace.span("store_warm");
    store_warmed = ctx.warm_solo_from_store();
  }
  if (!options_.exec.is_serial() && store_warmed < ctx.n_candidates()) {
    auto warm_span = trace.span("warm");
    ctx.warm_solo_signatures(options_.exec, cancel);
  }
  out.t_context = ms_since(t1);

  const auto t2 = Clock::now();
  if (method == "multiplet" || method == "all") {
    auto span = trace.span("rank:multiplet");
    MultipletOptions opt;
    opt.cancel = cancel;
    out.reports.push_back(diagnose_multiplet(ctx, opt));
  }
  if (method == "slat" || method == "all") {
    auto span = trace.span("rank:slat");
    SlatOptions opt;
    opt.cancel = cancel;
    out.reports.push_back(diagnose_slat(ctx, opt));
  }
  if (method == "single" || method == "all") {
    auto span = trace.span("rank:single");
    SingleFaultOptions opt;
    opt.cancel = cancel;
    out.reports.push_back(diagnose_single_fault(ctx, opt));
  }
  if (out.reports.empty())
    throw std::invalid_argument("unknown method '" + method + "'");
  out.t_diagnose = ms_since(t2);

  out.timed_out = cancel != nullptr && cancel->cancelled();
  for (const DiagnosisReport& r : out.reports) out.timed_out |= r.timed_out;
  out.n_candidates = ctx.n_candidates();
  out.solo_computes = ctx.solo_compute_count();
  return out;
}

Json DiagnosisService::handle_diagnose(const Json& request,
                                       const CancelToken* cancel,
                                       obs::Trace& trace) {
  const auto t0 = Clock::now();
  auto parse_span = trace.span("parse");
  const std::string netlist_path = request.get_string("netlist");
  const std::string patterns_path = request.get_string("patterns");
  if (netlist_path.empty() || patterns_path.empty())
    return error_response(request,
                          "diagnose needs 'netlist' and 'patterns' paths");
  const Json* inline_log = request.find("datalog");
  const std::string datalog_file = request.get_string("datalog_file");
  if ((inline_log == nullptr) == datalog_file.empty())
    return error_response(
        request, "diagnose needs exactly one of 'datalog' (inline text) or "
                 "'datalog_file' (path)");
  const std::string method = request.get_string("method", "multiplet");
  parse_span.close();

  auto session_span = trace.span("session");
  bool cache_hit = false;
  std::shared_ptr<const Session> session;
  try {
    session = cache_.get(netlist_path, patterns_path, &cache_hit);
  } catch (const std::exception& e) {
    return error_response(request, e.what());
  }
  session_span.close();
  const double t_session = ms_since(t0);

  DatalogInput input;
  if (inline_log != nullptr) {
    input.value = inline_log->as_string();
  } else {
    input.is_file = true;
    input.value = datalog_file;
  }
  DiagnoseOutcome outcome;
  try {
    outcome = diagnose_one(*session, input, method, cancel, trace);
  } catch (const std::exception& e) {
    return error_response(request, e.what());
  }

  auto serialize_span = trace.span("serialize");
  Json response =
      make_response(request, outcome.timed_out ? "timeout" : "ok");
  response.set("op", "diagnose");
  response.set("method", method);
  response.set("kernel", current_kernel().name);
  response.set("cache", cache_hit ? "hit" : "miss");
  if (outcome.timed_out) response.set("partial", true);
  response.set("reports", reports_to_json(outcome.reports, session->netlist));
  // The store-coverage ledger (mirrors the batch "amortization" object):
  // solo_computes counts candidates every serving tier missed — the gap
  // to n_candidates is what memo + dictionary absorbed.
  response.set("n_candidates", outcome.n_candidates);
  response.set("solo_computes", outcome.solo_computes);
  Json timings;
  timings.set("session", t_session);
  timings.set("context", outcome.t_context);
  timings.set("diagnose", outcome.t_diagnose);
  timings.set("total", ms_since(t0));
  response.set("timings_ms", std::move(timings));
  serialize_span.close();
  return response;
}

Json DiagnosisService::handle_diagnose_batch(const Json& request,
                                             const CancelToken* cancel,
                                             obs::Trace& trace,
                                             const Emit& emit) {
  const auto t0 = Clock::now();
  auto parse_span = trace.span("parse");
  const std::string netlist_path = request.get_string("netlist");
  const std::string patterns_path = request.get_string("patterns");
  if (netlist_path.empty() || patterns_path.empty())
    return error_response(
        request, "diagnose_batch needs 'netlist' and 'patterns' paths");
  const std::string method = request.get_string("method", "multiplet");
  if (method != "multiplet" && method != "slat" && method != "single" &&
      method != "all")
    return error_response(request, "unknown method '" + method + "'");

  // Exactly one input form: inline texts, file list, or a directory.
  const Json* inline_logs = request.find("datalogs");
  const Json* file_list = request.find("datalog_files");
  const std::string dir = request.get_string("datalog_dir");
  const int n_forms = (inline_logs != nullptr ? 1 : 0) +
                      (file_list != nullptr ? 1 : 0) + (dir.empty() ? 0 : 1);
  if (n_forms != 1)
    return error_response(request,
                          "diagnose_batch needs exactly one of 'datalogs' "
                          "(inline texts), 'datalog_files' (paths), or "
                          "'datalog_dir' (directory of *.datalog)");
  std::vector<DatalogInput> inputs;
  if (inline_logs != nullptr) {
    if (!inline_logs->is_array())
      return error_response(request, "'datalogs' must be an array of strings");
    for (const Json& d : inline_logs->as_array()) {
      if (!d.is_string())
        return error_response(request,
                              "'datalogs' must be an array of strings");
      inputs.push_back({false, d.as_string()});
    }
  } else if (file_list != nullptr) {
    if (!file_list->is_array())
      return error_response(request,
                            "'datalog_files' must be an array of paths");
    for (const Json& d : file_list->as_array()) {
      if (!d.is_string())
        return error_response(request,
                              "'datalog_files' must be an array of paths");
      inputs.push_back({true, d.as_string()});
    }
  } else {
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec)
      return error_response(request, "cannot read datalog_dir '" + dir +
                                         "': " + ec.message());
    for (const auto& entry : it)
      if (entry.is_regular_file() && entry.path().extension() == ".datalog")
        inputs.push_back({true, entry.path().string()});
    // Directory order is filesystem-dependent; the batch index order is
    // part of the response (and of the CI byte-identity gate), so fix it
    // byte-wise over unsigned chars — deliberately NOT strcoll or any
    // locale collation, which would order "B2" / "a1" differently across
    // hosts.
    std::sort(inputs.begin(), inputs.end(),
              [](const DatalogInput& a, const DatalogInput& b) {
                return std::lexicographical_compare(
                    a.value.begin(), a.value.end(), b.value.begin(),
                    b.value.end(), [](char x, char y) {
                      return static_cast<unsigned char>(x) <
                             static_cast<unsigned char>(y);
                    });
              });
  }
  if (inputs.empty())
    return error_response(request, "diagnose_batch: no datalogs given");

  const bool stream = emit != nullptr && request.get_bool("stream");
  std::size_t threads =
      static_cast<std::size_t>(std::max(0.0, request.get_number("threads")));
  if (threads == 0) threads = options_.batch_threads;
  if (threads == 0) threads = options_.n_workers;
  threads = std::clamp<std::size_t>(threads, 1, inputs.size());
  parse_span.close();

  // Pin the session for the whole batch: eviction pressure from other
  // traffic must not drop the shared memos mid-stream.
  SessionCache::Pin pin = cache_.pin(netlist_path, patterns_path);
  auto session_span = trace.span("session");
  bool cache_hit = false;
  std::shared_ptr<const Session> session;
  try {
    session = cache_.get(netlist_path, patterns_path, &cache_hit);
  } catch (const std::exception& e) {
    return error_response(request, e.what());
  }
  session_span.close();
  const double t_session = ms_since(t0);

  VolumeOptions vopt;
  vopt.systematic_fraction = std::clamp(
      request.get_number("systematic_fraction", vopt.systematic_fraction),
      0.0, 1.0);
  if (const Json* v = request.find("min_recurrences"))
    vopt.min_recurrences =
        static_cast<std::size_t>(std::max(0.0, v->as_number()));
  if (const Json* v = request.find("top_k"))
    vopt.top_k = static_cast<std::size_t>(std::max(0.0, v->as_number()));
  VolumeAggregator aggregator(inputs.size(), vopt);

  const auto t1 = Clock::now();
  auto diagnose_span = trace.span("diagnose");
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> total_candidates{0};
  std::atomic<std::uint64_t> total_solo_computes{0};
  std::atomic<std::uint64_t> n_item_errors{0};
  // Streamed items go out in index order regardless of which worker
  // finishes first — clients see a deterministic sequence. The buffer's
  // high-water mark records how far completion ran ahead of emission.
  ReorderBuffer reorder(inputs.size(),
                        stream ? ReorderBuffer::Sink(emit) : nullptr);

  const auto worker = [&] {
    for (;;) {
      const std::size_t i =
          next.fetch_add(1, std::memory_order_relaxed);
      if (i >= inputs.size()) return;
      const auto item_t0 = Clock::now();
      Json item;
      if (stream) {
        if (const Json* id = request.find("id")) item.set("id", *id);
        item.set("op", "diagnose_batch_item");
      }
      item.set("index", i);
      if (inputs[i].is_file) item.set("datalog_file", inputs[i].value);
      try {
        obs::Trace item_trace;  // per-item spans stay off the batch trace
        DiagnoseOutcome out =
            diagnose_one(*session, inputs[i], method, cancel, item_trace);
        item.set("status", out.timed_out ? "timeout" : "ok");
        if (out.timed_out) item.set("partial", true);
        item.set("reports", reports_to_json(out.reports, session->netlist));
        aggregator.record(VolumeAggregator::make_record(
            i, out.log, out.reports, out.timed_out));
        total_candidates.fetch_add(out.n_candidates,
                                   std::memory_order_relaxed);
        total_solo_computes.fetch_add(out.solo_computes,
                                      std::memory_order_relaxed);
      } catch (const std::exception& e) {
        item.set("status", "error");
        item.set("error", e.what());
        DatalogVolumeRecord failed;
        failed.index = i;
        aggregator.record(std::move(failed));
        n_item_errors.fetch_add(1, std::memory_order_relaxed);
        volume_metrics().datalog_errors.inc();
      }
      volume_metrics().datalog_ms.observe(ms_since(item_t0));
      reorder.publish(i, std::move(item));
    }
  };

  // The batch occupies ONE queue worker; datalog-level parallelism runs
  // on private threads (the pool's nested-region guard would serialize
  // a parallel_for issued from inside a pool worker).
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> group;
    group.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) group.emplace_back(worker);
    for (std::thread& t : group) t.join();
  }
  diagnose_span.close();
  const double t_diagnose = ms_since(t1);

  auto summarize_span = trace.span("volume");
  const VolumeSummary summary = aggregator.summarize();
  summarize_span.close();

  const bool timed_out = cancel != nullptr && cancel->cancelled();
  Json response = make_response(request, timed_out ? "timeout" : "ok");
  response.set("op", "diagnose_batch");
  response.set("method", method);
  response.set("kernel", current_kernel().name);
  response.set("cache", cache_hit ? "hit" : "miss");
  if (timed_out) response.set("partial", true);
  response.set("n_datalogs", inputs.size());
  response.set("n_errors", n_item_errors.load());
  response.set("threads", threads);
  if (stream) {
    response.set("results_streamed", true);
    response.set("reorder_high_water", reorder.high_water());
    volume_metrics().reorder_high_water.set(
        static_cast<std::int64_t>(reorder.high_water()));
  } else {
    JsonArray results;
    std::vector<Json> items = reorder.take_items();
    results.reserve(items.size());
    for (Json& item : items) results.push_back(std::move(item));
    response.set("results", Json(std::move(results)));
  }
  response.set("volume", volume_to_json(summary, session->netlist));
  // The amortization ledger: with shared memos, solo_computes across the
  // batch approaches the distinct-candidate count of the whole stream
  // instead of the sum of per-datalog candidate counts.
  Json amortization;
  amortization.set("candidates", total_candidates.load());
  amortization.set("solo_computes", total_solo_computes.load());
  response.set("amortization", std::move(amortization));
  Json timings;
  timings.set("session", t_session);
  timings.set("diagnose", t_diagnose);
  timings.set("total", ms_since(t0));
  response.set("timings_ms", std::move(timings));

  volume_metrics().batches.inc();
  volume_metrics().datalogs.inc(inputs.size());
  volume_metrics().candidates.inc(total_candidates.load());
  volume_metrics().solo_computes.inc(total_solo_computes.load());
  volume_metrics().systematic.inc(summary.n_systematic_datalogs);
  volume_metrics().random.inc(summary.n_random_datalogs);
  volume_metrics().batch_ms.observe(ms_since(t0));
  return response;
}

Json DiagnosisService::handle_sleep(const Json& request,
                                    const CancelToken* cancel) {
  // Test / load-shaping aid: occupies a worker for `ms` (capped), honoring
  // the deadline — lets the backpressure and queue-timeout paths be
  // exercised without a heavy circuit.
  const double ms = std::clamp(request.get_number("ms", 0.0), 0.0, 60000.0);
  const auto until = Clock::now() +
                     std::chrono::microseconds(static_cast<std::int64_t>(
                         ms * 1000.0));
  while (Clock::now() < until) {
    if (cancel != nullptr && cancel->cancelled())
      return make_response(request, "timeout");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Json r = make_response(request, "ok");
  r.set("op", "sleep");
  return r;
}

void DiagnosisService::count_status(const Json& response) {
  const std::string status = response.get_string("status");
  if (status == "ok") {
    ++n_ok_;
    service_metrics().ok.inc();
  } else if (status == "timeout") {
    ++n_timeout_;
    service_metrics().timeout.inc();
  } else if (status == "overloaded") {
    ++n_overloaded_;
    service_metrics().overloaded.inc();
  } else {
    ++n_error_;
    service_metrics().error.inc();
  }
}

void DiagnosisService::finish_request(const Json& request, Json& response,
                                      const obs::Trace& trace,
                                      double total_ms) {
  count_status(response);
  service_metrics().request_ms.observe(total_ms);
  if (response.get_bool("partial")) service_metrics().partials.inc();
  if (request.is_object() && request.get_bool("trace"))
    response.set("trace", trace_to_json(trace));
  if (options_.slow_ms > 0.0 && total_ms >= options_.slow_ms) {
    service_metrics().slow_requests.inc();
    Json record;
    record.set("event", "slow_request");
    if (const Json* id = request.find("id")) record.set("id", *id);
    record.set("op", request.get_string("op", "diagnose"));
    const std::string method = request.get_string("method");
    if (!method.empty()) record.set("method", method);
    record.set("status", response.get_string("status"));
    record.set("total_ms", total_ms);
    Json stages;
    for (const obs::Trace::SpanRecord& s : trace.spans())
      if (s.depth == 0) stages.set(s.stage, s.ms);
    record.set("stages_ms", std::move(stages));
    std::ostream& out =
        options_.slow_log != nullptr ? *options_.slow_log : std::cerr;
    std::lock_guard<std::mutex> lock(slow_log_mutex_);
    out << record.dump() << "\n";
    out.flush();
  }
}

Json DiagnosisService::stats_json() const {
  Json s;
  s.set("version", kVersion);
  s.set("kernel", current_kernel().name);
  s.set("workers", options_.n_workers);
  const SessionCacheStats cs = cache_.stats();
  Json cache;
  cache.set("hits", cs.hits);
  cache.set("misses", cs.misses);
  cache.set("evictions", cs.evictions);
  cache.set("entries", cs.entries);
  cache.set("bytes", cs.bytes);
  cache.set("max_bytes", cs.max_bytes);
  s.set("cache", std::move(cache));
  const auto qs = queue_.stats();
  Json queue;
  queue.set("accepted", qs.accepted);
  queue.set("rejected", qs.rejected);
  queue.set("high_water", qs.high_water);
  queue.set("depth", qs.depth);
  queue.set("capacity", qs.capacity);
  s.set("queue", std::move(queue));
  Json requests;
  requests.set("ok", n_ok_.load());
  requests.set("error", n_error_.load());
  requests.set("timeout", n_timeout_.load());
  requests.set("overloaded", n_overloaded_.load());
  s.set("requests", std::move(requests));

  // Per-session memo layers, aggregated across resident sessions with one
  // uniform shape per layer (hits/misses/evictions/entries/bytes).
  const MemoLayerStats ls = cache_.layer_stats();
  const auto memo_json = [](const CacheStats& c) {
    Json m;
    m.set("hits", c.hits);
    m.set("misses", c.misses);
    m.set("evictions", c.evictions);
    m.set("entries", c.entries);
    m.set("bytes", c.approx_bytes);
    return m;
  };
  Json memos;
  Json signature = memo_json(ls.signature);
  signature.set("store_hits", ls.signature.store_hits);
  signature.set("store_misses", ls.signature.store_misses);
  memos.set("signature", std::move(signature));
  memos.set("trace", memo_json(ls.traces));
  Json composite = memo_json(ls.composites);
  composite.set("spill_hits", ls.composites.spill_hits);
  composite.set("spill_misses", ls.composites.spill_misses);
  memos.set("composite", std::move(composite));
  s.set("memos", std::move(memos));

  Json store;
  store.set("enabled", !options_.store_dir.empty());
  if (!options_.store_dir.empty()) store.set("dir", options_.store_dir);
  store.set("format_version", store::kFormatVersion);
  store.set("sessions", ls.store_sessions);
  store.set("entries", ls.store_entries);
  store.set("bytes_mapped", ls.store_bytes_mapped);
  store.set("hits", ls.signature.store_hits);
  store.set("misses", ls.signature.store_misses);
  store.set("refresh_threshold", options_.store_refresh_threshold);
  store.set("refreshes", refreshes_.load());
  store.set("refresh_failures", refresh_failures_.load());
  Json journal;
  journal.set("sessions", ls.journal_sessions);
  journal.set("pending", ls.journal_pending);
  store.set("journal", std::move(journal));
  Json spill;
  spill.set("sessions", ls.spill_sessions);
  spill.set("entries", ls.spill_entries);
  spill.set("bytes", ls.spill_bytes);
  store.set("spill", std::move(spill));
  s.set("store", std::move(store));
  return s;
}

}  // namespace mdd::server
