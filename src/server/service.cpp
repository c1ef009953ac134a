#include "server/service.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/version.hpp"
#include "diag/method.hpp"
#include "diag/volume.hpp"
#include "obs/metrics.hpp"
#include "server/reorder.hpp"
#include "server/result_json.hpp"
#include "sim/kernel.hpp"
#include "store/format.hpp"
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
  obs::Counter& queue_accepts =
      obs::registry().counter("server.queue_accepts");
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

/// A count field of a request (min_recurrences, top_k): fractions
/// truncate and negatives read as 0; a non-number, NaN or a value past
/// kMaxRequestCount throws std::invalid_argument (the cast to size_t
/// would be undefined past SIZE_MAX).
std::size_t request_count(const Json& v, const char* name) {
  const double x = v.as_number(std::nan(""));
  if (!(x <= kMaxRequestCount))
    throw std::invalid_argument(std::string(name) +
                                " must be a number no larger than 2^53");
  return static_cast<std::size_t>(std::max(0.0, x));
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
    JsonArray bounds(h.bounds.begin(), h.bounds.end());
    JsonArray bins(h.bins.begin(), h.bins.end());
    // Members built in place: no Json is move-assigned from a temporary.
    JsonObject hist;
    hist.emplace_back("le", std::move(bounds));
    hist.emplace_back("bins", std::move(bins));
    hist.emplace_back("count", h.count);
    hist.emplace_back("sum", h.sum);
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
    if (!(ms >= 0.0 && ms <= kMaxDeadlineMs))
      throw std::invalid_argument(
          "deadline_ms must be a number in [0, 1e12]");
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
  if (options.default_deadline.count() > kMaxDeadlineMs)
    throw std::invalid_argument("default deadline above 1e12 ms");
  if (!options.kernel.empty() && !set_current_kernel(options.kernel))
    throw std::invalid_argument("unknown simulation kernel '" +
                                options.kernel + "' (available: " +
                                kernel_names() + ")");
  obs::registry().set_info("fsim.kernel", "kernel", current_kernel().name);
  pump_ = std::thread([this] {
    pool_->run_on_all([this](std::size_t) { drain(); });
  });
}

DiagnosisService::~DiagnosisService() { shutdown(); }

void DiagnosisService::shutdown() {
  queue_.close();
  if (!joined_ && pump_.joinable()) {
    pump_.join();
    joined_ = true;
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
  if (queue_.try_push(std::move(job))) {
    service_metrics().queue_accepts.inc();
  } else {
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

void DiagnosisService::open_item(const Session& session,
                                 const DatalogInput& input, Item& item,
                                 obs::Trace& trace) {
  const auto t0 = Clock::now();
  {
    auto datalog_span = trace.span("datalog");
    if (input.is_file) {
      item.log = read_datalog_file(input.value, session.netlist);
    } else {
      std::istringstream in(input.value);
      item.log = read_datalog(in, session.netlist);
    }
  }
  auto context_span = trace.span("context");
  CandidateOptions candidate_options;
  candidate_options.trace_store = session.traces.get();
  item.ctx = std::make_unique<DiagnosisContext>(
      session.netlist, session.patterns, item.log, candidate_options,
      &session.good, session.baseline, &trace);
  if (session.memo) item.ctx->attach_solo_store(session.memo.get());
  if (session.composites)
    item.ctx->attach_composite_memo(session.composites.get());
  item.t_context = ms_since(t0);
}

void DiagnosisService::rank_item(Item& item,
                                 std::span<const DiagnosisMethod> methods,
                                 const CancelToken* cancel,
                                 obs::Trace& trace) {
  const auto t0 = Clock::now();
  for (const DiagnosisMethod& m : methods) {
    auto span = trace.span("rank:" + std::string(m.name));
    item.reports.push_back(m.run(*item.ctx, cancel));
  }
  item.t_diagnose = ms_since(t0);
  item.timed_out = cancel != nullptr && cancel->cancelled();
  for (const DiagnosisReport& r : item.reports) item.timed_out |= r.timed_out;
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
  Item item;
  try {
    const std::span<const DiagnosisMethod> methods = methods_named(method);
    const auto t1 = Clock::now();
    open_item(*session, input, item, trace);
    {
      // The batch path's three steps with one context.
      auto warm_span = trace.span("warm");
      DiagnosisContext* const contexts[] = {item.ctx.get()};
      DiagnosisContext::warm_solo_signatures(contexts,
                                             options_.exec.n_threads, cancel);
    }
    item.t_context = ms_since(t1);
    rank_item(item, methods, cancel, trace);
  } catch (const std::exception& e) {
    return error_response(request, e.what());
  }

  auto serialize_span = trace.span("serialize");
  Json response =
      make_response(request, item.timed_out ? "timeout" : "ok");
  response.set("op", "diagnose");
  response.set("method", method);
  response.set("kernel", current_kernel().name);
  response.set("cache", cache_hit ? "hit" : "miss");
  if (item.timed_out) response.set("partial", true);
  response.set("reports", reports_to_json(item.reports, session->netlist));
  // The store-coverage ledger (mirrors the batch "amortization" object):
  // solo_computes counts candidates every serving tier missed — the gap
  // to n_candidates is what memo + dictionary absorbed.
  response.set("n_candidates", item.ctx->n_candidates());
  response.set("solo_computes", item.ctx->solo_compute_count());
  Json timings;
  timings.set("session", t_session);
  timings.set("context", item.t_context);
  timings.set("diagnose", item.t_diagnose);
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
  std::span<const DiagnosisMethod> methods;
  try {
    methods = methods_named(method);
  } catch (const std::invalid_argument& e) {
    return error_response(request, e.what());
  }

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
  // A request may ask for fewer or more threads than the configured
  // default, but never for more than the default or the host's cores,
  // whichever is larger: the client does not size the daemon's threads.
  const std::size_t default_threads = options_.batch_threads != 0
                                          ? options_.batch_threads
                                          : options_.n_workers;
  const std::size_t max_threads = std::max<std::size_t>(
      default_threads, std::thread::hardware_concurrency());
  const double asked = request.get_number("threads");
  std::size_t threads =
      asked >= 1 ? static_cast<std::size_t>(
                       std::min(asked, static_cast<double>(max_threads)))
                 : default_threads;
  threads = std::clamp<std::size_t>(threads, 1, inputs.size());
  VolumeOptions vopt;
  vopt.systematic_fraction = std::clamp(
      request.get_number("systematic_fraction", vopt.systematic_fraction),
      0.0, 1.0);
  if (const Json* v = request.find("min_recurrences"))
    vopt.min_recurrences = request_count(*v, "min_recurrences");
  if (const Json* v = request.find("top_k"))
    vopt.top_k = request_count(*v, "top_k");
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

  VolumeAggregator aggregator(inputs.size(), vopt);

  const auto t1 = Clock::now();
  auto diagnose_span = trace.span("diagnose");
  std::atomic<std::uint64_t> total_candidates{0};
  std::atomic<std::uint64_t> total_solo_computes{0};
  std::atomic<std::uint64_t> n_item_errors{0};
  // Streamed items go out in index order regardless of which worker
  // finishes first — clients see a deterministic sequence. The buffer's
  // high-water mark records how far completion ran ahead of emission.
  ReorderBuffer reorder(inputs.size(),
                        stream ? ReorderBuffer::Sink(emit) : nullptr);

  // The batch occupies ONE queue worker; its parallelism runs on private
  // threads (run_on_threads), each step's threads claiming items off a
  // counter, heaviest first. `used` is the most threads any step got.
  std::size_t used = 1;
  const auto heaviest_first = [&](std::vector<std::size_t> weight,
                                  const auto& body) {
    std::vector<std::size_t> order(weight.size());
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return weight[a] > weight[b];
                     });
    std::atomic<std::size_t> next{0};
    used = std::max(used, run_on_threads(std::min(threads, order.size()), [&] {
      for (std::size_t k; (k = next.fetch_add(1, std::memory_order_relaxed)) <
                          order.size();)
        body(order[k]);
    }));
  };

  // Waves of at most 2 x threads items, each in three steps: open every
  // context, warm the wave's solo signatures once (each distinct fault
  // simulated at most once), rank. The bound keeps the contexts resident
  // at once to a small multiple of the threads.
  const std::size_t wave = 2 * threads;
  for (std::size_t w0 = 0; w0 < inputs.size(); w0 += wave) {
    const std::size_t n = std::min(wave, inputs.size() - w0);
    std::vector<Item> items(n);

    std::vector<std::size_t> input_bytes(n);
    for (std::size_t k = 0; k < n; ++k) {
      const DatalogInput& in = inputs[w0 + k];
      std::error_code ec;
      input_bytes[k] = in.is_file ? std::filesystem::file_size(in.value, ec)
                                  : in.value.size();
      if (ec) input_bytes[k] = 0;
    }
    heaviest_first(std::move(input_bytes), [&](std::size_t k) {
      obs::Trace item_trace;  // per-item spans stay off the batch trace
      try {
        open_item(*session, inputs[w0 + k], items[k], item_trace);
      } catch (const std::exception& e) {
        items[k].error = e.what();
        items[k].ctx.reset();
      }
    });

    std::vector<DiagnosisContext*> contexts;
    std::vector<std::size_t> pool_sizes(n, 0);
    for (std::size_t k = 0; k < n; ++k) {
      if (items[k].ctx == nullptr) continue;
      contexts.push_back(items[k].ctx.get());
      pool_sizes[k] = items[k].ctx->n_candidates();
    }
    try {
      DiagnosisContext::warm_solo_signatures(contexts, threads, cancel);
    } catch (const std::exception&) {
      // Nothing is lost: every slot the warm left cold fills lazily.
    }

    heaviest_first(std::move(pool_sizes), [&](std::size_t k) {
      Item& it = items[k];
      const std::size_t i = w0 + k;
      Json reports;
      if (it.error.empty()) {
        try {
          obs::Trace item_trace;
          rank_item(it, methods, cancel, item_trace);
          reports = reports_to_json(it.reports, session->netlist);
          aggregator.record(VolumeAggregator::make_record(
              i, it.log, it.reports, it.timed_out));
        } catch (const std::exception& e) {
          it.error = e.what();
        }
      }
      Json item;
      if (stream) {
        if (const Json* id = request.find("id")) item.set("id", *id);
        item.set("op", "diagnose_batch_item");
      }
      item.set("index", i);
      if (inputs[i].is_file) item.set("datalog_file", inputs[i].value);
      if (it.error.empty()) {
        item.set("status", it.timed_out ? "timeout" : "ok");
        if (it.timed_out) item.set("partial", true);
        item.set("reports", std::move(reports));
      } else {
        item.set("status", "error");
        item.set("error", it.error);
        DatalogVolumeRecord failed;
        failed.index = i;
        aggregator.record(std::move(failed));
        n_item_errors.fetch_add(1, std::memory_order_relaxed);
        volume_metrics().datalog_errors.inc();
      }
      volume_metrics().datalog_ms.observe(it.t_context + it.t_diagnose);
      reorder.publish(i, std::move(item));
      // The warm is over, so the context's counts are final; free it now
      // rather than when the wave ends.
      if (it.ctx != nullptr) {
        total_candidates.fetch_add(it.ctx->n_candidates(),
                                   std::memory_order_relaxed);
        total_solo_computes.fetch_add(it.ctx->solo_compute_count(),
                                      std::memory_order_relaxed);
        it.ctx.reset();
      }
    });
  }
  threads = used;
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
    service_metrics().ok.inc();
  } else if (status == "timeout") {
    service_metrics().timeout.inc();
  } else if (status == "overloaded") {
    service_metrics().overloaded.inc();
  } else {
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
  // Counts come from one registry snapshot, so they agree with op=metrics
  // and /metrics and survive session eviction; levels come from the
  // objects that own them.
  std::map<std::string, std::uint64_t, std::less<>> counts;
  for (const obs::CounterSample& c : obs::registry().snapshot().counters)
    counts.emplace(c.name, c.value);
  const auto count = [&counts](std::string_view name) {
    const auto it = counts.find(name);
    return it == counts.end() ? std::uint64_t{0} : it->second;
  };

  Json s;
  s.set("version", kVersion);
  s.set("kernel", current_kernel().name);
  s.set("workers", options_.n_workers);
  const SessionCacheStats cs = cache_.stats();
  Json cache;
  cache.set("hits", count("sessions.hits"));
  cache.set("misses", count("sessions.misses"));
  cache.set("evictions", count("sessions.evictions"));
  cache.set("entries", cs.entries);
  cache.set("bytes", cs.bytes);
  cache.set("max_bytes", cs.max_bytes);
  s.set("cache", std::move(cache));
  const auto qs = queue_.stats();
  Json queue;
  queue.set("accepted", count("server.queue_accepts"));
  queue.set("rejected", count("server.queue_rejects"));
  queue.set("high_water", qs.high_water);
  queue.set("depth", qs.depth);
  queue.set("capacity", qs.capacity);
  s.set("queue", std::move(queue));
  Json requests;
  for (const char* status : {"ok", "error", "timeout", "overloaded"})
    requests.set(status, count(std::string("server.requests.") + status));
  s.set("requests", std::move(requests));

  // One uniform shape per memo layer: traffic from its registry series,
  // entries and bytes summed over the resident sessions.
  const MemoLayerStats ls = cache_.layer_stats();
  const auto memo_json = [&count](const std::string& layer,
                                  const CacheStats& c) {
    Json m;
    m.set("hits", count("memo." + layer + ".hits"));
    m.set("misses", count("memo." + layer + ".misses"));
    m.set("evictions", count("memo." + layer + ".evictions"));
    m.set("entries", c.entries);
    m.set("bytes", c.approx_bytes);
    return m;
  };
  Json memos;
  Json signature = memo_json("signature", ls.signature);
  signature.set("store_hits", count("store.hits"));
  signature.set("store_misses", count("store.misses"));
  memos.set("signature", std::move(signature));
  memos.set("trace", memo_json("trace", ls.traces));
  memos.set("composite", memo_json("composite", ls.composites));
  s.set("memos", std::move(memos));

  Json store;
  store.set("enabled", !options_.store_dir.empty());
  if (!options_.store_dir.empty()) store.set("dir", options_.store_dir);
  store.set("format_version", store::kFormatVersion);
  store.set("sessions", ls.store_sessions);
  store.set("entries", ls.store_entries);
  store.set("bytes_mapped", ls.store_bytes_mapped);
  store.set("hits", count("store.hits"));
  store.set("misses", count("store.misses"));
  s.set("store", std::move(store));
  return s;
}

}  // namespace mdd::server
