#include "replay.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/exec.hpp"
#include "diag/metrics.hpp"
#include "diag/multiplet.hpp"
#include "diag/volume.hpp"
#include "server/json.hpp"
#include "server/result_json.hpp"
#include "sim/kernel.hpp"
#include "workload/textio.hpp"

namespace perfbench {

using mdd::server::Json;

namespace {

Clock::time_point at_ms(Clock::time_point origin, double ms) {
  return origin + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(ms));
}

/// Runs `body(worker_index)` on `n` threads and joins them.
template <typename Body>
void on_threads(std::size_t n, Body&& body) {
  std::vector<std::thread> group;
  for (std::size_t t = 0; t < n; ++t) group.emplace_back(body, t);
  for (std::thread& t : group) t.join();
}

}  // namespace

Replay::Replay(const Circuit& circuit,
               const std::vector<mdd::LoadgenCase>& cases,
               const ReplayOptions& options)
    : circuit_(circuit),
      cases_(cases),
      options_(options),
      collapsed_(circuit.netlist),
      cache_(options.cache_bytes, options.memo_bytes, options.composite_bytes,
             options.store_dir) {}

void Replay::load_session() {
  auto log = std::make_unique<SpanLog>();
  {
    auto span = log->open("sessions.load", -1, -1);
    bool hit = true;
    cache_.get(circuit_.netlist_path, circuit_.patterns_path, &hit);
    if (hit) throw std::logic_error("replay session was already loaded");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  logs_.push_back(std::move(log));
}

std::size_t Replay::diagnose(SpanLog& log, std::int64_t parent,
                             std::int64_t datalog_id,
                             const std::string& datalog_text,
                             const mdd::server::Session& session,
                             std::vector<mdd::DiagnosisReport>& reports,
                             mdd::Datalog& parsed) {
  {
    auto span = log.open("diag.datalog_parse", parent, datalog_id);
    std::istringstream in(datalog_text);
    parsed = mdd::read_datalog(in, session.netlist);
  }
  auto context_span = log.open("diag.context", parent, datalog_id);
  mdd::CandidateOptions candidate_options;
  candidate_options.trace_store = session.traces.get();
  const Clock::time_point trace_origin = Clock::now();
  mdd::obs::Trace trace;
  mdd::DiagnosisContext ctx(session.netlist, session.patterns, parsed,
                            candidate_options, &session.good,
                            session.baseline, &trace);
  if (session.memo) ctx.attach_solo_store(session.memo.get());
  if (session.composites) ctx.attach_composite_memo(session.composites.get());
  context_span.close();
  for (const mdd::obs::Trace::SpanRecord& s : trace.spans())
    log.add("diag." + s.stage, context_span.id(), datalog_id,
            at_ms(trace_origin, s.start_ms),
            at_ms(trace_origin, s.start_ms + s.ms));

  if (ctx.solo_store_attached() && session.memo && session.memo->has_store()) {
    auto span = log.open("store.warm", parent, datalog_id);
    ctx.warm_solo_from_store();
  }
  {
    auto span = log.open("diag.solo_warm", parent, datalog_id);
    ctx.warm_solo_signatures(mdd::ExecPolicy::serial());
  }
  {
    auto span = log.open("diag.rank", parent, datalog_id);
    reports.push_back(mdd::diagnose_multiplet(ctx, mdd::MultipletOptions{}));
  }
  return ctx.n_candidates();
}

void Replay::keep(std::int64_t datalog_id, const Json& reports,
                  const std::vector<mdd::DiagnosisReport>& parsed,
                  std::size_t n_candidates) {
  DatalogResult r;
  r.reports = reports.dump();
  const mdd::TruthEvaluation ev = mdd::evaluate_against_truth(
      parsed.front(), cases_.at(static_cast<std::size_t>(datalog_id)).defect,
      collapsed_);
  r.hit_rate = ev.hit_rate;
  r.precision = ev.precision;
  r.n_candidates = n_candidates;
  std::lock_guard<std::mutex> lock(mutex_);
  results_[datalog_id] = std::move(r);
}

void Replay::run_diagnose(const std::vector<Request>& requests, bool record) {
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now();
  on_threads(options_.threads, [&](std::size_t) {
    auto log = std::make_unique<SpanLog>();
    for (std::size_t i; (i = next.fetch_add(1)) < requests.size();) {
      const Request& request = requests[i];
      const std::int64_t id = request.datalogs.front();
      auto root = log->open("request", -1, id);
      Json parsed_request;
      {
        auto span = log->open("server.request_parse", root.id(), id);
        parsed_request = Json::parse(request.line);
      }
      std::shared_ptr<const mdd::server::Session> session;
      bool hit = false;
      {
        auto span = log->open("sessions.get", root.id(), id);
        session = cache_.get(parsed_request.get_string("netlist"),
                             parsed_request.get_string("patterns"), &hit);
      }
      std::vector<mdd::DiagnosisReport> reports;
      mdd::Datalog parsed_log;
      const std::size_t n_candidates =
          diagnose(*log, root.id(), id, parsed_request.get_string("datalog"),
                   *session, reports, parsed_log);
      Json reports_json;
      {
        // What DiagnosisService::handle_diagnose puts on the wire.
        auto span = log->open("server.serialize", root.id(), id);
        reports_json = mdd::server::reports_to_json(reports, session->netlist);
        Json response;
        response.set("id", id);
        response.set("status", "ok");
        response.set("op", "diagnose");
        response.set("method", "multiplet");
        response.set("kernel", mdd::current_kernel().name);
        response.set("cache", hit ? "hit" : "miss");
        response.set("reports", reports_json);
        response.set("n_candidates", n_candidates);
        response.dump();
      }
      root.close();
      if (record) keep(id, reports_json, reports, n_candidates);
    }
    if (record) {
      std::lock_guard<std::mutex> lock(mutex_);
      logs_.push_back(std::move(log));
    }
  });
  if (record) {
    wall_s_ += std::chrono::duration<double>(Clock::now() - t0).count();
    n_datalogs_ += requests.size();
  }
}

void Replay::run_batches(const std::vector<Request>& requests) {
  auto main_log = std::make_unique<SpanLog>();
  const auto t0 = Clock::now();
  for (const Request& request : requests) {
    auto batch = main_log->open("batch", -1, -1);
    const std::int64_t batch_id = batch.id();
    Json parsed_request;
    {
      auto span = main_log->open("server.request_parse", batch_id, -1);
      parsed_request = Json::parse(request.line);
    }
    const std::string netlist_path = parsed_request.get_string("netlist");
    const std::string patterns_path = parsed_request.get_string("patterns");
    const mdd::server::JsonArray& texts =
        parsed_request.find("datalogs")->as_array();
    if (texts.size() != request.datalogs.size())
      throw std::logic_error("batch request and datalog ids disagree");
    const mdd::server::SessionCache::Pin pin =
        cache_.pin(netlist_path, patterns_path);
    std::shared_ptr<const mdd::server::Session> session;
    {
      auto span = main_log->open("sessions.get", batch_id, -1);
      session = cache_.get(netlist_path, patterns_path);
    }
    mdd::VolumeAggregator aggregator(texts.size());
    std::atomic<std::size_t> next{0};
    const std::size_t threads = std::min(options_.threads, texts.size());
    std::vector<std::unique_ptr<SpanLog>> item_logs(threads);
    on_threads(threads, [&](std::size_t w) {
      item_logs[w] = std::make_unique<SpanLog>();
      SpanLog& log = *item_logs[w];
      for (std::size_t i; (i = next.fetch_add(1)) < texts.size();) {
        const std::int64_t id = request.datalogs[i];
        auto root = log.open("request", batch_id, id);
        std::vector<mdd::DiagnosisReport> reports;
        mdd::Datalog parsed_log;
        const std::size_t n_candidates = diagnose(
            log, root.id(), id, texts[i].as_string(), *session, reports,
            parsed_log);
        Json reports_json;
        {
          auto span = log.open("server.serialize", root.id(), id);
          reports_json =
              mdd::server::reports_to_json(reports, session->netlist);
          Json item;
          item.set("op", "diagnose_batch_item");
          item.set("index", i);
          item.set("status", "ok");
          item.set("reports", reports_json);
          item.dump();
        }
        {
          auto span = log.open("volume.aggregate", root.id(), id);
          aggregator.record(mdd::VolumeAggregator::make_record(
              i, parsed_log, reports, false));
        }
        root.close();
        keep(id, reports_json, reports, n_candidates);
      }
    });
    {
      auto span = main_log->open("volume.aggregate", batch_id, -1);
      mdd::server::volume_to_json(aggregator.summarize(), session->netlist)
          .dump();
    }
    batch.close();
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& l : item_logs) logs_.push_back(std::move(l));
    n_datalogs_ += texts.size();
  }
  wall_s_ += std::chrono::duration<double>(Clock::now() - t0).count();
  std::lock_guard<std::mutex> lock(mutex_);
  logs_.push_back(std::move(main_log));
}

std::vector<SpanRecord> Replay::spans() const {
  std::vector<SpanRecord> all;
  for (const auto& log : logs_)
    all.insert(all.end(), log->spans().begin(), log->spans().end());
  return all;
}

}  // namespace perfbench
