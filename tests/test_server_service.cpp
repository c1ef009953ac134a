// End-to-end tests of the diagnosis service: served results must be
// byte-identical to direct (CLI-path) diagnosis, repeat requests must hit
// the session cache and memos without changing a single byte, deadlines
// must cut work short with a timeout/partial answer, and a saturated job
// queue must answer `overloaded` instead of queueing without bound (this
// file builds into the tsan-labelled binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/version.hpp"
#include "diag/multiplet.hpp"
#include "diag/single_fault.hpp"
#include "diag/slat.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/generator.hpp"
#include "obs/metrics.hpp"
#include "server/result_json.hpp"
#include "server/service.hpp"
#include "workload/textio.hpp"

namespace mdd::server {
namespace {

/// One circuit + pattern set on disk plus a datalog (inline text) for a
/// planted two-fault defect — the ingredients of a diagnose request.
struct ServiceFixture {
  std::string netlist_path;
  std::string patterns_path;
  std::string datalog_text;

  static ServiceFixture make(const std::string& tag) {
    const Netlist netlist = make_named_circuit("g200");
    const PatternSet patterns =
        PatternSet::random(128, netlist.n_inputs(), 0x5EED);
    FaultSimulator fsim(netlist, patterns);
    const std::vector<Fault> defect{
        Fault::stem_sa(netlist.n_nets() / 3, false),
        Fault::stem_sa(netlist.n_nets() / 2, true)};
    const Datalog log = datalog_from_defect(netlist, defect, patterns,
                                            fsim.good_response());
    EXPECT_TRUE(log.has_failures());

    ServiceFixture f;
    f.netlist_path = ::testing::TempDir() + "svc_" + tag + ".bench";
    f.patterns_path = ::testing::TempDir() + "svc_" + tag + ".patterns";
    std::ofstream(f.netlist_path) << write_bench_string(netlist);
    write_patterns_file(f.patterns_path, patterns);
    std::ostringstream dl;
    write_datalog(dl, log, netlist);
    f.datalog_text = dl.str();
    return f;
  }

  Json diagnose_request(const std::string& method) const {
    Json r;
    r.set("op", "diagnose");
    r.set("netlist", netlist_path);
    r.set("patterns", patterns_path);
    r.set("datalog", datalog_text);
    r.set("method", method);
    return r;
  }

  /// What the CLI path computes for the same inputs: parse the same files,
  /// build a plain context (no session cache, memos, or shared baseline),
  /// run the diagnoser, serialize through the shared schema.
  std::string direct_reports_json(const std::string& method) const {
    const Netlist netlist = parse_bench_file(netlist_path).netlist;
    const PatternSet patterns = read_patterns_file(patterns_path);
    std::istringstream in(datalog_text);
    const Datalog log = read_datalog(in, netlist);
    DiagnosisContext ctx(netlist, patterns, log);
    std::vector<DiagnosisReport> reports;
    if (method == "multiplet") reports.push_back(diagnose_multiplet(ctx));
    if (method == "slat") reports.push_back(diagnose_slat(ctx));
    if (method == "single") reports.push_back(diagnose_single_fault(ctx));
    return reports_to_json(reports, netlist).dump();
  }
};

std::string reports_dump(const Json& response) {
  const Json* reports = response.find("reports");
  EXPECT_NE(reports, nullptr);
  return reports == nullptr ? std::string() : reports->dump();
}

TEST(ServiceDifferential, ServedReportsMatchDirectDiagnosisByteForByte) {
  const ServiceFixture f = ServiceFixture::make("diff");
  DiagnosisService service;
  for (const std::string method : {"single", "multiplet", "slat"}) {
    const Json response = service.handle(f.diagnose_request(method));
    EXPECT_EQ(response.get_string("status"), "ok") << method;
    EXPECT_EQ(reports_dump(response), f.direct_reports_json(method))
        << method;
  }
}

TEST(ServiceDifferential, RepeatRequestHitsCacheAndStaysIdentical) {
  const ServiceFixture f = ServiceFixture::make("repeat");
  DiagnosisService service;
  const Json request = f.diagnose_request("all");
  obs::Counter& memo_hits = obs::registry().counter("memo.signature.hits");
  obs::Counter& trace_hits = obs::registry().counter("memo.trace.hits");

  // First request loads the session; repeats are served from the session
  // cache with warm signature/trace memos — and must not change a byte.
  const Json first = service.handle(request);
  EXPECT_EQ(first.get_string("status"), "ok");
  EXPECT_EQ(first.get_string("cache"), "miss");
  const std::uint64_t memo_hits_before = memo_hits.value();
  const std::uint64_t trace_hits_before = trace_hits.value();
  for (int i = 0; i < 2; ++i) {
    const Json again = service.handle(request);
    EXPECT_EQ(again.get_string("status"), "ok");
    EXPECT_EQ(again.get_string("cache"), "hit");
    EXPECT_EQ(reports_dump(again), reports_dump(first));
  }

  EXPECT_GT(memo_hits.value(), memo_hits_before);
  EXPECT_GT(trace_hits.value(), trace_hits_before);
}

TEST(ServiceDeadline, ExpiredDeadlineYieldsTimeoutWithPartialResult) {
  const ServiceFixture f = ServiceFixture::make("deadline");
  DiagnosisService service;
  Json request = f.diagnose_request("single");
  // Sub-millisecond budget: expired before the first cancellation
  // checkpoint, so the diagnoser winds down immediately.
  request.set("deadline_ms", 0.001);
  const Json response = service.handle(request);
  EXPECT_EQ(response.get_string("status"), "timeout");
  EXPECT_TRUE(response.get_bool("partial"));
  // A partial report is still delivered (and still schema-valid).
  EXPECT_NE(response.find("reports"), nullptr);
}

TEST(ServiceDeadline, SleepHonorsDeadline) {
  DiagnosisService service;
  Json request;
  request.set("op", "sleep");
  request.set("ms", 10000.0);
  request.set("deadline_ms", 30.0);
  const auto t0 = std::chrono::steady_clock::now();
  const Json response = service.handle(request);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(response.get_string("status"), "timeout");
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(ServiceQueue, SaturatedQueueAnswersOverloaded) {
  ServiceOptions options;
  options.n_workers = 1;
  options.queue_depth = 1;
  DiagnosisService service(options);
  const std::uint64_t rejects_before =
      obs::registry().counter("server.queue_rejects").value();

  // One worker busy on a long sleep + a depth-1 queue: a burst of
  // submissions must get explicit `overloaded` rejects, and every submit
  // must be answered exactly once.
  constexpr int kBurst = 8;
  std::mutex mutex;
  std::condition_variable all_done;
  std::vector<std::string> statuses;
  for (int i = 0; i < kBurst; ++i) {
    Json request;
    request.set("op", "sleep");
    request.set("ms", 300.0);
    request.set("id", i);
    service.submit(std::move(request), [&](Json response) {
      std::lock_guard<std::mutex> lock(mutex);
      statuses.push_back(response.get_string("status"));
      all_done.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    all_done.wait(lock, [&] { return statuses.size() == kBurst; });
  }
  service.shutdown();

  int n_ok = 0, n_overloaded = 0;
  for (const std::string& s : statuses) {
    if (s == "ok") ++n_ok;
    if (s == "overloaded") ++n_overloaded;
  }
  EXPECT_EQ(n_ok + n_overloaded, kBurst);
  EXPECT_GE(n_ok, 1);
  EXPECT_GE(n_overloaded, 1);

  const Json stats = service.stats_json();
  const Json* queue = stats.find("queue");
  ASSERT_NE(queue, nullptr);
  EXPECT_GE(queue->get_number("rejected"),
            static_cast<double>(rejects_before + 1));
}

TEST(ServiceQueue, DeadlineSpentInQueueAnswersTimeoutWithoutRunning) {
  ServiceOptions options;
  options.n_workers = 1;
  options.queue_depth = 8;
  DiagnosisService service(options);

  std::mutex mutex;
  std::condition_variable done_cv;
  std::vector<Json> responses;
  auto collect = [&](Json response) {
    std::lock_guard<std::mutex> lock(mutex);
    responses.push_back(std::move(response));
    done_cv.notify_one();
  };

  // First job occupies the only worker well past the second job's
  // deadline; the second must be answered `timeout` from the queue,
  // without occupying the worker.
  Json blocker;
  blocker.set("op", "sleep");
  blocker.set("ms", 400.0);
  blocker.set("id", "blocker");
  service.submit(std::move(blocker), collect);

  Json doomed;
  doomed.set("op", "sleep");
  doomed.set("ms", 0.0);
  doomed.set("id", "doomed");
  doomed.set("deadline_ms", 50.0);
  service.submit(std::move(doomed), collect);

  {
    std::unique_lock<std::mutex> lock(mutex);
    done_cv.wait(lock, [&] { return responses.size() == 2; });
  }
  service.shutdown();

  for (const Json& r : responses) {
    if (r.get_string("id", "x") == "doomed") {
      EXPECT_EQ(r.get_string("status"), "timeout");
      EXPECT_EQ(r.get_string("where"), "queue");
    } else {
      EXPECT_EQ(r.get_string("status"), "ok");
    }
  }
}

TEST(ServiceProtocol, MalformedRequestsAnswerErrorNotCrash) {
  const ServiceFixture f = ServiceFixture::make("errors");
  DiagnosisService service;

  {  // Unknown op.
    Json r;
    r.set("op", "frobnicate");
    EXPECT_EQ(service.handle(r).get_string("status"), "error");
  }
  {  // Not an object at all.
    EXPECT_EQ(service.handle(Json(3.0)).get_string("status"), "error");
  }
  {  // Missing required paths.
    Json r;
    r.set("op", "diagnose");
    EXPECT_EQ(service.handle(r).get_string("status"), "error");
  }
  {  // Both inline datalog and datalog_file.
    Json r = f.diagnose_request("single");
    r.set("datalog_file", "/nonexistent");
    EXPECT_EQ(service.handle(r).get_string("status"), "error");
  }
  {  // Unknown method.
    Json r = f.diagnose_request("psychic");
    EXPECT_EQ(service.handle(r).get_string("status"), "error");
  }
  {  // Unreadable netlist path — load failure surfaces as error.
    Json r = f.diagnose_request("single");
    r.set("netlist", ::testing::TempDir() + "svc_nosuch.bench");
    const Json response = service.handle(r);
    EXPECT_EQ(response.get_string("status"), "error");
    EXPECT_FALSE(response.get_string("error").empty());
  }
}

TEST(ServiceDeadline, FractionalDeadlineMeansTheSameOnEveryPath) {
  // Regression: handle() used to truncate deadline_ms with
  // static_cast<long>, so 0.5 became 0 = "no deadline" and a long sleep
  // ran to completion — while the same request through submit() (which
  // converted at microsecond resolution) timed out. Both paths now share
  // deadline_budget().
  DiagnosisService service;
  Json request;
  request.set("op", "sleep");
  request.set("ms", 2000.0);
  request.set("deadline_ms", 0.5);

  const auto t0 = std::chrono::steady_clock::now();
  const Json direct = service.handle(request);
  EXPECT_EQ(direct.get_string("status"), "timeout")
      << "handle() must honor a sub-millisecond deadline";
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));

  std::mutex mutex;
  std::condition_variable done_cv;
  std::optional<Json> submitted;
  service.submit(request, [&](Json response) {
    std::lock_guard<std::mutex> lock(mutex);
    submitted = std::move(response);
    done_cv.notify_one();
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    done_cv.wait(lock, [&] { return submitted.has_value(); });
  }
  EXPECT_EQ(submitted->get_string("status"), direct.get_string("status"));
}

TEST(ServiceDeadline, InvalidDeadlineIsRejectedNotIgnored) {
  DiagnosisService service;
  for (const Json& bad :
       {Json(-1.0), Json(std::nan("")),
        Json(std::numeric_limits<double>::infinity()), Json("soon")}) {
    Json request;
    request.set("op", "ping");
    request.set("deadline_ms", bad);
    EXPECT_EQ(service.handle(request).get_string("status"), "error")
        << bad.dump();

    std::mutex mutex;
    std::condition_variable done_cv;
    std::optional<Json> submitted;
    service.submit(request, [&](Json response) {
      std::lock_guard<std::mutex> lock(mutex);
      submitted = std::move(response);
      done_cv.notify_one();
    });
    {
      std::unique_lock<std::mutex> lock(mutex);
      done_cv.wait(lock, [&] { return submitted.has_value(); });
    }
    EXPECT_EQ(submitted->get_string("status"), "error") << bad.dump();
  }
}

TEST(ServiceDeadline, DeadlinePastTheBoundIsRejectedNotWrapped) {
  // Regression: any finite deadline_ms (or --default-deadline-ms) was
  // cast to steady_clock's nanosecond count, so 1e13 and 1e300 wrapped to
  // a negative budget and a sleep answered `timeout` at once.
  const auto budget_of = [](double ms) {
    Json request;
    request.set("deadline_ms", ms);
    return deadline_budget(request);
  };
  const auto largest = budget_of(kMaxDeadlineMs);
  ASSERT_TRUE(largest.has_value());
  EXPECT_EQ(std::chrono::duration_cast<std::chrono::milliseconds>(*largest)
                .count(),
            static_cast<std::int64_t>(kMaxDeadlineMs));
  for (const double bad : {1e13, 1e300})
    EXPECT_THROW(budget_of(bad), std::invalid_argument) << bad;

  ServiceOptions huge_default;
  huge_default.default_deadline = std::chrono::milliseconds(10'000'000'000'000);
  EXPECT_THROW(DiagnosisService{huge_default}, std::invalid_argument);

  DiagnosisService service;
  Json request;
  request.set("op", "sleep");
  request.set("ms", 5.0);
  request.set("deadline_ms", 1e300);
  const Json response = service.handle(request);
  EXPECT_EQ(response.get_string("status"), "error") << response.dump();
  EXPECT_NE(response.get_string("error").find("deadline_ms"),
            std::string::npos);
}

/// The op=stats value at a dotted `path` ("memos.signature.hits").
double stats_at(const Json& stats, const std::string& path) {
  const Json* node = &stats;
  std::istringstream parts(path);
  for (std::string key; std::getline(parts, key, '.');) {
    node = node->find(key);
    if (node == nullptr) {
      ADD_FAILURE() << "op=stats has no " << path;
      return -1;
    }
  }
  return node->as_number(-1);
}

TEST(ServiceStats, EveryCountEqualsItsRegistrySeriesAcrossEviction) {
  // op=stats reads its counts from the registry: they match op=metrics
  // and /metrics exactly, and memo traffic does not drop when the session
  // that produced it is evicted (a sum over resident sessions did).
  const ServiceFixture a = ServiceFixture::make("stats_a");
  const ServiceFixture b = ServiceFixture::make("stats_b");
  std::size_t one = 0;
  {
    SessionCache scout(1ull << 30);
    one = scout.get(a.netlist_path, a.patterns_path)->approx_bytes;
  }
  ServiceOptions options;
  options.n_workers = 1;
  options.queue_depth = 1;
  options.cache_bytes = one + one / 2;  // holds one session
  DiagnosisService service(options);

  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(service.handle(a.diagnose_request("all")).get_string("status"),
              "ok");
  const Json before_eviction = service.stats_json();
  EXPECT_GT(stats_at(before_eviction, "memos.signature.hits"), 0);
  ASSERT_EQ(service.handle(b.diagnose_request("single")).get_string("status"),
            "ok");
  const Json after_eviction = service.stats_json();
  EXPECT_GE(stats_at(after_eviction, "cache.evictions"),
            stats_at(before_eviction, "cache.evictions") + 1);
  EXPECT_EQ(stats_at(after_eviction, "cache.entries"), 1);
  for (const char* layer : {"signature", "trace", "composite"}) {
    const std::string hits = std::string("memos.") + layer + ".hits";
    EXPECT_GE(stats_at(after_eviction, hits), stats_at(before_eviction, hits))
        << hits << " dropped with the evicted session";
  }

  // One of each other status: an unknown op, a spent deadline, and a
  // burst past a busy worker and a depth-1 queue.
  Json unknown;
  unknown.set("op", "no_such_op");
  EXPECT_EQ(service.handle(unknown).get_string("status"), "error");
  Json doomed;
  doomed.set("op", "sleep");
  doomed.set("ms", 2000.0);
  doomed.set("deadline_ms", 1.0);
  EXPECT_EQ(service.handle(doomed).get_string("status"), "timeout");
  std::mutex mutex;
  std::condition_variable done_cv;
  std::vector<std::string> statuses;
  constexpr std::size_t kBurst = 4;
  for (std::size_t i = 0; i < kBurst; ++i) {
    Json sleep;
    sleep.set("op", "sleep");
    sleep.set("ms", 200.0);
    service.submit(std::move(sleep), [&](Json response) {
      std::lock_guard<std::mutex> lock(mutex);
      statuses.push_back(response.get_string("status"));
      done_cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    done_cv.wait(lock, [&] { return statuses.size() == kBurst; });
  }
  EXPECT_NE(std::count(statuses.begin(), statuses.end(), "overloaded"), 0);

  // Quiescent now: every count must equal its registry series.
  const Json stats = service.stats_json();
  const obs::Snapshot snap = obs::registry().snapshot();
  const auto series = [&snap](const std::string& name) -> double {
    for (const obs::CounterSample& c : snap.counters)
      if (c.name == name) return static_cast<double>(c.value);
    return 0;
  };
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"cache.hits", "sessions.hits"},
      {"cache.misses", "sessions.misses"},
      {"cache.evictions", "sessions.evictions"},
      {"queue.accepted", "server.queue_accepts"},
      {"queue.rejected", "server.queue_rejects"},
      {"memos.signature.store_hits", "store.hits"},
      {"memos.signature.store_misses", "store.misses"},
      {"store.hits", "store.hits"},
      {"store.misses", "store.misses"}};
  for (const char* status : {"ok", "error", "timeout", "overloaded"}) {
    pairs.emplace_back(std::string("requests.") + status,
                       std::string("server.requests.") + status);
    EXPECT_GE(stats_at(stats, std::string("requests.") + status), 1)
        << status;
  }
  for (const char* layer : {"signature", "trace", "composite"})
    for (const char* count : {"hits", "misses", "evictions"})
      pairs.emplace_back(std::string("memos.") + layer + "." + count,
                         std::string("memo.") + layer + "." + count);
  for (const auto& [path, name] : pairs)
    EXPECT_EQ(stats_at(stats, path), series(name)) << path << " vs " << name;
}

TEST(ServiceTrace, OptInTraceReportsStagesCoveringTheRequest) {
  const ServiceFixture f = ServiceFixture::make("trace");
  DiagnosisService service;
  Json request = f.diagnose_request("single");

  // Without the opt-in field no trace is attached.
  EXPECT_EQ(service.handle(request).find("trace"), nullptr);

  request.set("trace", true);
  const Json response = service.handle(request);
  ASSERT_EQ(response.get_string("status"), "ok");
  const Json* trace = response.find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_TRUE(trace->is_array());

  double stage_sum = 0.0;
  bool saw_session = false, saw_rank = false, saw_serialize = false;
  for (const Json& span : trace->as_array()) {
    const std::string stage = span.get_string("stage");
    if (span.get_number("depth", 0.0) == 0.0)
      stage_sum += span.get_number("ms");
    saw_session |= stage == "session";
    saw_rank |= stage == "rank:single";
    saw_serialize |= stage == "serialize";
  }
  EXPECT_TRUE(saw_session);
  EXPECT_TRUE(saw_rank);
  EXPECT_TRUE(saw_serialize);

  // The stages must account for (most of) the reported end-to-end time:
  // the acceptance bound is stage-sum within 20% of total.
  const Json* timings = response.find("timings_ms");
  ASSERT_NE(timings, nullptr);
  const double total = timings->get_number("total");
  EXPECT_GT(stage_sum, 0.0);
  EXPECT_LE(stage_sum, total * 1.001 + 0.1);
  EXPECT_GE(stage_sum, total * 0.8 - 0.1)
      << "per-stage spans cover too little of the request";
}

TEST(ServiceMetrics, MetricsOpReturnsRegistrySnapshot) {
  const ServiceFixture f = ServiceFixture::make("metrics");
  DiagnosisService service;
  EXPECT_EQ(service.handle(f.diagnose_request("single")).get_string("status"),
            "ok");

  Json request;
  request.set("op", "metrics");
  const Json response = service.handle(request);
  EXPECT_EQ(response.get_string("status"), "ok");
  const Json* metrics = response.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const Json* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  // The diagnose above must have moved the core serving counters.
  EXPECT_GE(counters->get_number("server.requests.ok"), 1.0);
  EXPECT_GE(counters->get_number("sessions.misses"), 1.0);
  EXPECT_GE(counters->get_number("diag.contexts"), 1.0);
  const Json* histograms = metrics->find("histograms");
  ASSERT_NE(histograms, nullptr);
  const Json* request_ms = histograms->find("server.request_ms");
  ASSERT_NE(request_ms, nullptr);
  EXPECT_GE(request_ms->get_number("count"), 1.0);
}

TEST(ServiceSlowLog, SlowRequestsEmitOneStructuredLine) {
  ServiceOptions options;
  std::ostringstream slow_log;
  options.slow_ms = 1.0;
  options.slow_log = &slow_log;
  DiagnosisService service(options);

  Json fast;
  fast.set("op", "ping");
  EXPECT_EQ(service.handle(fast).get_string("status"), "ok");
  EXPECT_TRUE(slow_log.str().empty());

  Json slow;
  slow.set("op", "sleep");
  slow.set("ms", 20.0);
  slow.set("id", "slowpoke");
  EXPECT_EQ(service.handle(slow).get_string("status"), "ok");
  ASSERT_FALSE(slow_log.str().empty());

  const Json record = Json::parse(
      slow_log.str().substr(0, slow_log.str().find('\n')));
  EXPECT_EQ(record.get_string("event"), "slow_request");
  EXPECT_EQ(record.get_string("id"), "slowpoke");
  EXPECT_EQ(record.get_string("op"), "sleep");
  EXPECT_GE(record.get_number("total_ms"), 1.0);
  EXPECT_NE(record.find("stages_ms"), nullptr);
}

TEST(ServiceProtocol, PingEchoesIdAndVersion) {
  DiagnosisService service;
  Json request;
  request.set("op", "ping");
  request.set("id", 42);
  const Json response = service.handle(request);
  EXPECT_EQ(response.get_string("status"), "ok");
  EXPECT_EQ(response.get_string("version"), std::string(kVersion));
  const Json* id = response.find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->as_number(), 42.0);
}

}  // namespace
}  // namespace mdd::server
