// Tests of the metrics registry and trace spans: histogram bin boundaries
// are inclusive upper bounds, counters stay exact under concurrent
// increments, registry handles are stable and kind-checked, the
// Prometheus exposition is well-formed, and nested trace spans record
// depth and duration. Builds into the tsan-labelled binary — the atomic
// instruments are exactly the surface that job checks.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mdd::obs {
namespace {

TEST(Histogram, BinBoundariesAreInclusiveUpperBounds) {
  const std::array<double, 2> bounds{1.0, 10.0};
  Histogram h(bounds);
  ASSERT_EQ(h.n_bins(), 3u);  // two bounds + the implicit +Inf bin

  h.observe(0.5);   // <= 1.0        -> bin 0
  h.observe(1.0);   // le is inclusive -> bin 0
  h.observe(1.5);   // <= 10.0       -> bin 1
  h.observe(10.0);  //               -> bin 1
  h.observe(11.0);  // beyond bounds -> +Inf bin

  EXPECT_EQ(h.bin(0), 2u);
  EXPECT_EQ(h.bin(1), 2u);
  EXPECT_EQ(h.bin(2), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 10.0 + 11.0);
}

TEST(Histogram, RejectsNonIncreasingBounds) {
  const std::array<double, 2> equal{1.0, 1.0};
  EXPECT_THROW(Histogram{equal}, std::invalid_argument);
  const std::array<double, 2> decreasing{2.0, 1.0};
  EXPECT_THROW(Histogram{decreasing}, std::invalid_argument);
}

TEST(Counter, ExactUnderConcurrentIncrements) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Registry, SameNameReturnsSameHandleDifferentKindThrows) {
  Counter& a = registry().counter("obs_test.stable_handle");
  a.inc(3);
  Counter& b = registry().counter("obs_test.stable_handle");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_THROW(registry().gauge("obs_test.stable_handle"), std::logic_error);
  EXPECT_THROW(registry().latency("obs_test.stable_handle"),
               std::logic_error);
}

TEST(Registry, ConcurrentRegistrationAndUseIsSafe) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([] {
      // Resolve inside the thread: registration races are the point.
      Counter& c = registry().counter("obs_test.concurrent_reg");
      Histogram& h = registry().latency("obs_test.concurrent_hist");
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(static_cast<double>(i % 7));
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry().counter("obs_test.concurrent_reg").value(),
            kThreads * kPerThread);
  EXPECT_EQ(registry().latency("obs_test.concurrent_hist").count(),
            kThreads * kPerThread);
}

TEST(Registry, SnapshotIsSortedAndComplete) {
  registry().counter("obs_test.snap_a").inc();
  registry().counter("obs_test.snap_b").inc(2);
  registry().gauge("obs_test.snap_gauge").set(-5);
  const Snapshot snap = registry().snapshot();

  bool found_a = false, found_b = false, found_gauge = false;
  for (std::size_t i = 1; i < snap.counters.size(); ++i)
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  for (const CounterSample& c : snap.counters) {
    if (c.name == "obs_test.snap_a") found_a = c.value >= 1;
    if (c.name == "obs_test.snap_b") found_b = c.value >= 2;
  }
  for (const GaugeSample& g : snap.gauges)
    if (g.name == "obs_test.snap_gauge") found_gauge = g.value == -5;
  EXPECT_TRUE(found_a);
  EXPECT_TRUE(found_b);
  EXPECT_TRUE(found_gauge);
}

TEST(Prometheus, ExpositionIsWellFormedAndCumulative) {
  Snapshot snap;
  snap.counters.push_back({"server.requests.ok", 7});
  snap.gauges.push_back({"server.queue_depth", 3});
  HistogramSample h;
  h.name = "server.request_ms";
  h.bounds = {1.0, 10.0};
  h.bins = {2, 1, 1};  // +Inf bin last
  h.count = 4;
  h.sum = 15.5;
  snap.histograms.push_back(h);

  const std::string text = render_prometheus(snap);
  // Dots become underscores; no '.' may survive into a metric name.
  EXPECT_NE(text.find("server_requests_ok 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE server_requests_ok counter"),
            std::string::npos);
  EXPECT_NE(text.find("server_queue_depth 3"), std::string::npos);
  // Buckets are cumulative: 2, then 2+1, then the total in +Inf.
  EXPECT_NE(text.find("server_request_ms_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("server_request_ms_bucket{le=\"10\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("server_request_ms_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("server_request_ms_count 4"), std::string::npos);
  EXPECT_NE(text.find("server_request_ms_sum 15.5"), std::string::npos);
}

TEST(Trace, NestedSpansRecordDepthAndDuration) {
  Trace trace;
  {
    auto outer = trace.span("outer");
    { auto inner = trace.span("inner"); }
    { auto inner2 = trace.span("inner2"); }
  }
  { auto tail = trace.span("tail"); }

  const auto& spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].stage, "outer");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].stage, "inner");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].stage, "inner2");
  EXPECT_EQ(spans[2].depth, 1);
  EXPECT_EQ(spans[3].stage, "tail");
  EXPECT_EQ(spans[3].depth, 0);
  for (const Trace::SpanRecord& s : spans) EXPECT_GE(s.ms, 0.0);
  // Nested spans live inside their parent, so the top-level total bounds
  // them and never exceeds the trace's own lifetime.
  EXPECT_GE(spans[0].ms, spans[1].ms + spans[2].ms - 1e-6);
  EXPECT_DOUBLE_EQ(trace.top_level_ms(), spans[0].ms + spans[3].ms);
  EXPECT_LE(trace.top_level_ms(), trace.ms_since_start() + 1e-6);
}

TEST(Trace, EarlyCloseFreezesDurationAndMoveTransfersOwnership) {
  Trace trace;
  auto span = trace.span("frozen");
  span.close();
  const double frozen = trace.spans()[0].ms;
  span.close();  // second close is a no-op
  EXPECT_DOUBLE_EQ(trace.spans()[0].ms, frozen);

  auto a = trace.span("moved");
  auto b = std::move(a);
  b.close();
  EXPECT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[1].stage, "moved");
}

}  // namespace
}  // namespace mdd::obs
