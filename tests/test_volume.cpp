// Volume-diagnosis pipeline tests: the VolumeAggregator's deterministic
// cross-datalog reduction, and the `op=diagnose_batch` serving path — the
// batch contract (per-datalog reports byte-identical to sequential single
// requests at every thread count), streamed-item ordering, per-item error
// isolation, input validation, and session survival under a cache budget
// too small for the session (this file builds into the tsan-labelled
// binary because batches spawn their own worker threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <clocale>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cancel.hpp"
#include "diag/datalog.hpp"
#include "diag/diagnosis.hpp"
#include "diag/volume.hpp"
#include "fsim/fsim.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/generator.hpp"
#include "obs/metrics.hpp"
#include "server/reorder.hpp"
#include "server/service.hpp"
#include "workload/textio.hpp"

namespace mdd::server {
namespace {

DatalogVolumeRecord make_rec(std::size_t index, std::vector<Fault> suspects,
                             std::vector<double> scores,
                             std::size_t n_failing = 4) {
  DatalogVolumeRecord r;
  r.index = index;
  r.ok = true;
  r.n_failing_patterns = n_failing;
  r.suspects = std::move(suspects);
  r.scores = std::move(scores);
  return r;
}

TEST(VolumeAggregator, ClassifiesRecurrentCandidatesSystematic) {
  const Fault recurrent = Fault::stem_sa(5, false);
  const Fault once_a = Fault::stem_sa(9, true);
  const Fault once_b = Fault::stem_sa(11, true);

  VolumeAggregator agg(5);
  // `recurrent` tops three of five datalogs; the other two are one-offs.
  agg.record(make_rec(0, {recurrent}, {10.0}));
  agg.record(make_rec(1, {recurrent, once_a}, {8.0, 2.0}));
  agg.record(make_rec(2, {recurrent}, {12.0}));
  agg.record(make_rec(3, {once_a}, {5.0}));
  agg.record(make_rec(4, {once_b}, {6.0}));

  const VolumeSummary s = agg.summarize();
  EXPECT_EQ(s.n_datalogs, 5u);
  EXPECT_EQ(s.n_diagnosed, 5u);
  EXPECT_EQ(s.n_distinct_candidates, 3u);

  ASSERT_FALSE(s.recurrences.empty());
  const CandidateRecurrence& top = s.recurrences.front();
  EXPECT_EQ(top.fault, recurrent);
  EXPECT_EQ(top.n_datalogs, 3u);
  EXPECT_EQ(top.n_rank1, 3u);
  EXPECT_DOUBLE_EQ(top.total_score, 30.0);
  EXPECT_DOUBLE_EQ(top.best_score, 12.0);
  EXPECT_TRUE(top.systematic);

  // once_a appears in two datalogs — exactly the min_recurrences floor
  // (max(2, 0.25*5=1)), so it classifies systematic too; once_b does not.
  for (const CandidateRecurrence& r : s.recurrences) {
    if (r.fault == once_a) {
      EXPECT_TRUE(r.systematic);
    }
    if (r.fault == once_b) {
      EXPECT_FALSE(r.systematic);
    }
  }

  // Datalogs classify by their TOP suspect: 0,1,2 (recurrent) and
  // 3 (once_a, systematic) vs 4 (once_b).
  EXPECT_EQ(s.n_systematic_datalogs, 4u);
  EXPECT_EQ(s.n_random_datalogs, 1u);
}

TEST(VolumeAggregator, SummaryIsIndependentOfRecordArrivalOrder) {
  const Fault a = Fault::stem_sa(3, false);
  const Fault b = Fault::stem_sa(7, true);
  const auto records = [&] {
    return std::vector<DatalogVolumeRecord>{
        make_rec(0, {a, b}, {4.0, 1.0}, 2),
        make_rec(1, {b}, {9.0}, 5),
        make_rec(2, {a}, {3.0}, 17),
    };
  };

  VolumeAggregator fwd(3), rev(3);
  for (const auto& r : records()) fwd.record(r);
  auto rs = records();
  for (auto it = rs.rbegin(); it != rs.rend(); ++it) rev.record(*it);

  const VolumeSummary x = fwd.summarize(), y = rev.summarize();
  ASSERT_EQ(x.recurrences.size(), y.recurrences.size());
  for (std::size_t i = 0; i < x.recurrences.size(); ++i) {
    EXPECT_EQ(x.recurrences[i].fault, y.recurrences[i].fault);
    EXPECT_EQ(x.recurrences[i].n_datalogs, y.recurrences[i].n_datalogs);
    EXPECT_DOUBLE_EQ(x.recurrences[i].total_score,
                     y.recurrences[i].total_score);
  }
  ASSERT_EQ(x.net_hits.size(), y.net_hits.size());
  for (std::size_t i = 0; i < x.net_hits.size(); ++i)
    EXPECT_EQ(x.net_hits[i], y.net_hits[i]);
}

TEST(VolumeAggregator, PatternHistogramUsesPowerOfTwoBuckets) {
  const Fault f = Fault::stem_sa(2, false);
  VolumeAggregator agg(6);
  const std::size_t counts[] = {0, 1, 2, 4, 7, 9};
  for (std::size_t i = 0; i < 6; ++i)
    agg.record(make_rec(i, {f}, {1.0}, counts[i]));

  const VolumeSummary s = agg.summarize();
  std::vector<std::string> labels;
  for (const VolumeBucket& b : s.failing_pattern_hist)
    labels.push_back(b.label);
  EXPECT_EQ(labels, (std::vector<std::string>{"0", "1", "2", "3-4", "5-8",
                                              "9-16"}));
}

TEST(VolumeAggregator, FailedAndUnfilledRecordsAreAccounted) {
  VolumeAggregator agg(3);
  DatalogVolumeRecord failed;
  failed.index = 1;  // ok stays false: the item that threw
  agg.record(std::move(failed));
  agg.record(make_rec(2, {Fault::stem_sa(4, false)}, {2.0}));
  // index 0 never arrives (e.g. batch cancelled before it ran)

  const VolumeSummary s = agg.summarize();
  EXPECT_EQ(s.n_datalogs, 3u);
  EXPECT_EQ(s.n_diagnosed, 1u);
  EXPECT_EQ(s.n_failed, 1u);

  DatalogVolumeRecord out_of_range;
  out_of_range.index = 3;
  EXPECT_THROW(agg.record(std::move(out_of_range)), std::out_of_range);
}

TEST(VolumeAggregator, SystematicFractionFloorRoundsUpNotDown) {
  // 9 diagnosed datalogs at fraction 0.3: the floor is ceil(2.7) = 3.
  // The old truncating cast gave 2, misclassifying a twice-seen candidate
  // as systematic.
  const Fault twice = Fault::stem_sa(5, false);
  const Fault thrice = Fault::stem_sa(9, true);
  const Fault filler = Fault::stem_sa(13, false);
  VolumeOptions options;
  options.systematic_fraction = 0.3;
  options.min_recurrences = 2;

  VolumeAggregator agg(9, options);
  agg.record(make_rec(0, {twice}, {4.0}));
  agg.record(make_rec(1, {twice}, {4.0}));
  agg.record(make_rec(2, {thrice}, {4.0}));
  agg.record(make_rec(3, {thrice}, {4.0}));
  agg.record(make_rec(4, {thrice}, {4.0}));
  for (std::size_t i = 5; i < 9; ++i)
    agg.record(make_rec(i, {filler}, {1.0}));

  const VolumeSummary s = agg.summarize();
  ASSERT_EQ(s.n_diagnosed, 9u);
  for (const CandidateRecurrence& r : s.recurrences) {
    if (r.fault == twice) {
      EXPECT_FALSE(r.systematic) << "2 of 9 is below ceil(0.3*9)=3";
    }
    if (r.fault == thrice) {
      EXPECT_TRUE(r.systematic);
    }
  }
  // Top-suspect classification moves with the corrected floor too: the
  // two `twice` datalogs are random, not systematic.
  EXPECT_EQ(s.n_systematic_datalogs, 7u);
  EXPECT_EQ(s.n_random_datalogs, 2u);
}

TEST(VolumeAggregator, ExactlyAtFractionThresholdIsSystematic) {
  // ceil must not overshoot: 0.25 of 8 diagnosed is exactly 2 — an
  // integral product needs no rounding, and 2 recurrences qualify.
  const Fault edge = Fault::stem_sa(5, false);
  const Fault filler = Fault::stem_sa(13, false);
  VolumeOptions options;
  options.systematic_fraction = 0.25;
  options.min_recurrences = 1;

  VolumeAggregator agg(8, options);
  agg.record(make_rec(0, {edge}, {4.0}));
  agg.record(make_rec(1, {edge}, {4.0}));
  for (std::size_t i = 2; i < 8; ++i)
    agg.record(make_rec(i, {filler}, {1.0}));

  const VolumeSummary s = agg.summarize();
  ASSERT_EQ(s.n_diagnosed, 8u);
  bool saw_edge = false;
  for (const CandidateRecurrence& r : s.recurrences) {
    if (r.fault == edge) {
      saw_edge = true;
      EXPECT_TRUE(r.systematic) << "exactly fraction*diagnosed qualifies";
    }
  }
  EXPECT_TRUE(saw_edge);
}

TEST(VolumeAggregator, BridgeFaultsHitBothNets) {
  const Fault bridge = Fault::bridge_dom(6, 13);
  VolumeAggregator agg(1);
  agg.record(make_rec(0, {bridge}, {3.0}));
  const VolumeSummary s = agg.summarize();
  ASSERT_EQ(s.net_hits.size(), 2u);
  EXPECT_EQ(s.net_hits[0], (std::pair<NetId, std::size_t>{6, 1}));
  EXPECT_EQ(s.net_hits[1], (std::pair<NetId, std::size_t>{13, 1}));
}

Json indexed_item(std::size_t i) {
  Json item;
  item.set("index", static_cast<double>(i));
  return item;
}

TEST(ReorderBuffer, WorstCaseScheduleEmitsInOrderWithBoundedPeak) {
  // The pathological schedule: item 0 finishes LAST. Nothing may reach
  // the sink until it lands, then the whole batch drains in index order,
  // and the high-water mark records that 8 items were buffered at once.
  constexpr std::size_t kN = 8;
  std::vector<std::size_t> emitted;
  ReorderBuffer buffer(kN, [&](const Json& item) {
    emitted.push_back(static_cast<std::size_t>(item.get_number("index")));
  });
  for (std::size_t i = kN - 1; i >= 1; --i) {
    buffer.publish(i, indexed_item(i));
    EXPECT_TRUE(emitted.empty()) << "nothing may emit before index 0";
  }
  EXPECT_EQ(buffer.high_water(), kN - 1);
  buffer.publish(0, indexed_item(0));
  ASSERT_EQ(emitted.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(emitted[i], i);
  EXPECT_EQ(buffer.high_water(), kN);

  // Duplicate and out-of-range publishes are dropped, not re-emitted.
  buffer.publish(3, indexed_item(3));
  buffer.publish(kN + 5, indexed_item(kN + 5));
  EXPECT_EQ(emitted.size(), kN);
}

TEST(ReorderBuffer, ConcurrentPublishersStillEmitStrictIndexOrder) {
  constexpr std::size_t kN = 16;
  std::vector<std::size_t> emitted;
  ReorderBuffer buffer(kN, [&](const Json& item) {
    // The sink runs under the buffer's mutex: no extra lock needed.
    emitted.push_back(static_cast<std::size_t>(item.get_number("index")));
  });
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < kN; ++i)
    workers.emplace_back(
        [&buffer, i] { buffer.publish(i, indexed_item(i)); });
  for (std::thread& t : workers) t.join();

  ASSERT_EQ(emitted.size(), kN);
  for (std::size_t i = 0; i < kN; ++i)
    EXPECT_EQ(emitted[i], i) << "stream order must be index order";
  EXPECT_GE(buffer.high_water(), 1u);
  EXPECT_LE(buffer.high_water(), kN) << "buffering is bounded by the batch";
}

TEST(ReorderBuffer, NullSinkCollectsForTheInlineResponse) {
  constexpr std::size_t kN = 4;
  ReorderBuffer buffer(kN, nullptr);
  for (std::size_t i = kN; i-- > 0;) buffer.publish(i, indexed_item(i));
  EXPECT_EQ(buffer.high_water(), kN) << "nothing drains without a sink";
  const std::vector<Json> items = buffer.take_items();
  ASSERT_EQ(items.size(), kN);
  for (std::size_t i = 0; i < kN; ++i)
    EXPECT_EQ(static_cast<std::size_t>(items[i].get_number("index")), i);
}

/// One circuit + pattern set on disk plus three datalogs (distinct
/// planted defects) — the ingredients of a diagnose_batch request.
struct BatchFixture {
  std::string netlist_path;
  std::string patterns_path;
  std::vector<std::string> datalog_texts;
  /// Per defect, the datalog of an ATE that stopped after two failing
  /// patterns: a shorter window over the same defect.
  std::vector<std::string> truncated_texts;

  static BatchFixture make(const std::string& tag,
                           std::size_t n_datalogs = 3) {
    const Netlist netlist = make_named_circuit("g200");
    const PatternSet patterns =
        PatternSet::random(96, netlist.n_inputs(), 0xBA7C);
    FaultSimulator fsim(netlist, patterns);

    BatchFixture f;
    f.netlist_path = ::testing::TempDir() + "vol_" + tag + ".bench";
    f.patterns_path = ::testing::TempDir() + "vol_" + tag + ".patterns";
    std::ofstream(f.netlist_path) << write_bench_string(netlist);
    write_patterns_file(f.patterns_path, patterns);
    for (std::size_t i = 0; i < n_datalogs; ++i) {
      const std::vector<Fault> defect{
          Fault::stem_sa(netlist.n_nets() / 4 + 7 * i, i % 2 == 0),
          Fault::stem_sa(netlist.n_nets() / 2 + 5 * i, i % 2 == 1)};
      const Datalog log = datalog_from_defect(netlist, defect, patterns,
                                              fsim.good_response());
      EXPECT_TRUE(log.has_failures());
      std::ostringstream dl;
      write_datalog(dl, log, netlist);
      f.datalog_texts.push_back(dl.str());
      DatalogOptions ate;
      ate.max_failing_patterns = 2;
      const Datalog cut = datalog_from_defect(netlist, defect, patterns,
                                              fsim.good_response(), ate);
      EXPECT_LT(cut.n_patterns_applied, log.n_patterns_applied);
      std::ostringstream tl;
      write_datalog(tl, cut, netlist);
      f.truncated_texts.push_back(tl.str());
    }
    return f;
  }

  Json batch_request(std::size_t threads,
                     const std::string& method = "single") const {
    Json r;
    r.set("op", "diagnose_batch");
    r.set("netlist", netlist_path);
    r.set("patterns", patterns_path);
    JsonArray datalogs;
    for (const std::string& text : datalog_texts) datalogs.emplace_back(text);
    r.set("datalogs", Json(std::move(datalogs)));
    r.set("method", method);
    r.set("threads", threads);
    return r;
  }

  Json single_request(std::size_t i,
                      const std::string& method = "single") const {
    Json r;
    r.set("op", "diagnose");
    r.set("netlist", netlist_path);
    r.set("patterns", patterns_path);
    r.set("datalog", datalog_texts[i]);
    r.set("method", method);
    return r;
  }
};

std::vector<std::string> sequential_single_reports(
    const BatchFixture& f, const std::string& method = "single") {
  DiagnosisService service;
  std::vector<std::string> dumps;
  for (std::size_t i = 0; i < f.datalog_texts.size(); ++i) {
    const Json response = service.handle(f.single_request(i, method));
    EXPECT_EQ(response.get_string("status"), "ok");
    dumps.push_back(response.find("reports")->dump());
  }
  return dumps;
}

TEST(DiagnoseBatch, ReportsMatchSequentialSinglesAtEveryThreadCount) {
  BatchFixture f = BatchFixture::make("bytes");
  // A truncated copy shares its defect's faults under a shorter window.
  f.datalog_texts.push_back(f.truncated_texts[0]);
  const std::vector<std::string> singles = sequential_single_reports(f);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    DiagnosisService service;
    const Json response = service.handle(f.batch_request(threads));
    ASSERT_EQ(response.get_string("status"), "ok") << response.dump();
    EXPECT_EQ(response.get_string("op"), "diagnose_batch");
    EXPECT_EQ(static_cast<std::size_t>(response.get_number("n_datalogs")),
              f.datalog_texts.size());
    EXPECT_EQ(static_cast<std::size_t>(response.get_number("threads")),
              threads);

    const JsonArray& results = response.find("results")->as_array();
    ASSERT_EQ(results.size(), singles.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(static_cast<std::size_t>(results[i].get_number("index")), i);
      EXPECT_EQ(results[i].get_string("status"), "ok");
      EXPECT_EQ(results[i].find("reports")->dump(), singles[i])
          << "thread count " << threads << ", datalog " << i;
    }

    const Json* volume = response.find("volume");
    ASSERT_NE(volume, nullptr);
    EXPECT_EQ(static_cast<std::size_t>(volume->get_number("n_diagnosed")),
              f.datalog_texts.size());
    EXPECT_NE(response.find("amortization"), nullptr);
  }
}

TEST(DiagnoseBatch, RepeatedDatalogsAmortizeAndStayIdentical) {
  BatchFixture f = BatchFixture::make("amortize", 2);
  // Stream shape of volume diagnosis: the same two fail logs recur.
  for (int r = 0; r < 2; ++r)
    for (std::size_t i = 0; i < 2; ++i)
      f.datalog_texts.push_back(f.datalog_texts[i]);

  DiagnosisService service;
  const Json response = service.handle(f.batch_request(1));
  ASSERT_EQ(response.get_string("status"), "ok");
  const JsonArray& results = response.find("results")->as_array();
  ASSERT_EQ(results.size(), 6u);
  for (std::size_t i = 2; i < 6; ++i)
    EXPECT_EQ(results[i].find("reports")->dump(),
              results[i % 2].find("reports")->dump())
        << "repeat " << i << " must be byte-identical to its original";

  // The shared memos must absorb the repeats: across the batch, far
  // fewer solo signatures are simulated than candidate slots exist.
  const Json* amortization = response.find("amortization");
  ASSERT_NE(amortization, nullptr);
  const double candidates = amortization->get_number("candidates");
  const double computes = amortization->get_number("solo_computes");
  EXPECT_GT(candidates, 0.0);
  EXPECT_LE(computes, candidates / 2.0)
      << "a 3x-repeated stream must hit the memo for most slots";
}

TEST(DiagnoseBatch, EachCandidateFaultIsSimulatedOncePerWave) {
  // One wave (2 threads: up to 4 items): a truncated copy of defect 0
  // ahead of its full datalog, a repeat of that datalog, and defect 1.
  // The truncated item cannot store a window-cut result, so warming item
  // by item simulated its faults once for it and again for the full one.
  BatchFixture f = BatchFixture::make("once", 2);
  f.datalog_texts = {f.truncated_texts[0], f.datalog_texts[0],
                     f.datalog_texts[0], f.datalog_texts[1]};
  const std::vector<std::string> singles = sequential_single_reports(f);

  // The wave's distinct candidate faults, from contexts over the circuit
  // as the service parses it.
  const Netlist netlist = parse_bench_file(f.netlist_path).netlist;
  const PatternSet patterns = read_patterns_file(f.patterns_path);
  std::set<Fault> distinct;
  std::size_t slots = 0;
  for (const std::string& text : f.datalog_texts) {
    std::istringstream in(text);
    const Datalog log = read_datalog(in, netlist);
    DiagnosisContext ctx(netlist, patterns, log);
    for (std::size_t i = 0; i < ctx.n_candidates(); ++i)
      distinct.insert(ctx.candidate(i));
    slots += ctx.n_candidates();
  }
  ASSERT_LT(distinct.size(), slots);

  DiagnosisService service;  // fresh: empty memos
  const std::uint64_t diag_before =
      obs::registry().counter("diag.solo_computes").value();
  const std::uint64_t volume_before =
      obs::registry().counter("volume.solo_computes").value();
  const Json response = service.handle(f.batch_request(2));
  ASSERT_EQ(response.get_string("status"), "ok") << response.dump();
  const Json* amortization = response.find("amortization");
  ASSERT_NE(amortization, nullptr);
  EXPECT_EQ(static_cast<std::size_t>(amortization->get_number("candidates")),
            slots);
  EXPECT_EQ(
      static_cast<std::size_t>(amortization->get_number("solo_computes")),
      distinct.size());
  EXPECT_EQ(obs::registry().counter("volume.solo_computes").value() -
                volume_before,
            distinct.size());
  EXPECT_EQ(obs::registry().counter("diag.solo_computes").value() -
                diag_before,
            distinct.size());

  const JsonArray& results = response.find("results")->as_array();
  ASSERT_EQ(results.size(), singles.size());
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(results[i].find("reports")->dump(), singles[i]) << i;
}

TEST(DiagnoseBatch, DeadlineInsideTheWarmStillAnswersEveryItem) {
  // A token that is already cancelled trips at the warm's first check:
  // the lookups ran, no simulation did. Every item must still answer,
  // its cold slots filled lazily by the ranking.
  BatchFixture f = BatchFixture::make("deadline", 2);
  f.datalog_texts.push_back(f.truncated_texts[0]);
  f.datalog_texts.push_back(f.datalog_texts[0]);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    DiagnosisService service;
    CancelToken token;
    token.request_cancel();
    const Json response =
        service.handle(f.batch_request(threads, "multiplet"), &token);
    ASSERT_EQ(response.get_string("status"), "timeout") << response.dump();
    EXPECT_TRUE(response.get_bool("partial"));
    const JsonArray& results = response.find("results")->as_array();
    ASSERT_EQ(results.size(), f.datalog_texts.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(static_cast<std::size_t>(results[i].get_number("index")), i);
      const std::string status = results[i].get_string("status");
      EXPECT_TRUE(status == "ok" || status == "timeout") << status;
      EXPECT_NE(results[i].find("reports"), nullptr) << i;
    }
    EXPECT_EQ(static_cast<std::size_t>(response.get_number("n_errors")), 0u);
  }
}

TEST(DiagnoseBatch, RequestedThreadsAreCappedByTheHost) {
  // A client cannot size the daemon's threads: asking for one per item
  // (or far more) yields at most max(default, hardware threads), and the
  // batch is still byte-identical to sequential singles.
  BatchFixture f = BatchFixture::make("thread_cap");
  const std::vector<std::string> singles = sequential_single_reports(f);
  const std::size_t cap =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  const std::vector<std::string> originals = f.datalog_texts;
  while (f.datalog_texts.size() <= cap)
    f.datalog_texts.insert(f.datalog_texts.end(), originals.begin(),
                           originals.end());

  DiagnosisService service;
  const Json response = service.handle(f.batch_request(100000));
  ASSERT_EQ(response.get_string("status"), "ok") << response.dump();
  const double threads = response.get_number("threads");
  EXPECT_GE(threads, 1.0);
  EXPECT_LE(threads, static_cast<double>(cap));
  const JsonArray& results = response.find("results")->as_array();
  ASSERT_EQ(results.size(), f.datalog_texts.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].get_string("status"), "ok");
    EXPECT_EQ(results[i].find("reports")->dump(),
              singles[i % singles.size()])
        << "datalog " << i;
  }
}

TEST(DiagnoseBatch, StreamedItemsArriveInOrderAndMatchInlineResults) {
  const BatchFixture f = BatchFixture::make("stream");

  DiagnosisService service;
  Json request = f.batch_request(2);
  request.set("id", 42);
  request.set("stream", true);

  std::vector<Json> streamed;
  const Json response = service.handle(
      request, nullptr, [&](const Json& item) { streamed.push_back(item); });
  ASSERT_EQ(response.get_string("status"), "ok");
  EXPECT_TRUE(response.get_bool("results_streamed"));
  EXPECT_EQ(response.find("results"), nullptr)
      << "streamed batches must not duplicate items in the final response";
  const double high_water = response.get_number("reorder_high_water", -1);
  EXPECT_GE(high_water, 1.0);
  EXPECT_LE(high_water, static_cast<double>(f.datalog_texts.size()))
      << "reorder buffering is bounded by the batch size";

  ASSERT_EQ(streamed.size(), f.datalog_texts.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(streamed[i].get_number("index")), i)
        << "streamed items must arrive in index order";
    EXPECT_EQ(streamed[i].get_string("op"), "diagnose_batch_item");
    EXPECT_EQ(static_cast<std::size_t>(streamed[i].get_number("id")), 42u);
  }

  // Un-streamed run of the same request: item payloads must match.
  DiagnosisService plain;
  const Json inline_response = plain.handle(f.batch_request(2));
  const JsonArray& results = inline_response.find("results")->as_array();
  ASSERT_EQ(results.size(), streamed.size());
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(streamed[i].find("reports")->dump(),
              results[i].find("reports")->dump());

  // Without an emit sink, "stream":true falls back to inline results.
  const Json no_sink = plain.handle(request);
  EXPECT_EQ(no_sink.get_string("status"), "ok");
  EXPECT_NE(no_sink.find("results"), nullptr);
}

TEST(DiagnoseBatch, ItemErrorsAreIsolatedAndCounted) {
  const BatchFixture f = BatchFixture::make("errors", 2);

  Json request;
  request.set("op", "diagnose_batch");
  request.set("netlist", f.netlist_path);
  request.set("patterns", f.patterns_path);
  const std::string good_file = ::testing::TempDir() + "vol_err_ok.datalog";
  std::ofstream(good_file) << f.datalog_texts[0];
  JsonArray files;
  files.emplace_back(good_file);
  files.emplace_back(::testing::TempDir() + "vol_err_missing.datalog");
  request.set("datalog_files", Json(std::move(files)));
  request.set("method", "single");
  request.set("threads", 1);

  DiagnosisService service;
  const Json response = service.handle(request);
  ASSERT_EQ(response.get_string("status"), "ok")
      << "one bad datalog must not fail the batch";
  EXPECT_EQ(static_cast<std::size_t>(response.get_number("n_errors")), 1u);

  const JsonArray& results = response.find("results")->as_array();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].get_string("status"), "ok");
  EXPECT_EQ(results[1].get_string("status"), "error");
  EXPECT_FALSE(results[1].get_string("error").empty());
  EXPECT_EQ(results[1].find("reports"), nullptr);

  const Json* volume = response.find("volume");
  ASSERT_NE(volume, nullptr);
  EXPECT_EQ(static_cast<std::size_t>(volume->get_number("n_failed")), 1u);
  EXPECT_EQ(static_cast<std::size_t>(volume->get_number("n_diagnosed")), 1u);
}

TEST(DiagnoseBatch, DatalogDirMatchesExplicitFileList) {
  const BatchFixture f = BatchFixture::make("dir");
  const std::string dir = ::testing::TempDir() + "vol_dir_corpus";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  JsonArray files;
  for (std::size_t i = 0; i < f.datalog_texts.size(); ++i) {
    const std::string path = dir + "/case_" + std::to_string(i) + ".datalog";
    std::ofstream(path) << f.datalog_texts[i];
    files.emplace_back(path);
  }
  // A non-datalog file in the directory must be ignored.
  std::ofstream(dir + "/README.txt") << "not a datalog\n";

  Json base;
  base.set("op", "diagnose_batch");
  base.set("netlist", f.netlist_path);
  base.set("patterns", f.patterns_path);
  base.set("method", "single");
  base.set("threads", 1);

  DiagnosisService service;
  Json by_dir = base;
  by_dir.set("datalog_dir", dir);
  Json by_files = base;
  by_files.set("datalog_files", Json(std::move(files)));

  const Json a = service.handle(by_dir);
  const Json b = service.handle(by_files);
  ASSERT_EQ(a.get_string("status"), "ok") << a.dump();
  ASSERT_EQ(b.get_string("status"), "ok");
  EXPECT_EQ(a.find("results")->dump(), b.find("results")->dump());
  EXPECT_EQ(a.find("volume")->dump(), b.find("volume")->dump());
}

TEST(DiagnoseBatch, DatalogDirOrderIsByteWiseNotLocaleCollated) {
  // Two batches over the same directory must enumerate identically on
  // every machine: the scan sorts file names byte-wise, so "B" (0x42)
  // precedes "a" (0x61) even under a case-folding locale collation that
  // would say a < B.
  const BatchFixture f = BatchFixture::make("locale", 2);
  const char* saved = std::setlocale(LC_COLLATE, nullptr);
  const std::string previous = saved != nullptr ? saved : "C";
  std::setlocale(LC_COLLATE, "en_US.UTF-8");  // absent locale: no-op
  const std::string dir = ::testing::TempDir() + "vol_locale_corpus";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/B_upper.datalog") << f.datalog_texts[0];
  std::ofstream(dir + "/a_lower.datalog") << f.datalog_texts[1];

  Json request;
  request.set("op", "diagnose_batch");
  request.set("netlist", f.netlist_path);
  request.set("patterns", f.patterns_path);
  request.set("datalog_dir", dir);
  request.set("method", "single");
  request.set("threads", 1);

  DiagnosisService service;
  const Json response = service.handle(request);
  std::setlocale(LC_COLLATE, previous.c_str());
  ASSERT_EQ(response.get_string("status"), "ok") << response.dump();

  const JsonArray& results = response.find("results")->as_array();
  ASSERT_EQ(results.size(), 2u);
  const std::string first = results[0].get_string("datalog_file");
  const std::string second = results[1].get_string("datalog_file");
  EXPECT_NE(first.find("B_upper"), std::string::npos)
      << "'B' (0x42) must sort before 'a' (0x61): got " << first;
  EXPECT_NE(second.find("a_lower"), std::string::npos);

  // And the items carry the RIGHT diagnosis for each file, not just the
  // right names: compare to single requests on the same texts.
  const std::vector<std::string> singles = sequential_single_reports(f);
  EXPECT_EQ(results[0].find("reports")->dump(), singles[0]);
  EXPECT_EQ(results[1].find("reports")->dump(), singles[1]);
}

TEST(DiagnoseBatch, ValidatesInputsBeforeTouchingTheSession) {
  const BatchFixture f = BatchFixture::make("validate", 1);
  DiagnosisService service;
  const std::uint64_t misses_before =
      obs::registry().counter("sessions.misses").value();

  const auto expect_error = [&](Json request, const std::string& fragment) {
    const Json response = service.handle(request);
    EXPECT_EQ(response.get_string("status"), "error");
    EXPECT_NE(response.get_string("error").find(fragment), std::string::npos)
        << response.dump();
  };

  Json base;
  base.set("op", "diagnose_batch");
  base.set("netlist", f.netlist_path);
  base.set("patterns", f.patterns_path);

  expect_error(base, "exactly one of");

  Json both = base;
  JsonArray texts;
  texts.emplace_back(f.datalog_texts[0]);
  both.set("datalogs", Json(texts));
  both.set("datalog_dir", "/tmp");
  expect_error(both, "exactly one of");

  Json bad_method = base;
  bad_method.set("datalogs", Json(texts));
  bad_method.set("method", "psychic");
  expect_error(bad_method, "unknown method");

  Json empty = base;
  empty.set("datalogs", Json(JsonArray{}));
  expect_error(empty, "no datalogs");

  Json not_strings = base;
  JsonArray numbers;
  numbers.emplace_back(3.0);
  not_strings.set("datalogs", Json(std::move(numbers)));
  expect_error(not_strings, "array of strings");

  Json bad_dir = base;
  bad_dir.set("datalog_dir", "/nonexistent/volume/dir");
  expect_error(bad_dir, "datalog_dir");

  // The session cache must not have been touched by any rejected request.
  EXPECT_EQ(obs::registry().counter("sessions.misses").value(),
            misses_before);
}

TEST(DiagnoseBatch, OutOfRangeCountFieldsAreRejected) {
  // A count past 2^53 used to be cast straight to size_t: undefined, and
  // on x86-64 1e300 became 0, so min_recurrences 1e300 counted every
  // fault as recurring. Such values now answer `error` before the
  // session is touched; the largest accepted value still diagnoses.
  const BatchFixture f = BatchFixture::make("counts", 2);
  DiagnosisService service;
  const std::uint64_t misses_before =
      obs::registry().counter("sessions.misses").value();
  for (const char* field : {"min_recurrences", "top_k"}) {
    for (const Json& bad : {Json(1e300), Json(1e16), Json("many")}) {
      Json request = f.batch_request(1);
      request.set(field, bad);
      const Json response = service.handle(request);
      EXPECT_EQ(response.get_string("status"), "error")
          << field << "=" << bad.dump();
      EXPECT_NE(response.get_string("error").find(field), std::string::npos)
          << response.dump();
    }
  }
  EXPECT_EQ(obs::registry().counter("sessions.misses").value(), misses_before);

  Json largest = f.batch_request(1);
  largest.set("min_recurrences", kMaxRequestCount);
  largest.set("top_k", kMaxRequestCount);
  const Json response = service.handle(largest);
  ASSERT_EQ(response.get_string("status"), "ok") << response.dump();
  EXPECT_EQ(response.find("volume")->get_number("n_systematic_datalogs", -1),
            0)
      << "no fault recurs in 2^53 datalogs";
}

TEST(DiagnoseBatch, CompletesUnderCacheBudgetTooSmallForTheSession) {
  const BatchFixture f = BatchFixture::make("tiny");
  // A 1-byte session budget keeps the cache permanently over budget: the
  // eviction sweep runs on every load, and only the MRU-survivor rule and
  // the batch's pin keep the session resident while items execute.
  ServiceOptions options;
  options.cache_bytes = 1;
  DiagnosisService service(options);

  const std::vector<std::string> singles = sequential_single_reports(f);
  const Json response = service.handle(f.batch_request(2));
  ASSERT_EQ(response.get_string("status"), "ok") << response.dump();
  const JsonArray& results = response.find("results")->as_array();
  ASSERT_EQ(results.size(), singles.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].get_string("status"), "ok");
    EXPECT_EQ(results[i].find("reports")->dump(), singles[i]);
  }
}

}  // namespace
}  // namespace mdd::server
