// One key per fault: the session memos hold full-pattern-set, pre-masking
// signatures keyed by the fault (or the sorted member set) alone, and each
// static context cuts what its tester did not observe — patterns past its
// applied window, X-masked bits — after lookup. These tests pin that a
// truncated or masked slot served from a memo equals a fresh simulation
// over the datalog's window, shape included; that a truncated datalog
// reads the full entries and adds none of its own (its solo misses are
// simulated over its window only); that composites are shared across
// windows in both arrival orders; and that a served batch mixing full,
// truncated and X-masked datalogs is byte-identical to fresh memoless
// contexts at every thread count (this file builds into the
// tsan-labelled binary).
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "diag/composite_memo.hpp"
#include "diag/diagnosis.hpp"
#include "diag/method.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/generator.hpp"
#include "obs/metrics.hpp"
#include "server/result_json.hpp"
#include "server/service.hpp"
#include "server/signature_memo.hpp"
#include "workload/textio.hpp"

namespace mdd {
namespace {

struct CutCase {
  Netlist netlist;
  PatternSet patterns;
  Datalog full;
  Datalog truncated;         ///< ATE stopped after 3 failing patterns
  Datalog truncated_masked;  ///< ... and 5% of observations X-masked
};

CutCase make_case() {
  CutCase c{make_named_circuit("g200"), {}, {}, {}, {}};
  c.patterns = PatternSet::random(128, c.netlist.n_inputs(), 0xC07);
  FaultSimulator fsim(c.netlist, c.patterns);
  const std::vector<Fault> defect{
      Fault::stem_sa(c.netlist.n_nets() / 3, false),
      Fault::stem_sa(c.netlist.n_nets() / 2, true)};
  DatalogOptions truncated;
  truncated.max_failing_patterns = 3;
  DatalogOptions masked = truncated;
  masked.x_mask_fraction = 0.05;
  c.full = datalog_from_defect(c.netlist, defect, c.patterns,
                               fsim.good_response());
  c.truncated = datalog_from_defect(c.netlist, defect, c.patterns,
                                    fsim.good_response(), truncated);
  c.truncated_masked = datalog_from_defect(c.netlist, defect, c.patterns,
                                           fsim.good_response(), masked);
  return c;
}

/// The datalog's applied window of `patterns` (the simulators keep a
/// pointer to it: hold it in a variable).
PatternSet window_of(const PatternSet& patterns, const Datalog& log) {
  PatternSet window(0, patterns.n_signals());
  for (std::size_t p = 0; p < log.n_patterns_applied; ++p)
    window.append(patterns.pattern(p));
  return window;
}

/// What a context for `log` must hold for `sig`, a signature simulated
/// over the datalog's window: the datalog's masked bits subtracted.
ErrorSignature unmasked_part(const ErrorSignature& sig, const Datalog& log) {
  return signature_difference(
      sig, restrict_signature(log.masked, log.n_patterns_applied));
}

TEST(MemoCut, TruncatedSlotsFromMemoMatchFreshWindowedSimulation) {
  const CutCase c = make_case();
  ASSERT_LT(c.truncated.n_patterns_applied, c.patterns.n_patterns());
  ASSERT_FALSE(c.truncated_masked.masked.empty());
  server::SignatureMemo memo;
  {
    DiagnosisContext full(c.netlist, c.patterns, c.full);
    full.attach_solo_store(&memo);
    full.warm_solo_signatures(ExecPolicy::serial());
    // The memo holds full-set truth, whatever the context's window.
    const auto entry = memo.lookup(full.candidate(0));
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->n_patterns(), c.patterns.n_patterns());
  }
  const std::size_t full_entries = memo.stats().entries;
  for (const Datalog* log : {&c.truncated, &c.truncated_masked}) {
    DiagnosisContext ctx(c.netlist, c.patterns, *log);
    ctx.attach_solo_store(&memo);
    ctx.warm_solo_signatures(ExecPolicy::serial());
    EXPECT_LT(ctx.solo_compute_count(), ctx.n_candidates())
        << "the full datalog's entries must serve the truncated one";
    EXPECT_EQ(memo.stats().entries, full_entries)
        << "only full-set truth enters the memo";
    const PatternSet window = window_of(c.patterns, *log);
    SingleFaultPropagator fresh(c.netlist, window);
    std::size_t failing = 0;
    for (std::size_t i = 0; i < ctx.n_candidates(); ++i) {
      const ErrorSignature& got = ctx.solo_signature(i);
      EXPECT_EQ(got.n_patterns(), log->n_patterns_applied) << "slot " << i;
      EXPECT_EQ(got, unmasked_part(fresh.signature(ctx.candidate(i)), *log))
          << "slot " << i;
      failing += got.empty() ? 0 : 1;
    }
    EXPECT_GT(failing, 0u) << "the comparison must bite on failing slots";
  }
}

TEST(MemoCut, FullUnmaskedContextSharesTheMemoEntries) {
  // A full-window context with nothing masked has nothing to cut: its
  // slots are the memo's own objects, not copies.
  const CutCase c = make_case();
  server::SignatureMemo memo;
  {
    DiagnosisContext warm(c.netlist, c.patterns, c.full);
    warm.attach_solo_store(&memo);
    warm.warm_solo_signatures(ExecPolicy::serial());
  }
  DiagnosisContext ctx(c.netlist, c.patterns, c.full);
  ctx.attach_solo_store(&memo);
  ASSERT_EQ(ctx.warm_solo_from_store(), ctx.n_candidates());
  for (std::size_t i = 0; i < ctx.n_candidates(); ++i)
    EXPECT_EQ(&ctx.solo_signature(i), memo.lookup(ctx.candidate(i)).get())
        << "slot " << i;
}

TEST(MemoCut, CompositesFromMemoMatchFreshSimulationInBothOrders) {
  const CutCase c = make_case();
  const PatternSet window = window_of(c.patterns, c.truncated_masked);
  FaultSimulator fresh_full(c.netlist, c.patterns);
  FaultSimulator fresh_window(c.netlist, window);
  obs::Counter& evals = obs::registry().counter("diag.composite_evals");

  DiagnosisContext probe(c.netlist, c.patterns, c.truncated_masked);
  ASSERT_GE(probe.n_candidates(), 3u);
  const std::vector<std::vector<Fault>> multiplets{
      {probe.candidate(0), probe.candidate(1)},
      {probe.candidate(1), probe.candidate(2)},
      {probe.candidate(0), probe.candidate(1), probe.candidate(2)}};

  // Each order: the first context fills an empty memo, the second must be
  // answered from it (no evaluation) and still match a fresh simulation
  // over its own window, shape included.
  for (const bool full_first : {true, false}) {
    CompositeMemo memo;
    const Datalog& first = full_first ? c.full : c.truncated_masked;
    const Datalog& second = full_first ? c.truncated_masked : c.full;
    {
      DiagnosisContext ctx(c.netlist, c.patterns, first);
      ctx.attach_composite_memo(&memo);
      for (const auto& m : multiplets) ctx.multiplet_signature(m);
    }
    DiagnosisContext ctx(c.netlist, c.patterns, second);
    ctx.attach_composite_memo(&memo);
    const bool truncated = &second == &c.truncated_masked;
    for (const auto& m : multiplets) {
      const std::uint64_t evals_before = evals.value();
      const ErrorSignature got = ctx.multiplet_signature(m);
      EXPECT_EQ(evals.value(), evals_before) << "served from the memo";
      const ErrorSignature want =
          truncated ? unmasked_part(fresh_window.signature(m), second)
                    : fresh_full.signature(m);
      EXPECT_EQ(got.n_patterns(), second.n_patterns_applied);
      EXPECT_EQ(got, want) << "full first: " << full_first;
    }
  }
}

TEST(MemoCut, ReferenceCompositesCutToTheWindowToo) {
  const CutCase c = make_case();
  const PatternSet window = window_of(c.patterns, c.truncated_masked);
  FaultSimulator fresh(c.netlist, window);
  DiagnosisContext ctx(c.netlist, c.patterns, c.truncated_masked);
  ctx.use_reference_composites(true);
  ASSERT_GE(ctx.n_candidates(), 2u);
  const std::vector<Fault> m{ctx.candidate(0), ctx.candidate(1)};
  EXPECT_EQ(ctx.multiplet_signature(m),
            unmasked_part(fresh.signature(m), c.truncated_masked));
}

// ---- served ----------------------------------------------------------------

/// A circuit and pattern set on disk, and datalog texts drawn over them.
struct ServedCase {
  std::string netlist_path;
  std::string patterns_path;
  Netlist netlist;  ///< parsed back from netlist_path, as the service does
  PatternSet patterns;

  static ServedCase make(const std::string& tag) {
    const Netlist generated = make_named_circuit("g200");
    ServedCase s;
    s.netlist_path = ::testing::TempDir() + "cut_" + tag + ".bench";
    s.patterns_path = ::testing::TempDir() + "cut_" + tag + ".patterns";
    std::ofstream(s.netlist_path) << write_bench_string(generated);
    write_patterns_file(s.patterns_path,
                        PatternSet::random(96, generated.n_inputs(), 0xC07));
    s.netlist = parse_bench_file(s.netlist_path).netlist;
    s.patterns = read_patterns_file(s.patterns_path);
    return s;
  }

  std::string datalog_text(const std::vector<Fault>& defect,
                           const DatalogOptions& options) const {
    FaultSimulator fsim(netlist, patterns);
    const Datalog log = datalog_from_defect(netlist, defect, patterns,
                                            fsim.good_response(), options);
    std::ostringstream out;
    write_datalog(out, log, netlist);
    return out.str();
  }

  Datalog parse(const std::string& text) const {
    std::istringstream in(text);
    return read_datalog(in, netlist);
  }

  server::Json request(const std::string& op) const {
    server::Json r;
    r.set("op", op);
    r.set("netlist", netlist_path);
    r.set("patterns", patterns_path);
    r.set("method", "all");
    return r;
  }

  /// `openmdd diagnose --method all` on a fresh, memoless context.
  std::string fresh_reports(const std::string& text) const {
    const Datalog log = parse(text);
    DiagnosisContext ctx(netlist, patterns, log);
    std::vector<DiagnosisReport> reports;
    for (const DiagnosisMethod& m : methods_named("all"))
      reports.push_back(m.run(ctx, nullptr));
    return server::reports_to_json(reports, netlist).dump();
  }
};

std::vector<Fault> nth_defect(const Netlist& netlist, std::uint32_t d) {
  return {Fault::stem_sa(netlist.n_nets() / 3 + 3 * d, (d & 1) != 0),
          Fault::stem_sa(netlist.n_nets() / 2 + 5 * d, (d & 1) == 0)};
}

TEST(ServedMemoCut, TruncatedRequestReadsFullEntriesAndAddsNone) {
  // On an empty memo, the full datalog of a defect and then a truncated
  // one: the truncated request simulates only the candidates the full
  // pool lacks (the rest are cut from full-set entries), and it adds no
  // memo entry — no restricted copy, no window-keyed compute.
  const ServedCase s = ServedCase::make("reuse");
  DatalogOptions truncated;
  truncated.max_failing_patterns = 3;
  const std::vector<Fault> defect = nth_defect(s.netlist, 0);
  const std::string full_text = s.datalog_text(defect, {});
  const std::string short_text = s.datalog_text(defect, truncated);

  const Datalog full_log = s.parse(full_text);
  const Datalog short_log = s.parse(short_text);
  ASSERT_LT(short_log.n_patterns_applied, full_log.n_patterns_applied);
  const DiagnosisContext full_ctx(s.netlist, s.patterns, full_log);
  const DiagnosisContext short_ctx(s.netlist, s.patterns, short_log);
  const std::set<Fault> full_pool(full_ctx.pool().faults.begin(),
                                  full_ctx.pool().faults.end());
  std::size_t lacking = 0;
  for (const Fault& f : short_ctx.pool().faults)
    lacking += full_pool.count(f) == 0 ? 1 : 0;
  ASSERT_LT(lacking, short_ctx.n_candidates()) << "the pools must overlap";

  server::DiagnosisService service;
  server::Json first = s.request("diagnose");
  first.set("datalog", full_text);
  const server::Json a = service.handle(first);
  ASSERT_EQ(a.get_string("status"), "ok") << a.dump();
  EXPECT_EQ(a.get_number("solo_computes"), a.get_number("n_candidates"))
      << "the memo starts empty";
  const auto session = service.cache().get(s.netlist_path, s.patterns_path);
  const server::SignatureMemo& memo = *session->memo;
  const std::size_t entries = memo.stats().entries;
  EXPECT_EQ(entries, full_ctx.n_candidates());

  server::Json second = s.request("diagnose");
  second.set("datalog", short_text);
  const server::Json b = service.handle(second);
  ASSERT_EQ(b.get_string("status"), "ok") << b.dump();
  EXPECT_EQ(b.get_number("n_candidates"),
            static_cast<double>(short_ctx.n_candidates()));
  EXPECT_EQ(b.get_number("solo_computes"), static_cast<double>(lacking));
  EXPECT_EQ(memo.stats().entries, entries);
}

TEST(ServedMemoCut, MixedWindowBatchMatchesFreshContexts) {
  // Full, truncated and X-masked datalogs of the same defects in one
  // diagnose_batch, in both arrival orders, at 1 and 4 threads, with
  // memo budgets small enough to evict: every item's reports equal a
  // fresh memoless context's, byte for byte.
  const ServedCase s = ServedCase::make("mixed");
  DatalogOptions truncated;
  truncated.max_failing_patterns = 3;
  DatalogOptions masked;
  masked.x_mask_fraction = 0.05;
  std::vector<std::string> texts;
  for (std::uint32_t d = 0; d < 3; ++d)
    for (const DatalogOptions& options : {DatalogOptions{}, truncated, masked})
      texts.push_back(s.datalog_text(nth_defect(s.netlist, d), options));
  std::vector<std::string> want;
  for (const std::string& text : texts) want.push_back(s.fresh_reports(text));

  for (const bool reversed : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      server::ServiceOptions options;
      options.memo_bytes = 1 << 20;
      options.composite_bytes = 1 << 20;
      server::DiagnosisService service(options);
      server::Json request = s.request("diagnose_batch");
      server::JsonArray datalogs;
      for (std::size_t k = 0; k < texts.size(); ++k)
        datalogs.emplace_back(texts[reversed ? texts.size() - 1 - k : k]);
      request.set("datalogs", server::Json(std::move(datalogs)));
      request.set("threads", threads);
      const server::Json response = service.handle(request);
      ASSERT_EQ(response.get_string("status"), "ok") << response.dump();
      const server::JsonArray& results = response.find("results")->as_array();
      ASSERT_EQ(results.size(), texts.size());
      for (std::size_t k = 0; k < results.size(); ++k) {
        const std::size_t i = reversed ? texts.size() - 1 - k : k;
        EXPECT_EQ(results[k].find("reports")->dump(), want[i])
            << "datalog " << i << ", threads " << threads
            << (reversed ? ", reversed" : "");
      }
    }
  }
}

}  // namespace
}  // namespace mdd
