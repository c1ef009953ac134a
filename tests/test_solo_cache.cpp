// Stress/regression tests for the DiagnosisContext solo-signature cache:
// concurrent readers racing on the same slots must all observe the same
// cached object, each slot computed exactly once (atomic compute counter);
// contexts sharing one session memo fill their slots from one batch
// lookup each and still match a fresh simulation.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "diag/diagnosis.hpp"
#include "netlist/generator.hpp"
#include "obs/metrics.hpp"
#include "server/signature_memo.hpp"

namespace mdd {
namespace {

struct CacheCase {
  Netlist netlist;
  PatternSet patterns;
  Datalog log;
};

CacheCase make_case() {
  CacheCase c{make_named_circuit("g200"), {}, {}};
  c.patterns = PatternSet::random(128, c.netlist.n_inputs(), 0xCACE);
  FaultSimulator fsim(c.netlist, c.patterns);
  const std::vector<Fault> defect{
      Fault::stem_sa(c.netlist.n_nets() / 3, false),
      Fault::stem_sa(c.netlist.n_nets() / 2, true)};
  c.log = datalog_from_defect(c.netlist, defect, c.patterns,
                              fsim.good_response());
  return c;
}

TEST(SoloCacheStress, ConcurrentReadersComputeEachSlotOnce) {
  const CacheCase c = make_case();
  ASSERT_TRUE(c.log.has_failures());
  DiagnosisContext ctx(c.netlist, c.patterns, c.log);
  const std::size_t n = ctx.n_candidates();
  ASSERT_GT(n, 0u);

  constexpr std::size_t kReaders = 8;
  // Every reader touches every slot, in a reader-specific order, and
  // records the address it saw.
  std::vector<std::vector<const ErrorSignature*>> seen(
      kReaders, std::vector<const ErrorSignature*>(n));
  std::atomic<bool> go{false};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::size_t k = 0; k < n; ++k) {
        // Cyclic shift per reader: full coverage, staggered contention.
        const std::size_t i = (k + r * (n / kReaders)) % n;
        seen[r][i] = &ctx.solo_signature(i);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  // Exactly one compute per slot, despite 8 racing readers.
  EXPECT_EQ(ctx.solo_compute_count(), n);
  // All readers saw the same cached object per slot.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t r = 1; r < kReaders; ++r)
      EXPECT_EQ(seen[r][i], seen[0][i]) << "slot " << i << " reader " << r;
}

TEST(SoloCacheStress, WarmThenReadDoesNotRecompute) {
  const CacheCase c = make_case();
  DiagnosisContext ctx(c.netlist, c.patterns, c.log);
  const std::size_t n = ctx.n_candidates();

  ctx.warm_solo_signatures(ExecPolicy::parallel(4));
  EXPECT_EQ(ctx.solo_compute_count(), n);

  // Addresses are stable and no slot recomputes on re-read or re-warm.
  std::vector<const ErrorSignature*> first(n);
  for (std::size_t i = 0; i < n; ++i) first[i] = &ctx.solo_signature(i);
  ctx.warm_solo_signatures(ExecPolicy::parallel(4));
  ctx.warm_solo_signatures(ExecPolicy::serial());
  EXPECT_EQ(ctx.solo_compute_count(), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(&ctx.solo_signature(i), first[i]) << "slot " << i;
}

TEST(SoloCacheStress, PartiallyLazyThenParallelWarm) {
  const CacheCase c = make_case();
  DiagnosisContext ctx(c.netlist, c.patterns, c.log);
  const std::size_t n = ctx.n_candidates();
  ASSERT_GT(n, 2u);

  // Touch a few slots lazily first (the diagnoser access pattern)...
  const ErrorSignature* s0 = &ctx.solo_signature(0);
  const ErrorSignature* s1 = &ctx.solo_signature(n / 2);
  EXPECT_EQ(ctx.solo_compute_count(), 2u);

  // ...then a parallel warm fills only the remaining slots.
  ctx.warm_solo_signatures(ExecPolicy::parallel(4));
  EXPECT_EQ(ctx.solo_compute_count(), n);
  EXPECT_EQ(&ctx.solo_signature(0), s0);
  EXPECT_EQ(&ctx.solo_signature(n / 2), s1);
}

TEST(SoloCacheStress, LookupsMinusComputesCountsSlotsServedWithoutSimulation) {
  const CacheCase c = make_case();
  server::SignatureMemo memo(64ull << 20);
  // Warm the memo with a second datalog whose candidates overlap this
  // one's only in part.
  FaultSimulator fsim(c.netlist, c.patterns);
  const std::vector<Fault> other{Fault::stem_sa(c.netlist.n_nets() / 3, false)};
  const Datalog warm_log = datalog_from_defect(c.netlist, other, c.patterns,
                                               fsim.good_response());
  {
    DiagnosisContext warm(c.netlist, c.patterns, warm_log);
    warm.attach_solo_store(&memo);
    warm.warm_solo_signatures(ExecPolicy::serial());
  }

  obs::Counter& lookups = obs::registry().counter("diag.solo_lookups");
  obs::Counter& computes = obs::registry().counter("diag.solo_computes");
  const std::uint64_t lookups0 = lookups.value();
  const std::uint64_t computes0 = computes.value();
  DiagnosisContext ctx(c.netlist, c.patterns, c.log);
  ctx.attach_solo_store(&memo);
  const std::size_t n = ctx.n_candidates();
  // Every slot read several times, lazily, then warmed on top.
  for (int pass = 0; pass < 3; ++pass)
    for (std::size_t i = 0; i < n; ++i) ctx.solo_signature(i);
  ctx.warm_solo_signatures(ExecPolicy::parallel(4));

  const std::size_t served = n - ctx.solo_compute_count();
  EXPECT_GT(served, 0u) << "the warm memo must answer some slots";
  EXPECT_GT(ctx.solo_compute_count(), 0u) << "and leave some cold";
  EXPECT_EQ(lookups.value() - lookups0, n) << "one lookup per candidate";
  EXPECT_EQ(computes.value() - computes0, ctx.solo_compute_count());
  EXPECT_EQ((lookups.value() - lookups0) - (computes.value() - computes0),
            served);
}

TEST(SoloCacheStress, ThreadsSharingOneMemoMatchFreshSimulation) {
  // The served shape: four request threads, one session memo, contexts
  // for overlapping datalogs (full, truncated, X-masked), each thread
  // mixing every way a context's slots get filled.
  const CacheCase c = make_case();
  FaultSimulator fsim(c.netlist, c.patterns);
  std::vector<Datalog> logs;
  for (std::uint32_t d = 0; d < 4; ++d) {
    const std::vector<Fault> defect{
        Fault::stem_sa(c.netlist.n_nets() / 3 + d, (d & 1) != 0),
        Fault::stem_sa(c.netlist.n_nets() / 2 + 2 * d, (d & 1) == 0)};
    DatalogOptions truncated;
    truncated.max_failing_patterns = 3;
    DatalogOptions masked;
    masked.x_mask_fraction = 0.05;
    masked.x_mask_seed = 0x5EED + d;
    for (const DatalogOptions& opt : {DatalogOptions{}, truncated, masked})
      logs.push_back(datalog_from_defect(c.netlist, defect, c.patterns,
                                         fsim.good_response(), opt));
  }

  // Expected slots: a fresh simulation over each datalog's window, the
  // datalog's masked bits subtracted.
  std::vector<std::vector<ErrorSignature>> expected;
  for (const Datalog& log : logs) {
    PatternSet window(0, c.patterns.n_signals());
    for (std::size_t p = 0; p < log.n_patterns_applied; ++p)
      window.append(c.patterns.pattern(p));
    const ErrorSignature masked =
        restrict_signature(log.masked, log.n_patterns_applied);
    SingleFaultPropagator prop(c.netlist, window);
    const DiagnosisContext ref(c.netlist, c.patterns, log);
    std::vector<ErrorSignature> sigs;
    for (std::size_t i = 0; i < ref.n_candidates(); ++i) {
      ErrorSignature sig = prop.signature(ref.candidate(i));
      if (!masked.empty()) sig = signature_difference(sig, masked);
      sigs.push_back(std::move(sig));
    }
    expected.push_back(std::move(sigs));
  }

  server::SignatureMemo memo(64ull << 20);
  obs::Counter& memo_hits = obs::registry().counter("memo.signature.hits");
  const std::uint64_t hits_before = memo_hits.value();
  constexpr std::size_t kThreads = 4;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::size_t> overcomputed(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < logs.size(); ++k) {
        const std::size_t d = (k + t * 3) % logs.size();
        DiagnosisContext ctx(c.netlist, c.patterns, logs[d]);
        ctx.attach_solo_store(&memo);
        const std::size_t n = ctx.n_candidates();
        switch ((t + k) % 4) {
          case 0:  // lazy, back to front
            for (std::size_t i = n; i-- > 0;) ctx.solo_signature(i);
            break;
          case 1:
            ctx.warm_solo_signatures(ExecPolicy::serial());
            break;
          case 2:
            ctx.warm_solo_signatures(ExecPolicy::parallel(2));
            break;
          default:
            ctx.warm_solo_from_store();
            ctx.warm_solo_signatures(ExecPolicy::parallel(2));
            break;
        }
        if (ctx.solo_compute_count() > n) ++overcomputed[t];
        for (std::size_t i = 0; i < n; ++i)
          if (!(ctx.solo_signature(i) == expected[d][i])) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
    EXPECT_EQ(overcomputed[t], 0u) << "thread " << t;
  }
  EXPECT_GT(memo_hits.value(), hits_before) << "contexts must share the memo";
}

}  // namespace
}  // namespace mdd
