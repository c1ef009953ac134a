// Eviction tests shared by the three session memos (SignatureMemo,
// CompositeMemo, TraceMemo), whose memory tiers are one ClockCache. A
// memo that stops admitting once full lets a first-come set squat the
// budget: a session whose early requests filled it could never memoize
// what its later (hotter) requests keep recomputing. These tests pin down
// admission after fill-up, survival of referenced entries, exact byte
// accounting, oversized/duplicate handling, and bounded concurrent
// behavior (this file builds into the tsan-labelled binary). Traffic is
// read as deltas of each memo's registry series.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "diag/composite_memo.hpp"
#include "fsim/propagate.hpp"
#include "netlist/generator.hpp"
#include "obs/metrics.hpp"
#include "server/signature_memo.hpp"
#include "server/trace_memo.hpp"
#include "store/format.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"

namespace mdd {
namespace {

/// Every value below has 8 items (failing patterns or faults), so every
/// entry of one memo costs the same and the eviction arithmetic is exact.
constexpr std::size_t kItems = 8;

std::shared_ptr<const ErrorSignature> make_signature() {
  auto sig = std::make_shared<ErrorSignature>(64, 4);
  const std::vector<Word> mask(sig->n_po_words(), Word{1});
  for (std::size_t p = 0; p < kItems; ++p)
    sig->append(static_cast<std::uint32_t>(p), mask);
  return sig;
}

Fault nth_fault(std::size_t n) {
  return Fault::stem_sa(static_cast<std::uint32_t>(n), (n & 1) != 0);
}

/// Adapters giving the suite one vocabulary: the n-th key, a fresh value,
/// and a value's item count.
struct SignatureMemoCase {
  using Memo = server::SignatureMemo;
  using Value = std::shared_ptr<const ErrorSignature>;
  static constexpr const char* kMetrics = "memo.signature";
  static Value make_value() { return make_signature(); }
  static void store(Memo& m, std::size_t n, Value v) {
    m.store(nth_fault(n), std::move(v));
  }
  static Value lookup(Memo& m, std::size_t n) { return m.lookup(nth_fault(n)); }
  static std::size_t items(const Value& v) { return v->n_failing_patterns(); }
};

struct CompositeMemoCase {
  using Memo = CompositeMemo;
  using Value = std::shared_ptr<const ErrorSignature>;
  static constexpr const char* kMetrics = "memo.composite";
  /// Same-size multiplets so key costs are uniform too.
  static CompositeKey key(std::size_t n) {
    const Fault members[2] = {
        nth_fault(n), Fault::stem_sa(static_cast<std::uint32_t>(n + 1000),
                                     false)};
    return CompositeKey(members);
  }
  static Value make_value() { return make_signature(); }
  static void store(Memo& m, std::size_t n, Value v) {
    m.store(key(n), std::move(v));
  }
  static Value lookup(Memo& m, std::size_t n) { return m.lookup(key(n)); }
  static std::size_t items(const Value& v) { return v->n_failing_patterns(); }
};

struct TraceMemoCase {
  using Memo = server::TraceMemo;
  using Value = std::shared_ptr<const std::vector<Fault>>;
  static constexpr const char* kMetrics = "memo.trace";
  static Value make_value() {
    std::vector<Fault> faults;
    for (std::size_t i = 0; i < kItems; ++i) faults.push_back(nth_fault(i));
    return std::make_shared<const std::vector<Fault>>(std::move(faults));
  }
  static void store(Memo& m, std::size_t n, Value v) {
    m.store(static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(n % 3),
            std::move(v));
  }
  static Value lookup(Memo& m, std::size_t n) {
    return m.lookup(static_cast<std::uint32_t>(n),
                    static_cast<std::uint32_t>(n % 3));
  }
  static std::size_t items(const Value& v) { return v->size(); }
};

template <class Case>
class MemoEviction : public ::testing::Test {
 protected:
  using Memo = typename Case::Memo;

  static void store(Memo& m, std::size_t n) {
    Case::store(m, n, Case::make_value());
  }

  /// The memo's registry series `<prefix>.<name>`, e.g. "evictions".
  static std::uint64_t count(const char* name) {
    return obs::registry()
        .counter(std::string(Case::kMetrics) + "." + name)
        .value();
  }

  static std::size_t one_entry_cost() {
    Memo probe(1 << 20);
    store(probe, 0);
    return probe.stats().approx_bytes;
  }
};

using MemoCases =
    ::testing::Types<SignatureMemoCase, CompositeMemoCase, TraceMemoCase>;
TYPED_TEST_SUITE(MemoEviction, MemoCases);

TYPED_TEST(MemoEviction, AdmitsNewEntriesAfterFillingUp) {
  const std::size_t cost = this->one_entry_cost();
  ASSERT_GT(cost, 0u);
  typename TestFixture::Memo memo(4 * cost);
  const std::uint64_t evictions_before = this->count("evictions");

  // Fill the budget exactly, then keep storing: a memo that declines
  // once full would never admit the "hot" key below.
  for (std::size_t i = 0; i < 8; ++i) this->store(memo, i);

  this->store(memo, 100);
  EXPECT_NE(TypeParam::lookup(memo, 100), nullptr)
      << "a full memo must evict cold entries, not decline new ones";

  const auto stats = memo.stats();
  EXPECT_GT(this->count("evictions"), evictions_before);
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_LE(stats.approx_bytes, 4 * cost);
}

TYPED_TEST(MemoEviction, SecondChanceSparesRecentlyUsedEntries) {
  const std::size_t cost = this->one_entry_cost();
  typename TestFixture::Memo memo(4 * cost);
  for (std::size_t i = 0; i < 4; ++i) this->store(memo, i);

  // Reference entry 0; the clock hand must then clear its bit and pass
  // over it, evicting the first unreferenced entry (entry 1) instead.
  EXPECT_NE(TypeParam::lookup(memo, 0), nullptr);
  this->store(memo, 4);

  EXPECT_NE(TypeParam::lookup(memo, 0), nullptr);
  EXPECT_EQ(TypeParam::lookup(memo, 1), nullptr);
  EXPECT_NE(TypeParam::lookup(memo, 4), nullptr);
}

TYPED_TEST(MemoEviction, ByteAccountingIsExactAcrossEvictions) {
  const std::size_t cost = this->one_entry_cost();
  typename TestFixture::Memo memo(3 * cost);
  for (std::size_t i = 0; i < 10; ++i) {
    this->store(memo, i);
    const auto stats = memo.stats();
    EXPECT_EQ(stats.approx_bytes, stats.entries * cost);
    EXPECT_LE(stats.approx_bytes, 3 * cost);
  }
  EXPECT_EQ(memo.stats().entries, 3u);
}

TYPED_TEST(MemoEviction, OversizedEntryIsDeclinedOutright) {
  const std::size_t cost = this->one_entry_cost();
  typename TestFixture::Memo memo(cost / 2);
  this->store(memo, 0);
  EXPECT_EQ(TypeParam::lookup(memo, 0), nullptr);
  EXPECT_EQ(memo.stats().entries, 0u);
  EXPECT_EQ(memo.stats().approx_bytes, 0u);
}

TYPED_TEST(MemoEviction, DuplicateStoreKeepsFirstEntryAndAccounting) {
  const std::size_t cost = this->one_entry_cost();
  typename TestFixture::Memo memo(4 * cost);
  const auto first = TypeParam::make_value();
  TypeParam::store(memo, 0, first);
  this->store(memo, 0);  // racing compute, same key
  EXPECT_EQ(TypeParam::lookup(memo, 0).get(), first.get());
  EXPECT_EQ(memo.stats().entries, 1u);
  EXPECT_EQ(memo.stats().approx_bytes, cost);
}

TYPED_TEST(MemoEviction, ConcurrentChurnStaysWithinBudget) {
  const std::size_t cost = this->one_entry_cost();
  const std::size_t budget = 6 * cost;
  typename TestFixture::Memo memo(budget);
  const std::uint64_t lookups_before =
      this->count("hits") + this->count("misses");
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&memo, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto n = static_cast<std::size_t>((t * 7 + i) % 32);
        if (auto value = TypeParam::lookup(memo, n)) {
          // Entries are immutable once stored; a hit must stay readable.
          EXPECT_EQ(TypeParam::items(value), kItems);
        } else {
          TestFixture::store(memo, n);
        }
      }
    });
  for (std::thread& t : threads) t.join();

  const auto stats = memo.stats();
  EXPECT_LE(stats.approx_bytes, budget);
  EXPECT_EQ(stats.approx_bytes, stats.entries * cost);
  EXPECT_GT(this->count("hits") + this->count("misses"), lookups_before);
}

/// The signature memo over an mmap store decodes store hits outside its
/// lock. Concurrent batch lookups must return exactly what serial ones
/// do, count one outcome per key lookup, and promote each store key once.
TEST(SignatureMemoStore, ConcurrentBatchLookupsMatchSerialOnes) {
  const Netlist netlist = make_named_circuit("g200");
  const PatternSet patterns =
      PatternSet::random(96, netlist.n_inputs(), 0x5107);
  std::vector<Fault> universe = store::default_store_universe(netlist);
  ASSERT_GE(universe.size(), 200u);
  universe.resize(200);
  const std::string path =
      ::testing::TempDir() + "memo_concurrent" + store::kStoreExtension;
  store::DictWriter(netlist, patterns).write(path, universe);
  const auto dict = store::DictReader::open(path);

  // Store keys (decoded), keys in no tier (transition faults are never in
  // a static store), and two keys the memory tier already holds.
  std::vector<Fault> keys = universe;
  for (std::uint32_t n = 0; n < 20; ++n) keys.push_back(Fault::slow_to_rise(n));
  const std::vector<Fault> resident{keys[0], keys[1]};
  SingleFaultPropagator prop(netlist, patterns);
  const auto make_memo = [&] {
    auto memo = std::make_unique<server::SignatureMemo>(64ull << 20);
    memo->set_store(dict);
    for (const Fault& f : resident)
      memo->store(f, std::make_shared<const ErrorSignature>(prop.signature(f)));
    return memo;
  };

  // Each caller walks every key in chunks of 16, from its own offset.
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kChunk = 16;
  using Found = std::vector<std::shared_ptr<const ErrorSignature>>;
  const auto walk = [&](server::SignatureMemo& memo, std::size_t caller,
                        Found& got) {
    got.assign(keys.size(), nullptr);
    const std::size_t n_chunks = (keys.size() + kChunk - 1) / kChunk;
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const std::size_t b = ((c + caller * 5) % n_chunks) * kChunk;
      const std::size_t len = std::min(kChunk, keys.size() - b);
      memo.lookup_many(std::span<const Fault>(keys).subspan(b, len),
                       std::span(got).subspan(b, len));
    }
  };
  const std::vector<std::string> names{
      "memo.signature.hits", "memo.signature.misses", "memo.signature.inserts",
      "store.hits", "store.misses", "store.decode_failures"};
  const auto counters = [&] {
    std::vector<std::uint64_t> v;
    for (const std::string& n : names)
      v.push_back(obs::registry().counter(n).value());
    return v;
  };
  const auto run = [&](bool concurrent, std::vector<Found>& got) {
    auto memo = make_memo();
    got.assign(kCallers, Found{});
    const std::vector<std::uint64_t> before = counters();
    if (concurrent) {
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < kCallers; ++t)
        threads.emplace_back([&, t] { walk(*memo, t, got[t]); });
      for (std::thread& t : threads) t.join();
    } else {
      for (std::size_t t = 0; t < kCallers; ++t) walk(*memo, t, got[t]);
    }
    std::vector<std::uint64_t> delta = counters();
    for (std::size_t i = 0; i < delta.size(); ++i) delta[i] -= before[i];
    return delta;
  };

  std::vector<Found> serial;
  std::vector<Found> concurrent;
  const std::vector<std::uint64_t> s = run(false, serial);
  const std::vector<std::uint64_t> c = run(true, concurrent);
  for (std::size_t t = 0; t < kCallers; ++t)
    for (std::size_t k = 0; k < keys.size(); ++k) {
      ASSERT_EQ(concurrent[t][k] == nullptr, serial[t][k] == nullptr) << k;
      if (serial[t][k] != nullptr) {
        EXPECT_EQ(*concurrent[t][k], *serial[t][k]) << "key " << k;
      }
    }

  // Which of two racing lookups decodes and which hits memory is timing,
  // but each lookup counts one outcome, misses are exact, and each store
  // key is promoted once.
  const std::uint64_t lookups = kCallers * keys.size();
  EXPECT_EQ(s[0] + s[1] + s[3], lookups);
  EXPECT_EQ(c[0] + c[1] + c[3], lookups);
  EXPECT_EQ(c[1], s[1]) << "memo.signature.misses";
  EXPECT_EQ(c[4], s[4]) << "store.misses";
  EXPECT_EQ(c[1], kCallers * 20) << "every transition key misses";
  EXPECT_EQ(c[2], s[2]) << "memo.signature.inserts";
  EXPECT_EQ(s[2], universe.size() - resident.size());
  EXPECT_EQ(c[5], 0u);
}

}  // namespace
}  // namespace mdd
