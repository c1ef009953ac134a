// Persistent fault-dictionary store: format codecs, the write→mmap→read
// round trip (byte-for-byte against the live simulator, on every
// available kernel), hostile-input rejection (truncation, bit flips,
// wrong version, wrong content), and the consumers built on the reader
// (FaultDictionary-from-store, DiagnosisContext store warm).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "diag/dictionary.hpp"
#include "diag/multiplet.hpp"
#include "fsim/fsim.hpp"
#include "fsim/propagate.hpp"
#include "netlist/generator.hpp"
#include "obs/metrics.hpp"
#include "server/signature_memo.hpp"
#include "sim/kernel.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "workload/textio.hpp"

namespace mdd::store {
namespace {

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Re-stamps the content hash after a deliberate body mutation, so the
/// structural validators (not the hash) are what rejects the file.
void restamp_content_hash(std::vector<std::uint8_t>& bytes) {
  ASSERT_GE(bytes.size(), kHeaderBytes);
  const std::uint64_t h =
      fnv1a(bytes.data() + kHeaderBytes, bytes.size() - kHeaderBytes);
  std::vector<std::uint8_t> word;
  put_u64(word, h);
  std::copy(word.begin(), word.end(), bytes.begin() + 64);
}

struct StoreFixture {
  Netlist netlist;
  PatternSet patterns;
  std::vector<Fault> universe;
  std::string path;

  static StoreFixture make(const std::string& tag,
                           StoreUniverseConfig config = {}) {
    StoreFixture f{make_named_circuit("g200"), PatternSet(0, 0), {}, {}};
    f.patterns = PatternSet::random(96, f.netlist.n_inputs(), 0xD1C7);
    f.universe = default_store_universe(f.netlist, config);
    f.path = ::testing::TempDir() + "store_" + tag + kStoreExtension;
    const DictWriter writer(f.netlist, f.patterns);
    writer.write(f.path, f.universe);
    return f;
  }
};

TEST(Varint, RoundTripsRepresentativeValues) {
  const std::uint64_t values[] = {0,    1,    127,  128,   129,
                                  0x3fff, 0x4000, 1u << 20, 0xffffffffull,
                                  0xffffffffffffffffull};
  std::vector<std::uint8_t> buf;
  for (std::uint64_t v : values) put_varint(buf, v);
  const std::uint8_t* p = buf.data();
  const std::uint8_t* end = p + buf.size();
  for (std::uint64_t v : values) EXPECT_EQ(get_varint(p, end), v);
  EXPECT_EQ(p, end);
}

TEST(Varint, RejectsTruncationNonCanonicalAndOverflow) {
  {
    std::vector<std::uint8_t> buf{0x80};  // continuation, then nothing
    const std::uint8_t* p = buf.data();
    EXPECT_THROW(get_varint(p, p + buf.size()), StoreError);
  }
  {
    std::vector<std::uint8_t> buf{0x80, 0x00};  // 0 encoded in two bytes
    const std::uint8_t* p = buf.data();
    EXPECT_THROW(get_varint(p, p + buf.size()), StoreError);
  }
  {
    // 11 bytes of continuation: wider than 64 bits.
    std::vector<std::uint8_t> buf(11, 0xff);
    const std::uint8_t* p = buf.data();
    EXPECT_THROW(get_varint(p, p + buf.size()), StoreError);
  }
  {
    // 10th byte carries bits beyond bit 63.
    std::vector<std::uint8_t> buf(9, 0xff);
    buf.push_back(0x02);
    const std::uint8_t* p = buf.data();
    EXPECT_THROW(get_varint(p, p + buf.size()), StoreError);
  }
}

TEST(ContentHash, TracksContentNotNames) {
  const Netlist a = make_named_circuit("g200");
  Netlist b = make_named_circuit("g200");
  EXPECT_EQ(netlist_content_hash(a), netlist_content_hash(b));
  EXPECT_NE(netlist_content_hash(a),
            netlist_content_hash(make_named_circuit("add8")));

  const PatternSet p1 = PatternSet::random(64, a.n_inputs(), 1);
  const PatternSet p2 = PatternSet::random(64, a.n_inputs(), 1);
  const PatternSet p3 = PatternSet::random(64, a.n_inputs(), 2);
  EXPECT_EQ(patterns_content_hash(p1), patterns_content_hash(p2));
  EXPECT_NE(patterns_content_hash(p1), patterns_content_hash(p3));
}

// The tentpole property: for every fault in the store, decode() must
// reproduce the simulator's ErrorSignature byte for byte — and since the
// file was written once, this also proves the format is kernel-portable.
TEST(StoreRoundTrip, EverySignatureIsByteIdenticalOnEveryKernel) {
  const StoreFixture f = StoreFixture::make("roundtrip");
  const SimKernel& saved = current_kernel();
  for (const SimKernel* kernel : available_kernels()) {
    set_current_kernel(*kernel);
    const auto dict = DictReader::open(f.path);
    dict->validate_for(f.netlist, f.patterns);
    FaultSimulator fsim(f.netlist, f.patterns);
    ASSERT_EQ(dict->n_entries(), f.universe.size())
        << "universe should be duplicate-free";
    for (std::size_t i = 0; i < dict->n_entries(); ++i) {
      const Fault fault = dict->fault_at(i);
      EXPECT_EQ(dict->decode(i), fsim.signature(fault))
          << "record " << i << " kernel " << kernel->name;
    }
  }
  set_current_kernel(saved);
}

TEST(StoreRoundTrip, UndetectedFaultsArePresentWithEmptySignatures) {
  const StoreFixture f = StoreFixture::make("empty");
  const auto dict = DictReader::open(f.path);
  FaultSimulator fsim(f.netlist, f.patterns);
  std::size_t n_empty = 0;
  for (std::size_t i = 0; i < dict->n_entries(); ++i) {
    if (fsim.signature(dict->fault_at(i)).empty()) {
      ++n_empty;
      EXPECT_TRUE(dict->decode(i).empty());
    }
  }
  // g200 with 96 random patterns leaves some faults undetected; the store
  // must record them as present-but-empty (a lookup hit, not a miss).
  EXPECT_GT(n_empty, 0u);
  EXPECT_EQ(dict->verify_all(), dict->total_error_bits());
}

TEST(StoreLookup, FindsEveryStoredFaultAndMissesOthers) {
  StoreUniverseConfig no_bridges;
  no_bridges.include_bridges = false;
  const StoreFixture f = StoreFixture::make("lookup", no_bridges);
  const auto dict = DictReader::open(f.path);
  for (const Fault& fault : f.universe)
    EXPECT_TRUE(dict->find(fault).has_value());
  // Bridges were excluded from this store: a bridge lookup is a miss, not
  // an error (the serving layer falls back to simulation).
  EXPECT_FALSE(dict->lookup(Fault::bridge_dom(1, 2)).has_value());
  EXPECT_FALSE(dict->find(Fault::slow_to_rise(0)).has_value());
}

TEST(StoreHostile, TruncationAtEveryRegionIsRejected) {
  const StoreFixture f = StoreFixture::make("trunc");
  const std::vector<std::uint8_t> good = read_file(f.path);
  const std::string tmp = ::testing::TempDir() + "store_trunc_cut.mdds";
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{7}, std::size_t{40}, kHeaderBytes,
        kHeaderBytes + kRecordBytes + 3, good.size() / 2,
        good.size() - 1}) {
    std::vector<std::uint8_t> bytes(good.begin(), good.begin() + cut);
    write_file(tmp, bytes);
    EXPECT_THROW(DictReader::open(tmp), StoreError) << "cut at " << cut;
  }
}

TEST(StoreHostile, BitFlipsAnywhereAreRejected) {
  const StoreFixture f = StoreFixture::make("flip");
  const std::vector<std::uint8_t> good = read_file(f.path);
  const std::string tmp = ::testing::TempDir() + "store_flip_bit.mdds";
  // One flip per region: magic, header fields, index, payload middle,
  // payload last byte.
  for (const std::size_t at :
       {std::size_t{0}, std::size_t{33}, kHeaderBytes + 5, good.size() / 2,
        good.size() - 1}) {
    std::vector<std::uint8_t> bytes = good;
    bytes[at] ^= 0x40;
    write_file(tmp, bytes);
    EXPECT_THROW(DictReader::open(tmp), StoreError) << "flip at " << at;
  }
}

TEST(StoreHostile, UnsupportedFormatVersionNamesTheProblem) {
  const StoreFixture f = StoreFixture::make("version");
  std::vector<std::uint8_t> bytes = read_file(f.path);
  bytes[8] = 0x2A;  // format_version u32 LE at offset 8
  const std::string tmp = ::testing::TempDir() + "store_version.mdds";
  write_file(tmp, bytes);
  try {
    DictReader::open(tmp);
    FAIL() << "expected StoreError";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(StoreHostile, StructuralLiesSurviveRestampedHashesButNotValidation) {
  const StoreFixture f = StoreFixture::make("struct");
  const std::vector<std::uint8_t> good = read_file(f.path);
  const std::string tmp = ::testing::TempDir() + "store_struct.mdds";

  {
    // Swap the first two index records: content hash fixed up, but the
    // index is no longer sorted — binary search would be wrong.
    std::vector<std::uint8_t> bytes = good;
    std::swap_ranges(bytes.begin() + kHeaderBytes,
                     bytes.begin() + kHeaderBytes + kRecordBytes,
                     bytes.begin() + kHeaderBytes + kRecordBytes);
    restamp_content_hash(bytes);
    write_file(tmp, bytes);
    EXPECT_THROW(DictReader::open(tmp), StoreError) << "unsorted index";
  }
  {
    // Nudge record 0's extent start: extents are no longer contiguous.
    std::vector<std::uint8_t> bytes = good;
    bytes[kHeaderBytes + 16] ^= 0x01;  // FaultRecord.offset low byte
    restamp_content_hash(bytes);
    write_file(tmp, bytes);
    EXPECT_THROW(DictReader::open(tmp), StoreError) << "extent gap";
  }
  {
    // Claim an unknown fault kind.
    std::vector<std::uint8_t> bytes = good;
    bytes[kHeaderBytes] = 0x77;
    restamp_content_hash(bytes);
    write_file(tmp, bytes);
    EXPECT_THROW(DictReader::open(tmp), StoreError) << "bad fault kind";
  }
}

TEST(StoreIdentity, WrongNetlistOrPatternsIsDetectedByContentHash) {
  const StoreFixture f = StoreFixture::make("identity");
  const auto dict = DictReader::open(f.path);
  const Netlist other_netlist = make_named_circuit("add8");
  const PatternSet other_patterns =
      PatternSet::random(96, f.netlist.n_inputs(), 0xBEEF);
  EXPECT_TRUE(dict->matches(f.netlist, f.patterns));
  EXPECT_FALSE(dict->matches(f.netlist, other_patterns));
  EXPECT_FALSE(dict->matches(other_netlist,
                             PatternSet::random(96, other_netlist.n_inputs(), 1)));
  EXPECT_NO_THROW(dict->validate_for(f.netlist, f.patterns));
  EXPECT_THROW(dict->validate_for(f.netlist, other_patterns), StoreError);
}

TEST(StoreWriter, RewritesAreAtomicAndDeduplicated) {
  StoreFixture f = StoreFixture::make("atomic");
  // Duplicate the universe: the writer must sort + dedupe to one record
  // per fault, and the rewrite must land atomically over the old file.
  std::vector<Fault> doubled = f.universe;
  doubled.insert(doubled.end(), f.universe.begin(), f.universe.end());
  const DictWriter writer(f.netlist, f.patterns);
  const BuildStats stats = writer.write(f.path, doubled);
  EXPECT_EQ(stats.n_faults, f.universe.size());
  const auto dict = DictReader::open(f.path);
  EXPECT_EQ(dict->n_entries(), f.universe.size());
  EXPECT_EQ(dict->verify_all(), stats.n_error_bits);
  // No .tmp debris after a successful rename.
  std::ifstream tmp(f.path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST(StoreDictionary, FromStoreBuildEqualsFreshSimulation) {
  const StoreFixture f = StoreFixture::make("dict");
  const auto dict_reader = DictReader::open(f.path);

  const FaultDictionary fresh(f.netlist, f.patterns);
  obs::Counter& decodes = obs::registry().counter("store.decodes");
  const std::uint64_t decodes_before = decodes.value();
  const FaultDictionary from_store(f.netlist, f.patterns, *dict_reader);
  EXPECT_EQ(from_store.n_entries(), fresh.n_entries());
  EXPECT_EQ(from_store.stored_bits(), fresh.stored_bits());
  // The default store universe (uncollapsed stuck-at + the same sampled
  // dominant bridges) covers every collapsed representative, so at most
  // the dictionary's wired-bridge-free sampling differs — count it.
  EXPECT_GT(decodes.value(), decodes_before);

  FaultSimulator fsim(f.netlist, f.patterns);
  const std::vector<Fault> defect{Fault::stem_sa(f.netlist.n_nets() / 3, true)};
  const Datalog log = datalog_from_defect(f.netlist, defect, f.patterns,
                                          fsim.good_response());
  const DiagnosisReport a = fresh.diagnose(log);
  const DiagnosisReport b = from_store.diagnose(log);
  ASSERT_FALSE(a.suspects.empty());
  ASSERT_EQ(a.suspects.size(), b.suspects.size());
  for (std::size_t i = 0; i < a.suspects.size(); ++i) {
    EXPECT_EQ(a.suspects[i].fault, b.suspects[i].fault);
    EXPECT_EQ(a.suspects[i].score, b.suspects[i].score);
    EXPECT_EQ(a.suspects[i].alternates, b.suspects[i].alternates);
  }
  EXPECT_EQ(a.explains_all, b.explains_all);
}

TEST(StoreWarm, ContextWarmsFromStoreWithoutSimulatingCoveredCandidates) {
  const StoreFixture f = StoreFixture::make("warm");
  const auto dict = DictReader::open(f.path);
  dict->validate_for(f.netlist, f.patterns);
  server::SignatureMemo memo;
  memo.set_store(dict);
  ASSERT_TRUE(memo.has_store());

  FaultSimulator fsim(f.netlist, f.patterns);
  const std::vector<Fault> defect{
      Fault::stem_sa(f.netlist.n_nets() / 3, false),
      Fault::stem_sa(f.netlist.n_nets() / 2, true)};
  const Datalog log = datalog_from_defect(f.netlist, defect, f.patterns,
                                          fsim.good_response());

  DiagnosisContext ctx(f.netlist, f.patterns, log);
  ctx.attach_solo_store(&memo);
  ASSERT_TRUE(ctx.solo_store_attached());
  obs::Counter& store_hits = obs::registry().counter("store.hits");
  const std::uint64_t hits_before = store_hits.value();
  const std::size_t warmed = ctx.warm_solo_from_store();
  // Every stem stuck-at candidate is in the store; only candidates the
  // extractor invents outside it (sampled dominant bridges with other
  // pairings) can be cold.
  EXPECT_GT(warmed, 0u);
  EXPECT_EQ(ctx.solo_compute_count(), 0u)
      << "store warm must not simulate anything";
  EXPECT_GT(store_hits.value(), hits_before);

  // And the store-warmed context must diagnose byte-identically to a
  // storeless one.
  DiagnosisContext cold(f.netlist, f.patterns, log);
  const DiagnosisReport a = diagnose_multiplet(ctx);
  const DiagnosisReport b = diagnose_multiplet(cold);
  ASSERT_EQ(a.suspects.size(), b.suspects.size());
  for (std::size_t i = 0; i < a.suspects.size(); ++i) {
    EXPECT_EQ(a.suspects[i].fault, b.suspects[i].fault);
    EXPECT_EQ(a.suspects[i].score, b.suspects[i].score);
  }
  EXPECT_EQ(a.explains_all, b.explains_all);
}

TEST(StoreMemo, DiskTierPromotesIntoMemoryTier) {
  const StoreFixture f = StoreFixture::make("memo");
  const auto dict = DictReader::open(f.path);
  server::SignatureMemo memo;
  memo.set_store(dict);

  const Fault fault = f.universe.front();
  const auto count = [](const char* name) {
    return obs::registry().counter(name).value();
  };
  const std::uint64_t store_hits = count("store.hits");
  const std::uint64_t store_misses = count("store.misses");
  const std::uint64_t memo_hits = count("memo.signature.hits");
  const std::uint64_t memo_misses = count("memo.signature.misses");
  const auto first = memo.lookup(fault);
  ASSERT_NE(first, nullptr) << "store should answer the memory miss";
  const auto second = memo.lookup(fault);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second.get(), first.get())
      << "second lookup must be the promoted in-memory object";

  EXPECT_EQ(count("store.hits") - store_hits, 1u);
  EXPECT_EQ(count("memo.signature.hits") - memo_hits, 1u);
  // A store hit is an answered lookup: the caller never simulates, so the
  // memory-tier miss counter must not move.
  EXPECT_EQ(count("memo.signature.misses") - memo_misses, 0u);

  // A fault the store lacks is a miss on both tiers.
  EXPECT_EQ(memo.lookup(Fault::slow_to_rise(0)), nullptr);
  EXPECT_EQ(count("store.misses") - store_misses, 1u);
  EXPECT_EQ(count("memo.signature.misses") - memo_misses, 1u);
}

TEST(StoreMemo, EachAnswerCountsOnceInItsTier) {
  // perfbench derives the memo and store hit ratios from these registry
  // counters, so what each answer counts is pinned here: a .mdds answer
  // is a store hit (neither a memo hit nor a miss), its promoted copy
  // answers later lookups as a memo hit, and only an answer no tier
  // gives is a miss.
  const StoreFixture f = StoreFixture::make("memo-counting");
  const auto dict = DictReader::open(f.path);
  server::SignatureMemo memo(1 << 20);
  memo.set_store(dict);

  struct Counts {
    std::uint64_t memo_hits, memo_misses, store_hits;
  };
  const auto counts = [] {
    auto& r = obs::registry();
    return Counts{r.counter("memo.signature.hits").value(),
                  r.counter("memo.signature.misses").value(),
                  r.counter("store.hits").value()};
  };
  const auto expect_delta = [&](const Counts& before, Counts want) {
    const Counts now = counts();
    EXPECT_EQ(now.memo_hits - before.memo_hits, want.memo_hits);
    EXPECT_EQ(now.memo_misses - before.memo_misses, want.memo_misses);
    EXPECT_EQ(now.store_hits - before.store_hits, want.store_hits);
  };

  const Fault fault = f.universe.front();
  Counts before = counts();
  ASSERT_NE(memo.lookup(fault), nullptr);
  expect_delta(before, {0, 0, 1});

  // The store answer was promoted; the next lookup is a memory hit.
  before = counts();
  ASSERT_NE(memo.lookup(fault), nullptr);
  expect_delta(before, {1, 0, 0});

  before = counts();
  EXPECT_EQ(memo.lookup(Fault::slow_to_rise(0)), nullptr);
  expect_delta(before, {0, 1, 0});
}

TEST(StoreMemo, BatchLookupMatchesSingleLookupsKeyForKey) {
  // Oracle for lookup_many: twin memos with the same inserts and the same
  // .mdds store; one serves a key mix as one batch, the other as single
  // lookups. Answers, every registry counter the tiers move and the
  // footprints must all agree.
  const StoreFixture f = StoreFixture::make("memo-batch");
  const auto dict = DictReader::open(f.path);
  ASSERT_GE(f.universe.size(), 4u);
  SingleFaultPropagator prop(f.netlist, f.patterns);

  const auto make_twin = [&] {
    auto memo = std::make_unique<server::SignatureMemo>(1 << 20);
    memo->set_store(dict);
    // Memory tier: two faults known.
    for (std::size_t u = 0; u < 2; ++u)
      memo->store(f.universe[u], std::make_shared<const ErrorSignature>(
                                     prop.signature(f.universe[u])));
    return memo;
  };
  const auto batch = make_twin();
  const auto single = make_twin();

  const Fault unknown = Fault::slow_to_rise(0);  // in no tier
  const std::vector<Fault> faults{
      f.universe[0],  // memory hit
      f.universe[1],  // memory hit
      f.universe[2],  // .mdds decode
      f.universe[3],  // .mdds decode
      f.universe[3],  // the decode's promotion, now a memory hit
      unknown,        // miss
      f.universe[2],  // promoted earlier in the same batch
  };

  const std::vector<std::string> names{
      "memo.signature.hits",     "memo.signature.misses",
      "memo.signature.inserts",  "memo.signature.evictions",
      "memo.signature.declined", "store.hits",
      "store.misses",            "store.decode_failures"};
  const auto counters = [&] {
    std::vector<std::uint64_t> v;
    for (const std::string& n : names)
      v.push_back(obs::registry().counter(n).value());
    return v;
  };
  const auto delta = [](const std::vector<std::uint64_t>& a,
                        const std::vector<std::uint64_t>& b) {
    std::vector<std::uint64_t> d;
    for (std::size_t i = 0; i < a.size(); ++i) d.push_back(b[i] - a[i]);
    return d;
  };

  std::vector<std::shared_ptr<const ErrorSignature>> got_batch(faults.size());
  std::vector<std::shared_ptr<const ErrorSignature>> got_single(
      faults.size());
  auto before = counters();
  batch->lookup_many(faults, got_batch);
  const auto batch_delta = delta(before, counters());

  before = counters();
  for (std::size_t k = 0; k < faults.size(); ++k)
    got_single[k] = single->lookup(faults[k]);
  const auto single_delta = delta(before, counters());

  for (std::size_t i = 0; i < names.size(); ++i)
    EXPECT_EQ(batch_delta[i], single_delta[i]) << names[i];
  EXPECT_GT(batch_delta[0], 0u) << "memo hits";
  EXPECT_GT(batch_delta[1], 0u) << "memo misses";
  EXPECT_GT(batch_delta[5], 0u) << "store hits";
  EXPECT_GT(batch_delta[6], 0u) << "store misses";

  for (std::size_t k = 0; k < faults.size(); ++k) {
    ASSERT_EQ(got_batch[k] == nullptr, got_single[k] == nullptr) << "key " << k;
    if (got_batch[k] != nullptr) {
      EXPECT_EQ(*got_batch[k], *got_single[k]) << "key " << k;
    }
  }
  EXPECT_EQ(got_batch[5], nullptr);

  const CacheStats sb = batch->stats();
  const CacheStats ss = single->stats();
  EXPECT_EQ(sb.entries, ss.entries);
  EXPECT_EQ(sb.approx_bytes, ss.approx_bytes);
}

TEST(StoreWarm, TruncatedContextCutsStoreAnswersToItsWindow) {
  // The .mdds store holds full-set signatures; an ATE-truncated (and
  // X-masked) datalog's context must cut every store-served slot to its
  // applied window, shape included — byte-identical to simulating over
  // the window directly and subtracting the mask.
  const StoreFixture f = StoreFixture::make("memo-truncated");
  const auto dict = DictReader::open(f.path);
  server::SignatureMemo memo;
  memo.set_store(dict);

  FaultSimulator fsim(f.netlist, f.patterns);
  const std::vector<Fault> defect{
      Fault::stem_sa(f.netlist.n_nets() / 3, false),
      Fault::stem_sa(f.netlist.n_nets() / 2, true)};
  DatalogOptions options;
  options.max_failing_patterns = 3;
  options.x_mask_fraction = 0.05;
  const Datalog log = datalog_from_defect(f.netlist, defect, f.patterns,
                                          fsim.good_response(), options);
  ASSERT_LT(log.n_patterns_applied, f.patterns.n_patterns());

  DiagnosisContext ctx(f.netlist, f.patterns, log);
  ctx.attach_solo_store(&memo);
  obs::Counter& store_hits = obs::registry().counter("store.hits");
  const std::uint64_t hits_before = store_hits.value();
  ASSERT_GT(ctx.warm_solo_from_store(), 0u);
  EXPECT_EQ(ctx.solo_compute_count(), 0u);
  EXPECT_GT(store_hits.value(), hits_before);

  PatternSet window(0, f.patterns.n_signals());
  for (std::size_t p = 0; p < log.n_patterns_applied; ++p)
    window.append(f.patterns.pattern(p));
  SingleFaultPropagator prop(f.netlist, window);
  const ErrorSignature masked =
      restrict_signature(log.masked, log.n_patterns_applied);
  std::size_t failing = 0;
  for (std::size_t i = 0; i < ctx.n_candidates(); ++i) {
    const ErrorSignature want =
        signature_difference(prop.signature(ctx.candidate(i)), masked);
    const ErrorSignature& got = ctx.solo_signature(i);
    EXPECT_EQ(got.n_patterns(), log.n_patterns_applied) << "slot " << i;
    EXPECT_EQ(got, want) << "slot " << i;
    failing += got.empty() ? 0 : 1;
  }
  EXPECT_GT(failing, 0u) << "the comparison must bite on failing slots";
}

}  // namespace
}  // namespace mdd::store
