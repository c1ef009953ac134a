// Workload-learned store growth: the store-miss journal (append, dedup,
// compact, hostile files), the refresh fold (byte-carry-over merge,
// rebuild-from-absent, journal reset), the composite spill (round trips,
// torn tails, identity checks, mid-flight corruption), and the
// CompositeMemo's memory → spill → compute ladder. Every hostile-input
// case must fail OPEN: sidecars are optimizations, never dependencies.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "diag/composite_memo.hpp"
#include "fsim/fsim.hpp"
#include "netlist/generator.hpp"
#include "obs/metrics.hpp"
#include "store/journal.hpp"
#include "store/reader.hpp"
#include "store/refresh.hpp"
#include "store/spill.hpp"
#include "store/writer.hpp"

namespace mdd::store {
namespace {

struct LearnedFixture {
  Netlist netlist;
  PatternSet patterns;
  std::uint64_t nh = 0;
  std::uint64_t ph = 0;
  std::string dir;

  /// A g200 session keyed into a fresh directory. With `build_store`, a
  /// bridge-free dictionary is prebuilt — so every bridge fault below is
  /// guaranteed to be outside the stored universe (a store miss).
  static LearnedFixture make(const std::string& tag, bool build_store) {
    LearnedFixture f{make_named_circuit("g200"), PatternSet(0, 0), 0, 0, {}};
    f.patterns = PatternSet::random(96, f.netlist.n_inputs(), 0xF01D);
    f.nh = netlist_content_hash(f.netlist);
    f.ph = patterns_content_hash(f.patterns);
    f.dir = ::testing::TempDir() + "learned_" + tag;
    std::filesystem::remove_all(f.dir);
    std::filesystem::create_directories(f.dir);
    if (build_store) {
      StoreUniverseConfig no_bridges;
      no_bridges.include_bridges = false;
      no_bridges.include_wired = false;
      const DictWriter writer(f.netlist, f.patterns);
      writer.write(store_path_for(f.dir, f.netlist, f.patterns),
                   default_store_universe(f.netlist, no_bridges));
    }
    return f;
  }

  std::string store_path() const {
    return store_path_for(dir, netlist, patterns);
  }
  std::string journal_path() const {
    return journal_path_for(dir, netlist, patterns);
  }
  std::string spill_path() const {
    return spill_path_for(dir, netlist, patterns);
  }

  /// Dominant bridges between valid nets — the kind of candidate the
  /// extractor invents and a sampled (here: empty) bridge universe lacks.
  std::vector<Fault> bridges(std::size_t n) const {
    std::vector<Fault> out;
    for (std::size_t i = 0; i < n; ++i)
      out.push_back(Fault::bridge_dom(
          static_cast<NetId>(netlist.n_nets() / 2 + i),
          static_cast<NetId>(netlist.n_nets() / 4 + i)));
    return out;
  }
};

TEST(Journal, RecordsDedupsAndReadsBack) {
  const LearnedFixture f = LearnedFixture::make("journal", false);
  const std::vector<Fault> faults = f.bridges(3);
  {
    FaultJournal journal(f.journal_path(), f.nh, f.ph);
    ASSERT_FALSE(journal.detached());
    EXPECT_EQ(journal.pending(), 0u);
    for (const Fault& x : faults) journal.record(x);
    journal.record(faults.front());  // duplicate: one line per fault
    EXPECT_EQ(journal.pending(), faults.size());
  }
  const JournalContents contents = read_journal(f.journal_path(), f.nh, f.ph);
  EXPECT_EQ(contents.faults, faults);
  EXPECT_EQ(contents.n_skipped, 0u);

  // Reopen: pre-existing entries must load into the dedup set, so a
  // restarted daemon does not re-journal what the file already holds.
  FaultJournal again(f.journal_path(), f.nh, f.ph);
  EXPECT_EQ(again.pending(), faults.size());
  again.record(faults[1]);
  EXPECT_EQ(again.pending(), faults.size());
}

TEST(Journal, WrongHashesRejectReadsAndDetachWriters) {
  const LearnedFixture f = LearnedFixture::make("journal_id", false);
  {
    FaultJournal journal(f.journal_path(), f.nh, f.ph);
    journal.record(f.bridges(1).front());
  }
  // Folding a journal into the wrong store would poison it: read throws.
  EXPECT_THROW(read_journal(f.journal_path(), f.nh + 1, f.ph), StoreError);
  EXPECT_THROW(read_journal(f.journal_path(), f.nh, f.ph ^ 1), StoreError);

  // The append side fails open instead: detached no-op, file untouched.
  FaultJournal wrong(f.journal_path(), f.nh + 1, f.ph);
  EXPECT_TRUE(wrong.detached());
  wrong.record(f.bridges(2).back());
  EXPECT_EQ(wrong.pending(), 0u);
  EXPECT_EQ(read_journal(f.journal_path(), f.nh, f.ph).faults.size(), 1u);
}

TEST(Journal, MalformedLinesAreSkippedNotFatal) {
  const LearnedFixture f = LearnedFixture::make("journal_torn", false);
  const std::vector<Fault> faults = f.bridges(2);
  {
    FaultJournal journal(f.journal_path(), f.nh, f.ph);
    for (const Fault& x : faults) journal.record(x);
  }
  {
    // A torn append plus assorted garbage after the good records.
    std::ofstream out(f.journal_path(), std::ios::app);
    out << "f 0 notanumber 0 0\n"
        << "unknown line\n"
        << "f 1 2 3";  // five fields required, torn at four
  }
  const JournalContents contents = read_journal(f.journal_path(), f.nh, f.ph);
  EXPECT_EQ(contents.faults, faults);
  EXPECT_EQ(contents.n_skipped, 3u);

  // The writer survives the same file: still attached, good lines loaded.
  FaultJournal journal(f.journal_path(), f.nh, f.ph);
  EXPECT_FALSE(journal.detached());
  EXPECT_EQ(journal.pending(), faults.size());
}

TEST(Journal, CompactKeepsUnfoldedRemainderAndDedupSet) {
  const LearnedFixture f = LearnedFixture::make("journal_compact", false);
  const std::vector<Fault> faults = f.bridges(3);
  FaultJournal journal(f.journal_path(), f.nh, f.ph);
  journal.record(faults[0]);
  journal.record(faults[1]);
  const std::vector<Fault> folded = journal.pending_faults();
  journal.record(faults[2]);  // lands between the snapshot and the fold

  journal.compact(folded);
  EXPECT_EQ(journal.pending_faults(), std::vector<Fault>{faults[2]});
  EXPECT_EQ(read_journal(f.journal_path(), f.nh, f.ph).faults,
            std::vector<Fault>{faults[2]});

  // Folded faults are store-served now; re-recording them must not
  // re-grow the file (the dedup set survives the compact).
  journal.record(faults[0]);
  EXPECT_EQ(journal.pending(), 1u);
}

TEST(Refresh, FoldCarriesExistingRecordsAndAddsNewFaultsByteIdentically) {
  const LearnedFixture f = LearnedFixture::make("fold", true);
  const std::vector<Fault> extra = f.bridges(4);
  const auto before = DictReader::open(f.store_path());
  const std::size_t n_before = before->n_entries();
  for (const Fault& x : extra) EXPECT_FALSE(before->find(x).has_value());

  const RefreshStats stats =
      fold_into_store(f.netlist, f.patterns, f.dir, extra);
  EXPECT_EQ(stats.n_offered, extra.size());
  EXPECT_EQ(stats.n_new, extra.size());
  EXPECT_EQ(stats.n_existing, n_before);
  EXPECT_EQ(stats.n_invalid, 0u);
  EXPECT_FALSE(stats.rebuilt);
  EXPECT_TRUE(stats.wrote);

  const auto after = DictReader::open(f.store_path());
  after->validate_for(f.netlist, f.patterns);
  ASSERT_EQ(after->n_entries(), n_before + extra.size());
  FaultSimulator fsim(f.netlist, f.patterns);
  for (const Fault& x : extra) {
    const auto idx = after->find(x);
    ASSERT_TRUE(idx.has_value());
    EXPECT_EQ(after->decode(*idx), fsim.signature(x));
  }
  // Every carried-over record must decode exactly as it did before the
  // fold — the merge moves bytes, never re-encodes them.
  for (std::size_t i = 0; i < n_before; ++i) {
    const auto idx = after->find(before->fault_at(i));
    ASSERT_TRUE(idx.has_value()) << "record " << i << " lost in the fold";
    EXPECT_EQ(after->decode(*idx), before->decode(i));
  }

  // Folding the same faults again is a healthy no-op: nothing rewritten.
  const RefreshStats again =
      fold_into_store(f.netlist, f.patterns, f.dir, extra);
  EXPECT_EQ(again.n_new, 0u);
  EXPECT_FALSE(again.wrote);
}

TEST(Refresh, InvalidOfferedFaultsAreCountedAndDropped) {
  const LearnedFixture f = LearnedFixture::make("fold_invalid", true);
  std::vector<Fault> extra = f.bridges(1);
  extra.push_back(Fault::bridge_dom(
      static_cast<NetId>(f.netlist.n_nets() + 7), 1));  // no such net
  extra.push_back(Fault::stem_sa(2, false));  // likely already stored

  const RefreshStats stats =
      fold_into_store(f.netlist, f.patterns, f.dir, extra);
  EXPECT_EQ(stats.n_offered, 3u);
  EXPECT_EQ(stats.n_invalid, 1u);
  EXPECT_EQ(stats.n_new, 1u);
  const auto dict = DictReader::open(f.store_path());
  EXPECT_NO_THROW(dict->validate_for(f.netlist, f.patterns));
  EXPECT_TRUE(dict->find(extra.front()).has_value());
}

TEST(Refresh, RefreshStoreFoldsTheJournalAndResetsIt) {
  const LearnedFixture f = LearnedFixture::make("refresh", true);

  // No journal yet: a healthy no-op, not an error.
  const RefreshStats idle = refresh_store(f.netlist, f.patterns, f.dir);
  EXPECT_EQ(idle.n_offered, 0u);
  EXPECT_FALSE(idle.wrote);

  const std::vector<Fault> learned = f.bridges(3);
  {
    FaultJournal journal(f.journal_path(), f.nh, f.ph);
    for (const Fault& x : learned) journal.record(x);
  }
  const RefreshStats stats = refresh_store(f.netlist, f.patterns, f.dir);
  EXPECT_EQ(stats.n_new, learned.size());
  EXPECT_TRUE(stats.wrote);
  const auto dict = DictReader::open(f.store_path());
  for (const Fault& x : learned) EXPECT_TRUE(dict->find(x).has_value());
  // Folded: the journal is reset to header-only, ready for new misses.
  EXPECT_TRUE(read_journal(f.journal_path(), f.nh, f.ph).faults.empty());

  // A journal keyed to a different store must never fold: hard error.
  {
    FaultJournal foreign(f.journal_path(), f.nh, f.ph);
  }
  std::ofstream(f.journal_path(), std::ios::trunc)
      << "mddj1 0000000000000bad 0000000000000bad\n";
  EXPECT_THROW(refresh_store(f.netlist, f.patterns, f.dir), StoreError);
}

TEST(Refresh, RebuildsFromDefaultUniverseWhenStoreAbsent) {
  const LearnedFixture f = LearnedFixture::make("rebuild", false);
  const std::vector<Fault> learned = f.bridges(2);
  {
    FaultJournal journal(f.journal_path(), f.nh, f.ph);
    for (const Fault& x : learned) journal.record(x);
  }
  const RefreshStats stats = refresh_store(f.netlist, f.patterns, f.dir);
  EXPECT_TRUE(stats.rebuilt);
  EXPECT_TRUE(stats.wrote);
  EXPECT_EQ(stats.n_new, learned.size());

  const auto dict = DictReader::open(f.store_path());
  EXPECT_NO_THROW(dict->validate_for(f.netlist, f.patterns));
  EXPECT_GT(dict->n_entries(), learned.size())
      << "rebuild must include the default universe, not just the journal";
  for (const Fault& x : learned) EXPECT_TRUE(dict->find(x).has_value());
}

/// A fault of the fixture circuit whose solo signature is non-empty —
/// spill round trips should exercise real postings, not the empty case.
Fault detected_fault(const LearnedFixture& f, FaultSimulator& fsim) {
  for (NetId n = 0; n < f.netlist.n_nets(); ++n) {
    const Fault candidate = Fault::stem_sa(n, false);
    if (!fsim.signature(candidate).empty()) return candidate;
  }
  ADD_FAILURE() << "no detectable fault in the fixture circuit";
  return Fault::stem_sa(0, false);
}

TEST(RefreshLock, SecondAcquirerSeesBusyUntilRelease) {
  const std::string lock_path =
      ::testing::TempDir() + "refresh_lock_excl.lock";
  RefreshLock first = RefreshLock::try_acquire_path(lock_path);
  ASSERT_TRUE(first.held());
  EXPECT_TRUE(first.may_fold());

  // flock is per open file description, so a second open in the same
  // process models a second worker process exactly.
  const RefreshLock second = RefreshLock::try_acquire_path(lock_path);
  EXPECT_EQ(second.state(), RefreshLock::State::busy);
  EXPECT_FALSE(second.held());
  EXPECT_FALSE(second.may_fold()) << "busy must mean: skip this round";

  first.release();
  const RefreshLock third = RefreshLock::try_acquire_path(lock_path);
  EXPECT_TRUE(third.held()) << "release must free the lock for reuse";
}

TEST(RefreshLock, UnusableLockFileFailsOpen) {
  // The lock is an optimization guard, never a dependency: if the lock
  // file cannot be created, folds proceed unguarded rather than stop.
  const RefreshLock lock = RefreshLock::try_acquire_path(
      ::testing::TempDir() + "no_such_dir_for_lock/x.lock");
  EXPECT_EQ(lock.state(), RefreshLock::State::unavailable);
  EXPECT_FALSE(lock.held());
  EXPECT_TRUE(lock.may_fold()) << "fail-open: unguarded, not blocked";
}

TEST(RefreshLock, RefreshStoreWaitsForTheHolder) {
  // Regression for the lost-update race between `openmdd dict refresh`
  // and a daemon's refresh thread (or two daemons on one --store-dir):
  // refresh_store must block on the holder and re-read journal + store
  // after it releases, so the holder's fold cannot be silently
  // overwritten.
  const LearnedFixture f = LearnedFixture::make("lock_wait", true);
  const std::vector<Fault> learned = f.bridges(2);
  {
    FaultJournal journal(f.journal_path(), f.nh, f.ph);
    for (const Fault& x : learned) journal.record(x);
  }

  RefreshLock holder = RefreshLock::acquire_path(
      refresh_lock_path_for(f.dir, f.netlist, f.patterns));
  ASSERT_TRUE(holder.held());

  std::atomic<bool> folded{false};
  RefreshStats stats;
  std::thread refresher([&] {
    stats = refresh_store(f.netlist, f.patterns, f.dir);
    folded.store(true);
  });
  // Generous settle window: the refresher must still be parked on the
  // flock, not done, while we hold it.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(folded.load())
      << "refresh_store must wait for the in-flight fold";

  holder.release();
  refresher.join();
  EXPECT_TRUE(folded.load());
  EXPECT_TRUE(stats.wrote);
  const auto dict = DictReader::open(f.store_path());
  for (const Fault& x : learned) EXPECT_TRUE(dict->find(x).has_value());
}

TEST(RefreshLock, SerializedFoldsLoseNoFaults) {
  // Two workers folding disjoint learned sets against one store: with
  // each fold under the lock, the second fold reads the first fold's
  // output, so both sets land. (Unserialized, both read version N and
  // the last rename silently drops the other fold — the audited race.)
  const LearnedFixture f = LearnedFixture::make("lock_serial", true);
  const std::string lock_path =
      refresh_lock_path_for(f.dir, f.netlist, f.patterns);
  const std::vector<Fault> set_a = f.bridges(2);
  std::vector<Fault> set_b;
  for (std::size_t i = 0; i < 2; ++i)
    set_b.push_back(Fault::bridge_dom(
        static_cast<NetId>(f.netlist.n_nets() / 2 + 10 + i),
        static_cast<NetId>(f.netlist.n_nets() / 4 + 10 + i)));

  std::thread worker_a([&] {
    const RefreshLock lock = RefreshLock::acquire_path(lock_path);
    ASSERT_TRUE(lock.may_fold());
    fold_into_store(f.netlist, f.patterns, f.dir, set_a);
  });
  std::thread worker_b([&] {
    const RefreshLock lock = RefreshLock::acquire_path(lock_path);
    ASSERT_TRUE(lock.may_fold());
    fold_into_store(f.netlist, f.patterns, f.dir, set_b);
  });
  worker_a.join();
  worker_b.join();

  const auto dict = DictReader::open(f.store_path());
  for (const Fault& x : set_a)
    EXPECT_TRUE(dict->find(x).has_value()) << "worker A's fold was lost";
  for (const Fault& x : set_b)
    EXPECT_TRUE(dict->find(x).has_value()) << "worker B's fold was lost";
}

TEST(Spill, PutGetRoundTripsAcrossReopen) {
  const LearnedFixture f = LearnedFixture::make("spill", false);
  FaultSimulator fsim(f.netlist, f.patterns);
  const Fault seed = detected_fault(f, fsim);
  const std::vector<Fault> members{seed, Fault::stem_sa(seed.net, true)};
  const ErrorSignature sig = fsim.signature(seed);
  const std::vector<Fault> other{seed};
  const ErrorSignature empty(f.patterns.n_patterns(), f.netlist.n_outputs());
  const std::size_t window = f.patterns.n_patterns();
  {
    CompositeSpill spill(f.spill_path(), f.nh, f.ph, f.patterns.n_patterns(),
                         f.netlist.n_outputs(), 0);
    ASSERT_FALSE(spill.detached());
    EXPECT_FALSE(spill.get(members, window).has_value());
    spill.put(members, window, sig);
    spill.put(other, window, empty);  // undetected composites store too
    const auto got = spill.get(members, window);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, sig);

    spill.put(members, window, sig);  // duplicate key: declined, not grown
    const SpillStats s = spill.stats();
    EXPECT_EQ(s.writes, 2u);
    EXPECT_EQ(s.declined, 1u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
  }
  // Reopen (a restart): the scan re-indexes both records byte-for-byte.
  CompositeSpill again(f.spill_path(), f.nh, f.ph, f.patterns.n_patterns(),
                       f.netlist.n_outputs(), 0);
  EXPECT_EQ(again.stats().entries, 2u);
  EXPECT_EQ(again.stats().dropped, 0u);
  const auto a = again.get(members, window);
  const auto b = again.get(other, window);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, sig);
  EXPECT_EQ(*b, empty);
  EXPECT_TRUE(b->empty());
}

TEST(Spill, TornTailIsTruncatedAndEarlierRecordsStillServe) {
  const LearnedFixture f = LearnedFixture::make("spill_torn", false);
  FaultSimulator fsim(f.netlist, f.patterns);
  const Fault seed = detected_fault(f, fsim);
  const std::vector<Fault> members{seed};
  const ErrorSignature sig = fsim.signature(seed);
  const std::size_t window = f.patterns.n_patterns();
  {
    CompositeSpill spill(f.spill_path(), f.nh, f.ph, f.patterns.n_patterns(),
                         f.netlist.n_outputs(), 0);
    spill.put(members, window, sig);
  }
  const auto good_size = std::filesystem::file_size(f.spill_path());
  {
    // A crash mid-append: stray bytes after the last complete record.
    std::ofstream out(f.spill_path(), std::ios::binary | std::ios::app);
    out << "torn!";
  }
  CompositeSpill spill(f.spill_path(), f.nh, f.ph, f.patterns.n_patterns(),
                       f.netlist.n_outputs(), 0);
  ASSERT_FALSE(spill.detached());
  EXPECT_EQ(spill.stats().dropped, 1u);
  EXPECT_EQ(spill.stats().entries, 1u);
  const auto got = spill.get(members, window);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, sig);
  // The torn bytes are gone so the next append lands on a boundary.
  EXPECT_EQ(std::filesystem::file_size(f.spill_path()), good_size);
}

TEST(Spill, WrongIdentityOrBadHeaderDetachesFailOpen) {
  const LearnedFixture f = LearnedFixture::make("spill_id", false);
  FaultSimulator fsim(f.netlist, f.patterns);
  const Fault seed = detected_fault(f, fsim);
  const std::vector<Fault> members{seed};
  const ErrorSignature sig = fsim.signature(seed);
  const std::size_t window = f.patterns.n_patterns();
  {
    CompositeSpill spill(f.spill_path(), f.nh, f.ph, f.patterns.n_patterns(),
                         f.netlist.n_outputs(), 0);
    spill.put(members, window, sig);
  }
  // Different netlist hash: a spill for some other circuit — detach, and
  // every operation is a quiet no-op.
  CompositeSpill wrong(f.spill_path(), f.nh + 1, f.ph,
                       f.patterns.n_patterns(), f.netlist.n_outputs(), 0);
  EXPECT_TRUE(wrong.detached());
  EXPECT_FALSE(wrong.get(members, window).has_value());
  wrong.put(members, window, sig);
  EXPECT_EQ(wrong.stats().writes, 0u);

  {
    // Corrupt magic: the whole file is untrustworthy.
    std::fstream file(f.spill_path(),
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(0);
    file.put('X');
  }
  CompositeSpill corrupt(f.spill_path(), f.nh, f.ph, f.patterns.n_patterns(),
                         f.netlist.n_outputs(), 0);
  EXPECT_TRUE(corrupt.detached());
}

TEST(Spill, MidFlightCorruptionDetachesInsteadOfServingBadBits) {
  const LearnedFixture f = LearnedFixture::make("spill_flip", false);
  FaultSimulator fsim(f.netlist, f.patterns);
  const Fault seed = detected_fault(f, fsim);
  const std::vector<Fault> members{seed};
  const ErrorSignature sig = fsim.signature(seed);
  ASSERT_FALSE(sig.empty());
  const std::size_t window = f.patterns.n_patterns();
  CompositeSpill spill(f.spill_path(), f.nh, f.ph, f.patterns.n_patterns(),
                       f.netlist.n_outputs(), 0);
  spill.put(members, window, sig);
  {
    // The file changes under the open instance (posting byte flipped):
    // the pread-side checksum must catch it.
    std::fstream file(f.spill_path(),
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(-1, std::ios::end);
    const char byte = static_cast<char>(file.peek() ^ 0x40);
    file.seekp(-1, std::ios::end);
    file.put(byte);
  }
  EXPECT_FALSE(spill.get(members, window).has_value());
  EXPECT_TRUE(spill.detached());
}

TEST(CompositeMemoSpill, DiskTierServesAcrossMemoInstances) {
  const LearnedFixture f = LearnedFixture::make("memo_spill", false);
  FaultSimulator fsim(f.netlist, f.patterns);
  const Fault seed = detected_fault(f, fsim);
  const std::vector<Fault> members{seed, Fault::stem_sa(seed.net, true)};
  const auto sig =
      std::make_shared<const ErrorSignature>(fsim.signature(seed));
  const CompositeKey key(members, f.patterns.n_patterns());

  auto spill = std::make_shared<CompositeSpill>(
      f.spill_path(), f.nh, f.ph, f.patterns.n_patterns(),
      f.netlist.n_outputs(), 0);
  {
    CompositeMemo memo;
    memo.set_spill(spill);
    EXPECT_EQ(memo.lookup(key), nullptr);
    EXPECT_EQ(memo.stats().spill_misses, 1u);
    memo.store(key, sig);  // writes through to disk
    EXPECT_NE(memo.lookup(key), nullptr);
    EXPECT_EQ(memo.stats().hits, 1u);
  }
  EXPECT_EQ(spill->stats().writes, 1u);

  // A fresh memo (restart, or the entry was evicted): the spill answers,
  // the composite is never re-propagated, and the hit promotes back into
  // the memory tier.
  // The registry counts the answer the same way: perfbench derives its
  // composite and spill hit ratios from these series.
  obs::Counter& memo_hits = obs::registry().counter("memo.composite.hits");
  obs::Counter& memo_misses = obs::registry().counter("memo.composite.misses");
  obs::Counter& spill_hits = obs::registry().counter("store.spill_hits");
  const std::uint64_t memo_hits_before = memo_hits.value();
  const std::uint64_t memo_misses_before = memo_misses.value();
  const std::uint64_t spill_hits_before = spill_hits.value();
  CompositeMemo fresh;
  fresh.set_spill(spill);
  const auto from_disk = fresh.lookup(key);
  ASSERT_NE(from_disk, nullptr);
  EXPECT_EQ(*from_disk, *sig);
  const CompositeMemoStats stats = fresh.stats();
  EXPECT_EQ(stats.spill_hits, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u) << "a spill hit is a served lookup, not a miss";
  EXPECT_EQ(memo_hits.value() - memo_hits_before, 1u);
  EXPECT_EQ(memo_misses.value() - memo_misses_before, 0u);
  EXPECT_EQ(spill_hits.value() - spill_hits_before, 1u);
  const auto promoted = fresh.lookup(key);
  EXPECT_EQ(promoted.get(), from_disk.get())
      << "the second lookup must be the promoted in-memory object";
}

TEST(CompositeMemoSpill, DetachedSpillLeavesTheMemoFullyFunctional) {
  const LearnedFixture f = LearnedFixture::make("memo_spill_detached", false);
  std::ofstream(f.spill_path()) << "not a spill file";
  auto spill = std::make_shared<CompositeSpill>(
      f.spill_path(), f.nh, f.ph, f.patterns.n_patterns(),
      f.netlist.n_outputs(), 0);
  EXPECT_TRUE(spill->detached());

  FaultSimulator fsim(f.netlist, f.patterns);
  const Fault seed = detected_fault(f, fsim);
  const CompositeKey key(std::vector<Fault>{seed}, f.patterns.n_patterns());
  CompositeMemo memo;
  memo.set_spill(spill);
  EXPECT_EQ(memo.lookup(key), nullptr);
  memo.store(key,
             std::make_shared<const ErrorSignature>(fsim.signature(seed)));
  EXPECT_NE(memo.lookup(key), nullptr) << "memory tier must keep working";
}

}  // namespace
}  // namespace mdd::store
