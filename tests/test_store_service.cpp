// Store-backed serving: a daemon pointed at a prebuilt dictionary store
// must answer its FIRST diagnose with store lookups instead of a full
// per-candidate simulation pass, byte-identical to the storeless path —
// the cold-start contract. Corrupt or mismatched store files degrade to
// plain serving (logged + counted), never to an error response, and the
// daemon never writes to the store directory.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fsim/fsim.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/generator.hpp"
#include "obs/metrics.hpp"
#include "server/service.hpp"
#include "store/writer.hpp"
#include "workload/textio.hpp"

namespace mdd::server {
namespace {

struct StoreServiceFixture {
  std::string netlist_path;
  std::string patterns_path;
  std::string datalog_text;
  std::string store_dir;
  std::string store_file;

  static StoreServiceFixture make(const std::string& tag) {
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

    StoreServiceFixture f;
    const std::string base = ::testing::TempDir() + "storesvc_" + tag;
    f.netlist_path = base + ".bench";
    f.patterns_path = base + ".patterns";
    f.store_dir = base + ".store";
    std::ofstream(f.netlist_path) << write_bench_string(netlist);
    write_patterns_file(f.patterns_path, patterns);
    std::ostringstream dl;
    write_datalog(dl, log, netlist);
    f.datalog_text = dl.str();

    // Build the store exactly the way `openmdd dict build` does: from the
    // files on disk. The service hashes what it parses, so the store must
    // be keyed on the re-parsed netlist (bench round-trips renumber nets).
    std::filesystem::create_directories(f.store_dir);
    const Netlist reparsed = parse_bench_file(f.netlist_path).netlist;
    const PatternSet repat = read_patterns_file(f.patterns_path);
    f.store_file = store::store_path_for(f.store_dir, reparsed, repat);
    const store::DictWriter writer(reparsed, repat);
    writer.write(f.store_file, store::default_store_universe(reparsed));
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
};

std::string reports_dump(const Json& response) {
  const Json* reports = response.find("reports");
  EXPECT_NE(reports, nullptr);
  return reports == nullptr ? std::string() : reports->dump();
}

ServiceOptions with_store(const StoreServiceFixture& f) {
  ServiceOptions o;
  o.store_dir = f.store_dir;
  return o;
}

TEST(StoreService, FirstDiagnoseIsStoreServedAndByteIdentical) {
  const StoreServiceFixture f = StoreServiceFixture::make("cold");

  // The storeless daemon is the reference ("cold path").
  DiagnosisService plain;
  const Json reference = plain.handle(f.diagnose_request("all"));
  ASSERT_EQ(reference.get_string("status"), "ok");

  // Fresh service, prebuilt store: the very first diagnose — a restart's
  // cold start — must already be served from the store...
  const std::uint64_t hits_before =
      obs::registry().counter("store.hits").value();
  DiagnosisService stored(with_store(f));
  const Json first = stored.handle(f.diagnose_request("all"));
  ASSERT_EQ(first.get_string("status"), "ok");
  EXPECT_EQ(reports_dump(first), reports_dump(reference));

  // ...visible in the stats: the session attached the store, the
  // signature memo counted disk hits, nothing was simulated for covered
  // candidates (solo computes happen only for store misses).
  const Json stats = stored.stats_json();
  const Json* store_stats = stats.find("store");
  ASSERT_NE(store_stats, nullptr);
  EXPECT_TRUE(store_stats->get_bool("enabled"));
  EXPECT_EQ(store_stats->get_number("sessions", 0), 1);
  EXPECT_GT(store_stats->get_number("hits", 0),
            static_cast<double>(hits_before));
  EXPECT_GT(store_stats->get_number("bytes_mapped", 0), 0);

  const auto& session = *stored.cache().get(f.netlist_path, f.patterns_path);
  ASSERT_TRUE(session.memo->has_store());
}

TEST(StoreService, StoreServedFirstRequestSkipsCoveredSimulation) {
  const StoreServiceFixture f = StoreServiceFixture::make("warm");
  // Parallel warm enabled: without a store the first request simulates
  // every candidate. With one, covered candidates come from the mmap.
  auto computes_for = [&](const ServiceOptions& options) {
    DiagnosisService service(options);
    const std::uint64_t before =
        obs::registry().counter("diag.solo_computes").value();
    const Json r = service.handle(f.diagnose_request("multiplet"));
    EXPECT_EQ(r.get_string("status"), "ok");
    return obs::registry().counter("diag.solo_computes").value() - before;
  };

  ServiceOptions storeless;
  storeless.exec = ExecPolicy::parallel(2);
  const std::uint64_t cold_computes = computes_for(storeless);

  ServiceOptions stored_options = with_store(f);
  stored_options.exec = ExecPolicy::parallel(2);
  DiagnosisService stored(stored_options);
  obs::Counter& computes = obs::registry().counter("diag.solo_computes");
  obs::Counter& store_hits = obs::registry().counter("store.hits");
  const std::uint64_t before = computes.value();
  const std::uint64_t hits_before = store_hits.value();
  ASSERT_EQ(stored.handle(f.diagnose_request("multiplet")).get_string("status"),
            "ok");
  const std::uint64_t stored_computes = computes.value() - before;
  const std::uint64_t stored_hits = store_hits.value() - hits_before;

  // Extractor-invented bridge pairings outside the sampled store universe
  // still simulate; every stored candidate must not. The store-served
  // first request therefore does strictly less simulation — by at least
  // the number of store answers.
  EXPECT_GT(stored_hits, 0u);
  EXPECT_LE(stored_computes + stored_hits, cold_computes);
}

TEST(StoreService, CorruptStoreFileDegradesToPlainServing) {
  const StoreServiceFixture f = StoreServiceFixture::make("corrupt");
  {
    // Flip one payload byte: open-time content hashing must reject it.
    std::fstream file(f.store_file,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.good());
    file.seekg(0, std::ios::end);
    const std::streamoff size = file.tellg();
    file.seekp(size / 2);
    char byte = 0;
    file.seekg(size / 2);
    file.read(&byte, 1);
    byte ^= 0x10;
    file.seekp(size / 2);
    file.write(&byte, 1);
  }

  DiagnosisService plain;
  const Json reference = plain.handle(f.diagnose_request("all"));

  const std::uint64_t failures_before =
      obs::registry().counter("store.attach_failures").value();
  DiagnosisService stored(with_store(f));
  const Json served = stored.handle(f.diagnose_request("all"));
  ASSERT_EQ(served.get_string("status"), "ok")
      << "a corrupt store must never fail a request";
  EXPECT_EQ(reports_dump(served), reports_dump(reference));
  EXPECT_GT(obs::registry().counter("store.attach_failures").value(),
            failures_before);

  const Json stats = stored.stats_json();
  const Json* store_stats = stats.find("store");
  ASSERT_NE(store_stats, nullptr);
  EXPECT_TRUE(store_stats->get_bool("enabled"));
  EXPECT_EQ(store_stats->get_number("sessions", -1), 0)
      << "the corrupt file must not be attached";
  const auto& session = *stored.cache().get(f.netlist_path, f.patterns_path);
  EXPECT_FALSE(session.memo->has_store());
}

TEST(StoreService, AbsentStoreFileIsSilentlyStoreless) {
  const StoreServiceFixture f = StoreServiceFixture::make("absent");
  std::filesystem::remove(f.store_file);
  const std::uint64_t failures_before =
      obs::registry().counter("store.attach_failures").value();
  DiagnosisService stored(with_store(f));
  const Json r = stored.handle(f.diagnose_request("single"));
  EXPECT_EQ(r.get_string("status"), "ok");
  EXPECT_EQ(obs::registry().counter("store.attach_failures").value(),
            failures_before)
      << "an absent file is the normal case, not a failure";
}

TEST(StoreService, PingAndStatsReportStoreStatusAndUniformMemoShapes) {
  const StoreServiceFixture f = StoreServiceFixture::make("status");
  DiagnosisService stored(with_store(f));

  Json ping;
  ping.set("op", "ping");
  const Json pong = stored.handle(ping);
  const Json* ping_store = pong.find("store");
  ASSERT_NE(ping_store, nullptr);
  EXPECT_TRUE(ping_store->get_bool("enabled"));
  EXPECT_EQ(ping_store->get_string("dir"), f.store_dir);
  EXPECT_EQ(ping_store->get_number("format_version", 0),
            store::kFormatVersion);

  (void)stored.handle(f.diagnose_request("multiplet"));
  const Json stats = stored.stats_json();
  const Json* memos = stats.find("memos");
  ASSERT_NE(memos, nullptr);
  // Satellite contract: every memo layer reports the same shape.
  for (const char* layer : {"signature", "trace", "composite"}) {
    const Json* m = memos->find(layer);
    ASSERT_NE(m, nullptr) << layer;
    for (const char* field :
         {"hits", "misses", "evictions", "entries", "bytes"})
      EXPECT_NE(m->find(field), nullptr) << layer << "." << field;
  }
  EXPECT_NE(memos->find("signature")->find("store_hits"), nullptr);

  // A storeless service reports the store section as disabled.
  DiagnosisService plain;
  const Json plain_stats = plain.stats_json();
  const Json* plain_store = plain_stats.find("store");
  ASSERT_NE(plain_store, nullptr);
  EXPECT_FALSE(plain_store->get_bool("enabled"));
}

/// Every regular file in `dir`, name → bytes.
std::map<std::string, std::string> snapshot_dir(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(e.path(), std::ios::binary);
    out[e.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  return out;
}

// The store is read-only to the daemon. Sidecars an older build left
// beside it (a store-miss journal with a valid header, a fold lock) are
// neither read nor written: serving diagnose and diagnose_batch leaves
// the directory byte-for-byte as it was, and the session still
// store-serves with reports equal to the storeless path.
TEST(StoreService, CorruptSidecarsFailOpenAndNeverFailADiagnosis) {
  const StoreServiceFixture f = StoreServiceFixture::make("sidecars");
  const std::string stem = std::filesystem::path(f.store_file).stem();
  const std::string hashes = stem.substr(0, 16) + " " + stem.substr(17);
  std::ofstream(f.store_dir + "/" + stem + ".journal")
      << "mddj1 " << hashes << "\nf 0 1 0 0\n";
  std::ofstream(f.store_file + ".lock") << "";
  const auto before = snapshot_dir(f.store_dir);
  ASSERT_EQ(before.size(), 3u);

  Json batch;
  batch.set("op", "diagnose_batch");
  batch.set("netlist", f.netlist_path);
  batch.set("patterns", f.patterns_path);
  batch.set("method", "multiplet");
  batch.set("datalogs", Json(JsonArray{Json(f.datalog_text),
                                       Json(f.datalog_text)}));

  DiagnosisService plain;
  const Json reference = plain.handle(f.diagnose_request("multiplet"));
  ASSERT_EQ(reference.get_string("status"), "ok");

  const std::uint64_t hits_before =
      obs::registry().counter("store.hits").value();
  {
    DiagnosisService stored(with_store(f));
    const Json served = stored.handle(f.diagnose_request("multiplet"));
    ASSERT_EQ(served.get_string("status"), "ok")
        << "stale sidecars must never fail a request";
    EXPECT_EQ(reports_dump(served), reports_dump(reference));
    const Json batched = stored.handle(batch);
    ASSERT_EQ(batched.get_string("status"), "ok");
    for (const Json& item : batched.find("results")->as_array())
      EXPECT_EQ(reports_dump(item), reports_dump(reference));

    const auto& session =
        *stored.cache().get(f.netlist_path, f.patterns_path);
    EXPECT_TRUE(session.memo->has_store());
    const Json stats = stored.stats_json();
    EXPECT_GT(stats.find("store")->get_number("hits", 0),
              static_cast<double>(hits_before))
        << "the session must still store-serve";
    EXPECT_EQ(snapshot_dir(f.store_dir), before) << "while serving";
  }
  EXPECT_EQ(snapshot_dir(f.store_dir), before) << "after shutdown";
}

}  // namespace
}  // namespace mdd::server
