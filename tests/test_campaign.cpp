// Unit tests: defect sampling, the campaign driver and datalog corpora.
#include <gtest/gtest.h>

#include <sstream>

#include "workload/campaign.hpp"
#include "workload/circuits.hpp"
#include "workload/loadgen.hpp"
#include "workload/textio.hpp"

namespace mdd {
namespace {

class CampaignFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    circuit_ = new BenchCircuit(load_bench_circuit("g200"));
    fsim_ = new FaultSimulator(circuit_->netlist, circuit_->patterns);
  }
  static void TearDownTestSuite() {
    delete fsim_;
    delete circuit_;
    fsim_ = nullptr;
    circuit_ = nullptr;
  }
  static BenchCircuit* circuit_;
  static FaultSimulator* fsim_;
};
BenchCircuit* CampaignFixture::circuit_ = nullptr;
FaultSimulator* CampaignFixture::fsim_ = nullptr;

TEST_F(CampaignFixture, SampleRespectsMultiplicityAndDistinctness) {
  std::mt19937_64 rng(1);
  DefectSampleConfig cfg;
  cfg.multiplicity = 3;
  for (int iter = 0; iter < 10; ++iter) {
    const auto defect =
        sample_defect(circuit_->netlist, *fsim_, cfg, rng);
    ASSERT_TRUE(defect.has_value());
    EXPECT_EQ(defect->size(), 3u);
    for (std::size_t i = 0; i < defect->size(); ++i)
      for (std::size_t j = i + 1; j < defect->size(); ++j)
        EXPECT_NE((*defect)[i].net, (*defect)[j].net);
  }
}

TEST_F(CampaignFixture, SampledMembersAreDetectable) {
  std::mt19937_64 rng(2);
  DefectSampleConfig cfg;
  cfg.multiplicity = 2;
  for (int iter = 0; iter < 10; ++iter) {
    const auto defect =
        sample_defect(circuit_->netlist, *fsim_, cfg, rng);
    ASSERT_TRUE(defect.has_value());
    for (const Fault& f : *defect)
      EXPECT_TRUE(fsim_->detects(f)) << to_string(f, circuit_->netlist);
  }
}

TEST_F(CampaignFixture, ForcedInteractionSharesOutputs) {
  std::mt19937_64 rng(3);
  DefectSampleConfig cfg;
  cfg.multiplicity = 3;
  cfg.interaction = InteractionLevel::SharedOutputs;
  const Netlist& nl = circuit_->netlist;
  for (int iter = 0; iter < 10; ++iter) {
    const auto defect = sample_defect(nl, *fsim_, cfg, rng);
    ASSERT_TRUE(defect.has_value());
    std::vector<bool> first_pos(nl.n_outputs(), false);
    for (std::uint32_t po : nl.reachable_outputs((*defect)[0].net))
      first_pos[po] = true;
    for (std::size_t m = 1; m < defect->size(); ++m) {
      bool shares = false;
      for (std::uint32_t po : nl.reachable_outputs((*defect)[m].net))
        shares = shares || first_pos[po];
      EXPECT_TRUE(shares) << "member " << m;
    }
  }
}

TEST_F(CampaignFixture, BridgeFractionHonored) {
  std::mt19937_64 rng(4);
  DefectSampleConfig cfg;
  cfg.multiplicity = 4;
  cfg.bridge_fraction = 1.0;
  const auto defect = sample_defect(circuit_->netlist, *fsim_, cfg, rng);
  ASSERT_TRUE(defect.has_value());
  for (const Fault& f : *defect) EXPECT_TRUE(f.is_bridge());

  cfg.bridge_fraction = 0.0;
  const auto defect2 = sample_defect(circuit_->netlist, *fsim_, cfg, rng);
  ASSERT_TRUE(defect2.has_value());
  for (const Fault& f : *defect2) EXPECT_TRUE(f.is_stuck_at());
}

TEST_F(CampaignFixture, SamplingDeterministicInSeed) {
  DefectSampleConfig cfg;
  cfg.multiplicity = 2;
  std::mt19937_64 rng1(9), rng2(9);
  const auto a = sample_defect(circuit_->netlist, *fsim_, cfg, rng1);
  const auto b = sample_defect(circuit_->netlist, *fsim_, cfg, rng2);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(*a, *b);
}

// The seeding contract behind `openmdd corpus` and perfbench: a corpus is
// a function of (circuit, seed, n_cases), a smaller draw is a prefix of a
// larger one (per-case splitmix seeds), and every datalog reads back to
// the observed signature of the case's defect.
TEST_F(CampaignFixture, CorpusDeterministicPrefixStableAndReadable) {
  const Netlist& nl = circuit_->netlist;
  const PatternSet& patterns = circuit_->patterns;
  const PatternSet good = simulate(nl, patterns);
  CorpusConfig config;
  config.seed = 7;
  config.n_cases = 25;
  const std::vector<LoadgenCase> big = make_corpus(nl, patterns, good, config);
  const std::vector<LoadgenCase> again =
      make_corpus(nl, patterns, good, config);
  config.n_cases = 8;
  const std::vector<LoadgenCase> small =
      make_corpus(nl, patterns, good, config);
  ASSERT_EQ(big.size(), 25u);
  ASSERT_EQ(small.size(), 8u);

  for (std::size_t i = 0; i < big.size(); ++i) {
    EXPECT_EQ(big[i].defect, again[i].defect) << "case " << i;
    EXPECT_EQ(big[i].datalog_text, again[i].datalog_text) << "case " << i;
  }
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(big[i].defect, small[i].defect) << "case " << i;
    EXPECT_EQ(big[i].datalog_text, small[i].datalog_text) << "case " << i;
  }
  for (std::size_t i = 0; i < big.size(); ++i) {
    const Datalog expected =
        datalog_from_defect(nl, big[i].defect, patterns, good, {});
    std::istringstream in(big[i].datalog_text);
    const Datalog read = read_datalog(in, nl);
    EXPECT_EQ(read.observed, expected.observed) << "case " << i;
    EXPECT_EQ(read.observed.n_failing_patterns(), big[i].n_failing_patterns)
        << "case " << i;
    EXPECT_TRUE(read.has_failures()) << "case " << i;
  }
}

TEST_F(CampaignFixture, RunCampaignAggregates) {
  CampaignConfig cfg;
  cfg.n_cases = 8;
  cfg.defect.multiplicity = 2;
  cfg.seed = 5;
  const CampaignResult r =
      run_campaign(circuit_->netlist, circuit_->patterns, cfg);
  EXPECT_GT(r.n_cases, 0u);
  EXPECT_LE(r.n_cases, 8u);
  EXPECT_EQ(r.single.n_cases, r.n_cases);
  EXPECT_EQ(r.slat.n_cases, r.n_cases);
  EXPECT_EQ(r.multiplet.n_cases, r.n_cases);
  EXPECT_GT(r.avg_failing_patterns, 0.0);
  EXPECT_GE(r.multiplet.avg_hit_rate(), 0.0);
  EXPECT_LE(r.multiplet.avg_hit_rate(), 1.0);
  EXPECT_GT(r.avg_slat_fraction, 0.0);
}

TEST_F(CampaignFixture, CampaignDeterministic) {
  CampaignConfig cfg;
  cfg.n_cases = 4;
  cfg.defect.multiplicity = 2;
  cfg.seed = 11;
  const CampaignResult a =
      run_campaign(circuit_->netlist, circuit_->patterns, cfg);
  const CampaignResult b =
      run_campaign(circuit_->netlist, circuit_->patterns, cfg);
  EXPECT_EQ(a.n_cases, b.n_cases);
  EXPECT_DOUBLE_EQ(a.multiplet.avg_hit_rate(), b.multiplet.avg_hit_rate());
  EXPECT_DOUBLE_EQ(a.slat.avg_hit_rate(), b.slat.avg_hit_rate());
}

TEST_F(CampaignFixture, SingleDefectCampaignIsNearPerfect) {
  CampaignConfig cfg;
  cfg.n_cases = 10;
  cfg.defect.multiplicity = 1;
  cfg.defect.bridge_fraction = 0.0;
  cfg.seed = 21;
  const CampaignResult r =
      run_campaign(circuit_->netlist, circuit_->patterns, cfg);
  ASSERT_GT(r.n_cases, 5u);
  EXPECT_GE(r.multiplet.avg_hit_rate(), 0.9);
  EXPECT_GE(r.single.first_hit_rate(), 0.9);
  EXPECT_GE(r.multiplet.exact_rate(), 0.9);
}

TEST(MethodAggregate, AddAccumulates) {
  MethodAggregate agg;
  agg.method = "m";
  TruthEvaluation ev;
  ev.n_injected = 2;
  ev.n_hit = 1;
  ev.hit_rate = 0.5;
  ev.precision = 1.0;
  ev.resolution = 0.5;
  ev.all_hit = false;
  ev.first_hit = true;
  DiagnosisReport report;
  report.explains_all = true;
  report.cpu_seconds = 0.25;
  agg.add(ev, report);
  agg.add(ev, report);
  EXPECT_EQ(agg.n_cases, 2u);
  EXPECT_DOUBLE_EQ(agg.avg_hit_rate(), 0.5);
  EXPECT_DOUBLE_EQ(agg.first_hit_rate(), 1.0);
  EXPECT_DOUBLE_EQ(agg.exact_rate(), 1.0);
  EXPECT_DOUBLE_EQ(agg.avg_cpu_ms(), 250.0);
}

TEST(Circuits, RegistryLoads) {
  const auto names = standard_circuit_names();
  EXPECT_GE(names.size(), 8u);
  // Spot-check one small and one generated.
  const BenchCircuit c17 = load_bench_circuit("c17");
  EXPECT_GT(c17.patterns.n_patterns(), 0u);
  EXPECT_DOUBLE_EQ(c17.tpg.effective_coverage(), 1.0);
}

}  // namespace
}  // namespace mdd
