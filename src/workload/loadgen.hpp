// openmdd — sampled-defect datalog corpora.
//
// Produces realistic tester datalogs the same way the campaign driver
// does — sample a defect multiplet, simulate the composite machine,
// truncate like an ATE — with the campaign's decorrelated per-case
// seeding, so a corpus is reproducible from (circuit, seed, n_cases)
// alone and a smaller draw with the same seed is a prefix of a larger one.
// `openmdd corpus` writes one to disk; perfbench and the perf benches
// draw theirs in process.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "diag/datalog.hpp"
#include "workload/campaign.hpp"

namespace mdd {

struct LoadgenCase {
  std::vector<Fault> defect;
  /// Datalog in the textio wire format (what goes into a request's
  /// inline "datalog" field or a corpus file).
  std::string datalog_text;
  std::size_t n_failing_patterns = 0;
};

struct CorpusConfig {
  std::size_t n_cases = 50;
  DefectSampleConfig defect{};
  DatalogOptions datalog{};
  std::uint64_t seed = 1;
};

/// Seed-deterministic datalog corpus for one circuit. `good` must be the
/// good-machine response for `patterns`. Cases whose defect sampling
/// fails (tiny circuits + strict constraints) are skipped, so the result
/// may hold fewer than n_cases entries.
std::vector<LoadgenCase> make_corpus(const Netlist& netlist,
                                     const PatternSet& patterns,
                                     const PatternSet& good,
                                     const CorpusConfig& config);

}  // namespace mdd
