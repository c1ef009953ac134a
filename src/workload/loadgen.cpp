#include "workload/loadgen.hpp"

#include <sstream>

#include "workload/textio.hpp"

namespace mdd {

namespace {

/// Same decorrelated per-case seeding as the campaign driver (splitmix64
/// of seed + index): corpus case i is independent of every other case and
/// reproducible in isolation.
std::uint64_t case_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

std::vector<LoadgenCase> make_corpus(const Netlist& netlist,
                                     const PatternSet& patterns,
                                     const PatternSet& good,
                                     const CorpusConfig& config) {
  FaultSimulator fsim(netlist, patterns, good);
  std::vector<LoadgenCase> corpus;
  corpus.reserve(config.n_cases);
  for (std::size_t c = 0; c < config.n_cases; ++c) {
    std::mt19937_64 rng(case_seed(config.seed, c));
    auto defect = sample_defect(netlist, fsim, config.defect, rng);
    if (!defect) continue;
    const Datalog log = datalog_from_defect(netlist, *defect, patterns, good,
                                            config.datalog);
    std::ostringstream text;
    write_datalog(text, log, netlist);
    LoadgenCase lc;
    lc.defect = std::move(*defect);
    lc.datalog_text = text.str();
    lc.n_failing_patterns = log.observed.n_failing_patterns();
    corpus.push_back(std::move(lc));
  }
  return corpus;
}

}  // namespace mdd
