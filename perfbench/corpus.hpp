// Benchmark inputs: a registry circuit written to disk (the daemon loads
// sessions from files) and seed-deterministic tester datalogs with their
// injected defects.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/patterns.hpp"
#include "workload/loadgen.hpp"

namespace perfbench {

struct Circuit {
  std::string name;
  mdd::Netlist netlist;
  mdd::PatternSet patterns;
  mdd::PatternSet good;
  std::string netlist_path;
  std::string patterns_path;
};

/// Copies registry circuit `name` (NAME.bench / NAME.patterns) into
/// `dir` and loads it. The files are generated once (the g1k test set
/// takes seconds of ATPG) into `cache_dir`, which must be specific to the
/// build that generates them.
Circuit make_circuit(const std::string& name, const std::string& cache_dir,
                     const std::string& dir);

/// One mdd::make_corpus draw: `n` datalogs of `multiplicity`-member
/// defects (a quarter of the members bridges), logged like an ATE that
/// stops after `max_failing_patterns` failing patterns.
struct Stream {
  std::size_t multiplicity = 2;
  std::size_t n = 0;
  std::size_t max_failing_patterns = SIZE_MAX;
};

/// make_corpus for every stream, concurrently. Stream i is seeded with
/// seed * 64 + i, so streams of one run draw different defects and the
/// result depends on the seed alone.
std::vector<std::vector<mdd::LoadgenCase>> make_streams(
    const Circuit& circuit, const std::vector<Stream>& streams,
    std::uint64_t seed);

/// The datalog a fixed defect produces under ATE truncation.
mdd::LoadgenCase case_of(const Circuit& circuit,
                         const std::vector<mdd::Fault>& defect,
                         std::size_t max_failing_patterns);

}  // namespace perfbench
