#include "corpus.hpp"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>

#include "diag/datalog.hpp"
#include "netlist/bench_parser.hpp"
#include "sim/sim2.hpp"
#include "workload/circuits.hpp"
#include "workload/textio.hpp"

namespace perfbench {

namespace fs = std::filesystem;

Circuit make_circuit(const std::string& name, const std::string& cache_dir,
                     const std::string& dir) {
  const fs::path cached = fs::path(cache_dir) / name;
  if (!fs::exists(cached)) {
    // Write into a private directory, then rename: concurrent runs never
    // see a half-written circuit.
    const fs::path tmp =
        fs::path(cache_dir) / (name + ".tmp" + std::to_string(::getpid()));
    fs::remove_all(tmp);
    fs::create_directories(tmp);
    const mdd::BenchCircuit bench = mdd::load_bench_circuit(name);
    std::ofstream os(tmp / (name + ".bench"));
    if (!os) throw std::runtime_error("cannot write " + tmp.string());
    mdd::write_bench(os, bench.netlist);
    os.close();
    mdd::write_patterns_file((tmp / (name + ".patterns")).string(),
                             bench.patterns);
    std::error_code ec;
    fs::rename(tmp, cached, ec);
    if (ec) fs::remove_all(tmp);  // another run got there first
  }
  Circuit c;
  c.name = name;
  c.netlist_path = dir + "/" + name + ".bench";
  c.patterns_path = dir + "/" + name + ".patterns";
  fs::copy_file(cached / (name + ".bench"), c.netlist_path);
  fs::copy_file(cached / (name + ".patterns"), c.patterns_path);
  // Read back what the daemon will load, so injected defects carry the
  // same net ids as the served reports.
  c.netlist = mdd::parse_bench_file(c.netlist_path).netlist;
  c.patterns = mdd::read_patterns_file(c.patterns_path);
  c.good = mdd::simulate(c.netlist, c.patterns);
  return c;
}

std::vector<std::vector<mdd::LoadgenCase>> make_streams(
    const Circuit& circuit, const std::vector<Stream>& streams,
    std::uint64_t seed) {
  std::vector<std::future<std::vector<mdd::LoadgenCase>>> drawn;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    mdd::CorpusConfig config;
    config.n_cases = streams[i].n;
    config.defect.multiplicity = streams[i].multiplicity;
    config.defect.bridge_fraction = 0.25;
    config.datalog.max_failing_patterns = streams[i].max_failing_patterns;
    config.seed = seed * 64 + i;
    drawn.push_back(std::async(std::launch::async, [&circuit, config] {
      return mdd::make_corpus(circuit.netlist, circuit.patterns, circuit.good,
                              config);
    }));
  }
  std::vector<std::vector<mdd::LoadgenCase>> out;
  for (auto& f : drawn) out.push_back(f.get());
  return out;
}

mdd::LoadgenCase case_of(const Circuit& circuit,
                         const std::vector<mdd::Fault>& defect,
                         std::size_t max_failing_patterns) {
  mdd::DatalogOptions options;
  options.max_failing_patterns = max_failing_patterns;
  const mdd::Datalog log = mdd::datalog_from_defect(
      circuit.netlist, defect, circuit.patterns, circuit.good, options);
  std::ostringstream text;
  mdd::write_datalog(text, log, circuit.netlist);
  mdd::LoadgenCase c;
  c.defect = defect;
  c.datalog_text = text.str();
  c.n_failing_patterns = log.observed.n_failing_patterns();
  return c;
}

}  // namespace perfbench
