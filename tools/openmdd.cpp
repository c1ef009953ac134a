// openmdd — command-line front-end.
//
//   openmdd stats    <netlist>
//   openmdd convert  <netlist> -o out.{bench,v}
//   openmdd atpg     <netlist> -o patterns.txt [--seed N] [--no-compact]
//   openmdd inject   <netlist> --patterns f --fault "sa0 n16" [--fault ...]
//                    [-o datalog.txt] [--max-failing N]
//   openmdd diagnose <netlist> --patterns f --datalog f
//                    [--method multiplet|slat|single|all] [--threads N]
//   openmdd diagnose <netlist> --patterns f --batch <dir|list-file>
//                    [--store-dir d] [--threads N] [--format text|json]
//   openmdd corpus   <circuit> -o dir [--cases N] [--seed N]
//
// --batch switches diagnose into volume mode: every *.datalog in the
// directory (or every path listed in the file, one per line) is
// diagnosed against ONE warmed session — shared baseline, dictionary
// store, and signature memos — and a cross-datalog recurrence summary
// (systematic vs. random, net hit counts) is appended. Per-datalog
// reports are byte-identical to running `diagnose --datalog` once per
// file.
//
// corpus writes a registry circuit (dir/<circuit>.bench), its pattern set
// (dir/<circuit>.patterns) and a seed-deterministic corpus of sampled-
// defect datalogs (dir/case_<i>.datalog), reproducible from (circuit,
// seed, cases) alone; see mdd::make_corpus in src/workload/loadgen.hpp.
//
// --threads N (or the MDD_THREADS environment variable; 0 = all cores)
// pre-fills the candidate solo-signature cache candidate-parallel before
// diagnosis; reports are byte-identical for any thread count.
//
// Netlists are read as ISCAS .bench (*.bench) or structural Verilog (*.v);
// file formats are documented in src/workload/textio.hpp.
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <filesystem>

#include "atpg/tpg.hpp"
#include "core/cancel.hpp"
#include "core/exec.hpp"
#include "core/version.hpp"
#include "diag/method.hpp"
#include "fault/collapse.hpp"
#include "fsim/fsim.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/dot.hpp"
#include "netlist/verilog_parser.hpp"
#include "server/result_json.hpp"
#include "server/service.hpp"
#include "sim/kernel.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "workload/circuits.hpp"
#include "workload/loadgen.hpp"
#include "workload/textio.hpp"

namespace {

using namespace mdd;

int usage() {
  std::cerr
      << "usage:\n"
         "  openmdd stats    <netlist>\n"
         "  openmdd convert  <netlist> -o <out.bench|out.v|out.dot>\n"
         "  openmdd atpg     <netlist> -o <patterns.txt> [--seed N]"
         " [--no-compact]\n"
         "  openmdd inject   <netlist> --patterns <f> --fault <spec>..."
         " [-o <datalog>] [--max-failing N]\n"
         "  openmdd diagnose <netlist> --patterns <f> --datalog <f>"
         " [--method multiplet|slat|single|all]\n"
         "                   [--threads N] [--format text|json]"
         " [--deadline-ms N]\n"
         "  openmdd diagnose <netlist> --patterns <f> --batch"
         " <dir|list-file> [--store-dir <d>]\n"
         "                   [--method M] [--threads N]"
         " [--format text|json]\n"
         "  openmdd corpus   <circuit> -o <dir> [--cases N] [--seed N]\n"
         "  openmdd dict build   <netlist> --patterns <f> --store-dir <dir>"
         " [--bridges N] [--bridge-seed N]\n"
         "                       [--no-bridges] [--no-wired] [--threads N]"
         " [--force]\n"
         "  openmdd dict inspect <store-file-or-dir>\n"
         "  openmdd dict verify  <store-file> [--netlist <f> --patterns <f>]"
         " [--sample N]\n"
         "  openmdd version [--store-dir <dir>]\n"
         "fault specs: 'sa0 NET' 'sa1 GATE.PIN' 'dom AGG VICTIM'"
         " 'wand A B' 'wor A B' 'str NET' 'stf NET'\n"
         "--kernel NAME (any command) selects the simulation kernel"
         " (available: "
      << kernel_names() << "; default: widest, or MDD_KERNEL)\n";
  return 2;
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Netlist load_netlist(const std::string& path) {
  if (ends_with(path, ".bench")) return parse_bench_file(path).netlist;
  if (ends_with(path, ".v")) {
    static const CellLibrary lib;
    return parse_verilog_file(path, lib).netlist;
  }
  throw std::runtime_error("unknown netlist extension (want .bench or .v): " +
                           path);
}

struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> options;  // --key value
  std::vector<std::string> flags;                            // --key

  bool has_flag(std::string_view f) const {
    for (const auto& x : flags)
      if (x == f) return true;
    return false;
  }
  std::string option(std::string_view key, std::string dflt = "") const {
    for (const auto& [k, v] : options)
      if (k == key) return v;
    return dflt;
  }
  std::vector<std::string> all_options(std::string_view key) const {
    std::vector<std::string> out;
    for (const auto& [k, v] : options)
      if (k == key) out.push_back(v);
    return out;
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  static const char* kValueOptions[] = {
      "-o",          "--patterns", "--fault",   "--datalog",
      "--seed",      "--method",   "--max-failing", "--threads",
      "--format",    "--deadline-ms", "--kernel",  "--store-dir",
      "--bridges",   "--bridge-seed", "--sample",  "--netlist",
      "--batch",     "--cases"};
  static const char* kFlags[] = {"--no-compact", "--no-bridges",
                                 "--no-wired", "--force"};
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    bool is_value_option = false;
    for (const char* vo : kValueOptions) is_value_option |= (a == vo);
    if (is_value_option) {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      args.options.emplace_back(a, argv[++i]);
    } else if (a.rfind("-", 0) == 0) {
      bool known = false;
      for (const char* f : kFlags) known |= (a == f);
      if (!known)
        throw std::runtime_error("unknown option '" + a +
                                 "' (see usage: run with no arguments)");
      args.flags.push_back(a);
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

/// Strict non-negative integer parse for option values; rejects trailing
/// junk, signs, and empty strings with the flag name in the message.
std::size_t parse_count(const std::string& value, std::string_view flag) {
  std::size_t pos = 0;
  unsigned long long n = 0;
  bool ok = !value.empty() && value[0] != '-' && value[0] != '+';
  if (ok) {
    try {
      n = std::stoull(value, &pos);
    } catch (const std::exception&) {
      ok = false;
    }
  }
  if (!ok || pos != value.size())
    throw std::runtime_error(std::string(flag) +
                             " wants a non-negative integer, got '" + value +
                             "'");
  return static_cast<std::size_t>(n);
}

int cmd_stats(const Args& args) {
  const Netlist nl = load_netlist(args.positional.at(0));
  const auto s = nl.stats();
  const CollapsedFaults cf(nl);
  std::cout << "netlist:    " << nl.name() << "\n"
            << "inputs:     " << s.n_inputs << "\n"
            << "outputs:    " << s.n_outputs << "\n"
            << "gates:      " << s.n_gates << "\n"
            << "depth:      " << s.depth << "\n"
            << "max fanin:  " << s.max_fanin << "\n"
            << "max fanout: " << s.max_fanout << "\n"
            << "stems:      " << s.n_fanout_stems << "\n"
            << "sa faults:  " << cf.universe().size() << " ("
            << cf.representatives().size() << " collapsed)\n"
            << "cells:      " << nl.cell_instances().size() << "\n";
  return 0;
}

int cmd_convert(const Args& args) {
  const Netlist nl = load_netlist(args.positional.at(0));
  const std::string out = args.option("-o");
  if (out.empty()) throw std::runtime_error("convert: missing -o");
  std::ofstream os(out);
  if (!os) throw std::runtime_error("cannot write " + out);
  if (ends_with(out, ".bench"))
    write_bench(os, nl);
  else if (ends_with(out, ".v"))
    write_verilog(os, nl);
  else if (ends_with(out, ".dot"))
    write_dot(os, nl);
  else
    throw std::runtime_error("unknown output extension: " + out);
  std::cout << "wrote " << out << "\n";
  return 0;
}

int cmd_atpg(const Args& args) {
  const Netlist nl = load_netlist(args.positional.at(0));
  const std::string out = args.option("-o");
  if (out.empty()) throw std::runtime_error("atpg: missing -o");
  TpgOptions opt;
  opt.seed = parse_count(args.option("--seed", "1"), "--seed");
  opt.compact = !args.has_flag("--no-compact");
  const TpgResult r = generate_tests(nl, opt);
  write_patterns_file(out, r.patterns);
  std::cout << "patterns:   " << r.patterns.n_patterns() << "\n"
            << "coverage:   " << r.coverage() * 100 << "%\n"
            << "effective:  " << r.effective_coverage() * 100 << "%\n"
            << "untestable: " << r.n_untestable << "\n"
            << "aborted:    " << r.n_aborted << "\n"
            << "wrote " << out << "\n";
  return 0;
}

int cmd_inject(const Args& args) {
  const Netlist nl = load_netlist(args.positional.at(0));
  const PatternSet patterns = read_patterns_file(args.option("--patterns"));
  if (patterns.n_signals() != nl.n_inputs())
    throw std::runtime_error("pattern width does not match netlist inputs");
  std::vector<Fault> defect;
  for (const std::string& spec : args.all_options("--fault"))
    defect.push_back(parse_fault_spec(spec, nl));
  if (defect.empty()) throw std::runtime_error("inject: no --fault given");

  DatalogOptions opt;
  const std::string cap = args.option("--max-failing");
  if (!cap.empty()) opt.max_failing_patterns = parse_count(cap, "--max-failing");

  const PatternSet good = simulate(nl, patterns);
  const Datalog log = datalog_from_defect(nl, defect, patterns, good, opt);
  std::cout << "injected " << defect.size() << " fault(s); "
            << log.observed.n_failing_patterns() << " failing patterns, "
            << log.observed.n_error_bits() << " failing bits\n";
  const std::string out = args.option("-o");
  if (out.empty()) {
    write_datalog(std::cout, log, nl);
  } else {
    write_datalog_file(out, log, nl);
    std::cout << "wrote " << out << "\n";
  }
  return 0;
}

/// Volume mode: one warmed in-process service session diagnoses every
/// datalog in a directory (or list file), then prints the cross-datalog
/// recurrence summary. Reports per datalog match `--datalog` runs.
int cmd_diagnose_batch(const Args& args) {
  const std::string batch = args.option("--batch");
  const std::string format = args.option("--format", "text");
  if (format != "text" && format != "json")
    throw std::runtime_error("--format wants 'text' or 'json', got '" +
                             format + "'");

  server::ServiceOptions options;
  options.n_workers = 1;  // handle() runs on this thread; no queue traffic
  options.store_dir = args.option("--store-dir");
  const std::string threads = args.option("--threads");
  if (!threads.empty())
    options.batch_threads = parse_count(threads, "--threads");

  server::Json request;
  request.set("op", "diagnose_batch");
  request.set("netlist", args.positional.at(0));
  request.set("patterns", args.option("--patterns"));
  request.set("method", args.option("--method", "multiplet"));
  if (std::filesystem::is_directory(batch)) {
    request.set("datalog_dir", batch);
  } else {
    std::ifstream in(batch);
    if (!in) throw std::runtime_error("cannot read batch list " + batch);
    server::JsonArray files;
    std::string line;
    while (std::getline(in, line)) {
      while (!line.empty() && (line.back() == '\r' || line.back() == ' '))
        line.pop_back();
      if (!line.empty()) files.emplace_back(line);
    }
    request.set("datalog_files", server::Json(std::move(files)));
  }

  server::DiagnosisService service(options);
  const server::Json response = service.handle(request);
  if (response.get_string("status") == "error")
    throw std::runtime_error(response.get_string("error"));

  if (format == "json") {
    std::cout << response.dump() << "\n";
    return 0;
  }

  const server::Json* volume = response.find("volume");
  std::cout << "datalogs:   "
            << static_cast<std::size_t>(response.get_number("n_datalogs"))
            << " (" << static_cast<std::size_t>(response.get_number("n_errors"))
            << " errors, "
            << static_cast<std::size_t>(response.get_number("threads"))
            << " threads)\n";
  if (const server::Json* results = response.find("results")) {
    for (const server::Json& item : results->as_array()) {
      std::cout << "  [" << static_cast<std::size_t>(item.get_number("index"))
                << "] " << item.get_string("status");
      const std::string file = item.get_string("datalog_file");
      if (!file.empty()) std::cout << "  " << file;
      if (const server::Json* reports = item.find("reports")) {
        if (!reports->as_array().empty()) {
          const server::Json& first = reports->as_array().front();
          if (const server::Json* suspects = first.find("suspects"))
            if (!suspects->as_array().empty())
              std::cout << "  top: "
                        << suspects->as_array().front().get_string("fault");
        }
      }
      const std::string err = item.get_string("error");
      if (!err.empty()) std::cout << "  " << err;
      std::cout << "\n";
    }
  }
  if (volume != nullptr) {
    std::cout << "volume:     "
              << static_cast<std::size_t>(
                     volume->get_number("n_systematic_datalogs"))
              << " systematic / "
              << static_cast<std::size_t>(
                     volume->get_number("n_random_datalogs"))
              << " random datalogs, "
              << static_cast<std::size_t>(
                     volume->get_number("n_distinct_candidates"))
              << " distinct candidates\n";
    if (const server::Json* recs = volume->find("recurrences")) {
      for (const server::Json& r : recs->as_array()) {
        std::cout << "  " << r.get_string("fault") << "  "
                  << static_cast<std::size_t>(r.get_number("n_datalogs"))
                  << " datalogs ("
                  << static_cast<std::size_t>(r.get_number("n_rank1"))
                  << " rank-1)"
                  << (r.get_bool("systematic") ? "  systematic" : "") << "\n";
      }
    }
  }
  if (const server::Json* amortization = response.find("amortization")) {
    std::cout << "amortized:  "
              << static_cast<std::size_t>(
                     amortization->get_number("solo_computes"))
              << " solo simulations for "
              << static_cast<std::size_t>(
                     amortization->get_number("candidates"))
              << " candidate slots\n";
  }
  return 0;
}

int cmd_diagnose(const Args& args) {
  if (!args.option("--batch").empty()) return cmd_diagnose_batch(args);
  const Netlist nl = load_netlist(args.positional.at(0));
  const PatternSet patterns = read_patterns_file(args.option("--patterns"));
  const Datalog log = read_datalog_file(args.option("--datalog"), nl);
  const std::string method = args.option("--method", "multiplet");
  const std::string format = args.option("--format", "text");
  if (format != "text" && format != "json")
    throw std::runtime_error("--format wants 'text' or 'json', got '" +
                             format + "'");
  ExecPolicy exec = ExecPolicy::from_env();
  const std::string threads = args.option("--threads");
  if (!threads.empty())
    exec = ExecPolicy::parallel(parse_count(threads, "--threads"));
  std::optional<CancelToken> token;
  const CancelToken* cancel = nullptr;
  const std::string deadline = args.option("--deadline-ms");
  if (!deadline.empty()) {
    const std::size_t ms = parse_count(deadline, "--deadline-ms");
    if (ms > 0) {
      token.emplace(CancelToken::Clock::now() +
                    std::chrono::milliseconds(ms));
      cancel = &*token;
    }
  }

  const std::span<const DiagnosisMethod> methods = methods_named(method);
  DiagnosisContext ctx(nl, patterns, log);
  if (!exec.is_serial()) ctx.warm_solo_signatures(exec, cancel);
  std::vector<DiagnosisReport> reports;
  for (const DiagnosisMethod& m : methods)
    reports.push_back(m.run(ctx, cancel));

  if (format == "json") {
    // Same serializer as the serving path (src/server/result_json.cpp),
    // so a served response's "reports" diffs clean against this output.
    bool timed_out = false;
    for (const DiagnosisReport& r : reports) timed_out |= r.timed_out;
    server::Json out;
    out.set("status", timed_out ? "timeout" : "ok");
    out.set("method", method);
    if (timed_out) out.set("partial", true);
    out.set("reports", server::reports_to_json(reports, nl));
    std::cout << out.dump() << "\n";
    return 0;
  }

  for (const DiagnosisReport& r : reports) {
    std::cout << "== " << r.method << " (" << r.suspects.size()
              << " suspects" << (r.explains_all ? ", exact" : "")
              << (r.timed_out ? ", partial (deadline)" : "") << ", "
              << r.cpu_seconds * 1000 << " ms)\n";
    for (const ScoredCandidate& sc : r.suspects) {
      std::cout << "  " << to_string(sc.fault, nl) << "  [TFSF="
                << sc.counts.tfsf << " TFSP=" << sc.counts.tfsp
                << " TPSF=" << sc.counts.tpsf << "]\n";
      for (const Fault& alt : sc.alternates)
        std::cout << "    = " << to_string(alt, nl) << "\n";
    }
  }
  return 0;
}

/// `corpus`: a registry circuit, its pattern set and a sampled-defect
/// datalog corpus, all written into one directory.
int cmd_corpus(const Args& args) {
  const std::string circuit = args.positional.at(0);
  const std::string dir = args.option("-o");
  if (dir.empty()) throw std::runtime_error("corpus: missing -o");
  CorpusConfig config;
  config.n_cases = parse_count(
      args.option("--cases", std::to_string(config.n_cases)), "--cases");
  config.seed = parse_count(
      args.option("--seed", std::to_string(config.seed)), "--seed");

  const BenchCircuit bench = load_bench_circuit(circuit);
  const std::vector<LoadgenCase> corpus =
      make_corpus(bench.netlist, bench.patterns,
                  simulate(bench.netlist, bench.patterns), config);
  if (corpus.empty())
    throw std::runtime_error("corpus is empty (defect sampling failed "
                             "for every case; try a larger circuit)");

  const std::filesystem::path out(dir);
  std::filesystem::create_directories(out);
  const std::string base = (out / circuit).string();
  {
    std::ofstream os(base + ".bench");
    if (!os) throw std::runtime_error("cannot write " + base + ".bench");
    write_bench(os, bench.netlist);
  }
  write_patterns_file(base + ".patterns", bench.patterns);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::string path =
        (out / ("case_" + std::to_string(i) + ".datalog")).string();
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write " + path);
    os << corpus[i].datalog_text;
  }
  std::cout << "wrote " << base << ".bench, " << base << ".patterns and "
            << corpus.size() << " datalogs (" << bench.patterns.n_patterns()
            << " patterns, seed " << config.seed << ")\n";
  return 0;
}

int cmd_dict_build(const Args& args) {
  const Netlist nl = load_netlist(args.positional.at(1));
  const PatternSet patterns = read_patterns_file(args.option("--patterns"));
  const std::string dir = args.option("--store-dir");
  if (dir.empty()) throw std::runtime_error("dict build: missing --store-dir");

  store::StoreUniverseConfig config;
  config.include_bridges = !args.has_flag("--no-bridges");
  config.include_wired = !args.has_flag("--no-wired");
  const std::string bridges = args.option("--bridges");
  if (!bridges.empty())
    config.bridge_pairs = parse_count(bridges, "--bridges");
  const std::string seed = args.option("--bridge-seed");
  if (!seed.empty()) config.bridge_seed = parse_count(seed, "--bridge-seed");

  ExecPolicy exec = ExecPolicy::from_env();
  const std::string threads = args.option("--threads");
  if (!threads.empty())
    exec = ExecPolicy::parallel(parse_count(threads, "--threads"));

  std::filesystem::create_directories(dir);
  const store::DictWriter writer(nl, patterns);
  const std::string path = store::store_path_for(dir, nl, patterns);
  const bool skip_build =
      std::filesystem::exists(path) && !args.has_flag("--force");
  if (skip_build) {
    std::cout << "store exists (same content hashes), skipping: " << path
              << "\n(use --force to rebuild)\n";
  } else {
    const std::vector<Fault> universe =
        store::default_store_universe(nl, config);
    const store::BuildStats stats = writer.write(path, universe, exec);
    std::cout << "faults:     " << stats.n_faults << "\n"
              << "error bits: " << stats.n_error_bits << "\n"
              << "file size:  " << stats.file_bytes << " bytes ("
              << stats.payload_bytes << " postings)\n"
              << "simulate:   " << stats.simulate_seconds * 1000 << " ms\n"
              << "encode:     " << stats.encode_seconds * 1000 << " ms\n"
              << "wrote " << path << "\n";
  }
  return 0;
}

void print_store_summary(const std::string& path) {
  const auto dict = store::DictReader::open(path);
  const store::StoreHeader& h = dict->header();
  std::cout << path << "\n"
            << "  format:      v" << h.format_version << "\n"
            << "  netlist:     " << std::hex << h.netlist_hash << std::dec
            << " (content hash)\n"
            << "  patterns:    " << std::hex << h.patterns_hash << std::dec
            << " (content hash)\n"
            << "  shape:       " << h.n_patterns << " patterns x "
            << h.n_outputs << " outputs\n"
            << "  faults:      " << dict->n_entries() << "\n"
            << "  error bits:  " << dict->total_error_bits() << "\n"
            << "  bytes:       " << dict->bytes_mapped() << "\n";
}

int cmd_dict_inspect(const Args& args) {
  const std::string target = args.positional.at(1);
  if (!std::filesystem::is_directory(target)) {
    print_store_summary(target);
    return 0;
  }
  std::size_t n_files = 0, n_bad = 0;
  for (const auto& e : std::filesystem::directory_iterator(target)) {
    if (!e.is_regular_file() ||
        e.path().extension() != store::kStoreExtension)
      continue;
    ++n_files;
    try {
      print_store_summary(e.path().string());
    } catch (const std::exception& ex) {
      ++n_bad;
      std::cout << e.path().string() << "\n  INVALID: " << ex.what() << "\n";
    }
  }
  std::cout << n_files << " store file(s)";
  if (n_bad > 0) std::cout << ", " << n_bad << " invalid";
  std::cout << "\n";
  return n_bad == 0 ? 0 : 1;
}

int cmd_dict_verify(const Args& args) {
  const std::string path = args.positional.at(1);
  // Structural pass: open() has already proven sizes + content hash; a
  // full decode additionally walks every posting list bounds-checked.
  const auto dict = store::DictReader::open(path);
  const std::size_t bits = dict->verify_all();
  std::cout << "structure:  ok (" << dict->n_entries() << " faults, "
            << bits << " error bits decoded)\n";

  const std::string netlist_path = args.option("--netlist");
  const std::string patterns_path = args.option("--patterns");
  if (netlist_path.empty() != patterns_path.empty())
    throw std::runtime_error(
        "dict verify: --netlist and --patterns go together");
  if (netlist_path.empty()) return 0;

  // Semantic pass: prove the store belongs to these inputs, then
  // re-simulate a sample of faults and demand byte-identical signatures.
  const Netlist nl = load_netlist(netlist_path);
  const PatternSet patterns = read_patterns_file(patterns_path);
  dict->validate_for(nl, patterns);
  std::size_t sample = 32;
  const std::string sample_opt = args.option("--sample");
  if (!sample_opt.empty()) sample = parse_count(sample_opt, "--sample");
  const std::size_t n = dict->n_entries();
  if (sample == 0 || sample > n) sample = n;

  FaultSimulator fsim(nl, patterns);
  for (std::size_t k = 0; k < sample; ++k) {
    const std::size_t i = k * n / sample;  // evenly spaced, includes 0
    const Fault f = dict->fault_at(i);
    if (dict->decode(i) != fsim.signature(f))
      throw std::runtime_error("stored signature of fault record " +
                               std::to_string(i) +
                               " differs from fresh simulation");
  }
  std::cout << "simulation: ok (" << sample << " of " << n
            << " signatures re-simulated, byte-identical)\n";
  return 0;
}

int cmd_dict(const Args& args) {
  const std::string sub =
      args.positional.empty() ? std::string() : args.positional.front();
  if (sub == "build") return cmd_dict_build(args);
  if (sub == "inspect") return cmd_dict_inspect(args);
  if (sub == "verify") return cmd_dict_verify(args);
  return usage();
}

/// `openmdd version [--store-dir DIR]`: build/version facts plus, with a
/// store directory, a one-line scan of the persistent dictionaries in it.
int cmd_version(int argc, char** argv) {
  std::cout << "openmdd " << kVersion << "\n"
            << "fsim.kernel: " << mdd::current_kernel().name
            << " (available: " << mdd::kernel_names() << ")\n"
            << "store: format v" << store::kFormatVersion << " (*"
            << store::kStoreExtension << ")\n";
  std::string dir;
  for (int i = 2; i < argc; ++i)
    if (std::string(argv[i]) == "--store-dir" && i + 1 < argc)
      dir = argv[i + 1];
  if (dir.empty()) return 0;
  std::size_t n_files = 0, n_bad = 0, entries = 0, bytes = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (!e.is_regular_file() ||
        e.path().extension() != store::kStoreExtension)
      continue;
    ++n_files;
    try {
      const auto dict = store::DictReader::open(e.path().string());
      entries += dict->n_entries();
      bytes += dict->bytes_mapped();
    } catch (const std::exception&) {
      ++n_bad;
    }
  }
  if (ec) {
    std::cout << "store dir: " << dir << " (unreadable: " << ec.message()
              << ")\n";
    return 0;
  }
  std::cout << "store dir: " << dir << " (" << n_files << " stores, "
            << entries << " entries, " << bytes << " bytes";
  if (n_bad > 0) std::cout << ", " << n_bad << " invalid";
  std::cout << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::string(argv[1]) == "version" ||
                    std::string(argv[1]) == "--version"))
    return cmd_version(argc, argv);
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  try {
    const Args args = parse_args(argc, argv, 2);
    const std::string kernel = args.option("--kernel");
    if (!kernel.empty() && !mdd::set_current_kernel(kernel))
      throw std::runtime_error("unknown simulation kernel '" + kernel +
                               "' (available: " + mdd::kernel_names() + ")");
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "convert") return cmd_convert(args);
    if (cmd == "atpg") return cmd_atpg(args);
    if (cmd == "inject") return cmd_inject(args);
    if (cmd == "diagnose") return cmd_diagnose(args);
    if (cmd == "corpus") return cmd_corpus(args);
    if (cmd == "dict") return cmd_dict(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "openmdd " << cmd << ": " << e.what() << "\n";
    return 1;
  }
}
