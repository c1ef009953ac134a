#include "diag/dictionary.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "fsim/fsim.hpp"
#include "store/reader.hpp"

namespace mdd {

std::string FaultDictionary::key_of(const ErrorSignature& sig) {
  // Compact byte key: (pattern, mask words) stream. Signatures are
  // canonical (sorted by pattern), so equal signatures give equal keys.
  std::string key;
  key.reserve(sig.n_failing_patterns() * (4 + sig.n_po_words() * 8));
  for (std::size_t i = 0; i < sig.n_failing_patterns(); ++i) {
    const std::uint32_t p = sig.failing_patterns()[i];
    key.append(reinterpret_cast<const char*>(&p), sizeof(p));
    const auto mask = sig.mask(i);
    key.append(reinterpret_cast<const char*>(mask.data()),
               mask.size() * sizeof(Word));
  }
  return key;
}

std::vector<Fault> FaultDictionary::build_universe(
    const Netlist& netlist) const {
  const CollapsedFaults collapsed(netlist);
  std::vector<Fault> faults = collapsed.representatives();
  if (options_.include_bridges) {
    BridgeUniverseConfig bc;
    bc.count = options_.bridge_pairs;
    bc.seed = options_.bridge_seed;
    bc.include_wired = false;
    for (const Fault& f : sample_bridge_faults(netlist, bc))
      faults.push_back(f);
  }
  return faults;
}

void FaultDictionary::index_signatures() {
  for (std::size_t i = 0; i < signatures_.size(); ++i) {
    stored_bits_ += signatures_[i].n_error_bits();
    // Undetected faults (empty signature) are unfindable by definition and
    // would all collide on the empty key.
    if (!signatures_[i].empty())
      by_signature_[key_of(signatures_[i])].push_back(i);
  }
}

FaultDictionary::FaultDictionary(const Netlist& netlist,
                                 const PatternSet& patterns,
                                 const DictionaryOptions& options)
    : netlist_(&netlist), options_(options) {
  const auto t0 = std::chrono::steady_clock::now();
  faults_ = build_universe(netlist);

  FaultSimulator fsim(netlist, patterns);
  signatures_.reserve(faults_.size());
  for (std::size_t i = 0; i < faults_.size(); ++i)
    signatures_.push_back(fsim.signature(faults_[i]));
  index_signatures();
  build_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

FaultDictionary::FaultDictionary(const Netlist& netlist,
                                 const PatternSet& patterns,
                                 const store::DictReader& reader,
                                 const DictionaryOptions& options)
    : netlist_(&netlist), options_(options) {
  const auto t0 = std::chrono::steady_clock::now();
  reader.validate_for(netlist, patterns);
  faults_ = build_universe(netlist);

  // Decode stored faults off the mapping; simulate only the stragglers
  // (e.g. a store built without bridges). The simulator is constructed on
  // first fallback — a fully covering store never pays for it.
  std::optional<FaultSimulator> fsim;
  signatures_.reserve(faults_.size());
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (auto idx = reader.find(faults_[i])) {
      signatures_.push_back(reader.decode(*idx));
    } else {
      if (!fsim.has_value()) fsim.emplace(netlist, patterns);
      signatures_.push_back(fsim->signature(faults_[i]));
    }
  }
  index_signatures();
  build_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

std::vector<Fault> FaultDictionary::exact_matches(
    const ErrorSignature& observed) const {
  std::vector<Fault> out;
  auto it = by_signature_.find(key_of(observed));
  if (it == by_signature_.end()) return out;
  for (std::size_t i : it->second) out.push_back(faults_[i]);
  return out;
}

DiagnosisReport FaultDictionary::diagnose(const Datalog& datalog) const {
  const auto t0 = std::chrono::steady_clock::now();
  DiagnosisReport report;
  report.method = "dictionary";
  report.n_candidates_scored = faults_.size();

  const ErrorSignature observed =
      restrict_signature(datalog.observed, datalog.n_patterns_applied);

  const std::vector<Fault> exact = exact_matches(observed);
  if (!exact.empty()) {
    ScoredCandidate sc;
    sc.fault = exact.front();
    sc.counts = MatchCounts{observed.n_error_bits(), 0, 0};
    sc.score = score_of(sc.counts, options_.weights);
    sc.alternates.assign(exact.begin() + 1, exact.end());
    report.suspects.push_back(std::move(sc));
    report.explains_all = !observed.empty();
  } else {
    // Fallback: rank all entries (no per-pattern assumption, but also no
    // composite modelling — each entry is a single fault).
    struct Entry {
      std::size_t index;
      MatchCounts counts;
      double score;
    };
    std::vector<Entry> entries;
    entries.reserve(faults_.size());
    const SignatureMatcher matcher(observed);
    for (std::size_t i = 0; i < faults_.size(); ++i) {
      const MatchCounts mc = matcher.match(signatures_[i]);
      entries.push_back({i, mc, score_of(mc, options_.weights)});
    }
    std::sort(entries.begin(), entries.end(),
              [&](const Entry& a, const Entry& b) {
                if (a.score != b.score) return a.score > b.score;
                return faults_[a.index] < faults_[b.index];
              });
    const std::size_t k = std::min(options_.top_k, entries.size());
    for (std::size_t r = 0; r < k; ++r) {
      ScoredCandidate sc;
      sc.fault = faults_[entries[r].index];
      sc.counts = entries[r].counts;
      sc.score = entries[r].score;
      report.suspects.push_back(std::move(sc));
    }
  }
  report.cpu_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report;
}

}  // namespace mdd
