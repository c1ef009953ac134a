#include "fsim/fsim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <mutex>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace mdd {

ErrorSignature::ErrorSignature(std::size_t n_patterns, std::size_t n_outputs)
    : n_patterns_(n_patterns),
      n_outputs_(n_outputs),
      n_po_words_((n_outputs + 63) / 64) {}

ErrorSignature ErrorSignature::diff(const PatternSet& good,
                                    const PatternSet& faulty) {
  if (good.n_patterns() != faulty.n_patterns() ||
      good.n_signals() != faulty.n_signals())
    throw std::invalid_argument("ErrorSignature::diff: shape mismatch");
  ErrorSignature sig(good.n_patterns(), good.n_signals());
  std::vector<Word> mask(sig.n_po_words_);
  // Word-wise: one XOR sweep finds the failing patterns of each block,
  // then only those extract per-output masks.
  for (std::size_t b = 0; b < good.n_blocks(); ++b) {
    const Word valid = good.valid_mask(b);
    Word any_diff = kAllZero;
    for (std::size_t o = 0; o < good.n_signals(); ++o)
      any_diff |= (good.word(b, o) ^ faulty.word(b, o)) & valid;
    while (any_diff) {
      const int bit = std::countr_zero(any_diff);
      any_diff &= any_diff - 1;
      std::fill(mask.begin(), mask.end(), kAllZero);
      for (std::size_t o = 0; o < good.n_signals(); ++o) {
        const Word d = good.word(b, o) ^ faulty.word(b, o);
        if ((d >> bit) & 1u) mask[o / 64] |= Word{1} << (o % 64);
      }
      sig.append(static_cast<std::uint32_t>(b * 64 + bit), mask);
    }
  }
  return sig;
}

std::size_t ErrorSignature::n_error_bits() const {
  std::size_t n = 0;
  for (Word w : masks_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

std::span<const Word> ErrorSignature::mask(std::size_t i) const {
  assert(i < patterns_.size());
  return {masks_.data() + i * n_po_words_, n_po_words_};
}

std::span<const Word> ErrorSignature::mask_of_pattern(std::uint32_t p) const {
  auto it = std::lower_bound(patterns_.begin(), patterns_.end(), p);
  if (it == patterns_.end() || *it != p) return {};
  return mask(static_cast<std::size_t>(it - patterns_.begin()));
}

void ErrorSignature::append(std::uint32_t pattern,
                            std::span<const Word> po_mask) {
  assert(po_mask.size() == n_po_words_);
  assert(patterns_.empty() || patterns_.back() < pattern);
  patterns_.push_back(pattern);
  masks_.insert(masks_.end(), po_mask.begin(), po_mask.end());
}

std::vector<std::uint32_t> ErrorSignature::failing_outputs(
    std::size_t i) const {
  std::vector<std::uint32_t> outs;
  const auto m = mask(i);
  for (std::size_t w = 0; w < m.size(); ++w) {
    Word bits = m[w];
    while (bits) {
      const int b = std::countr_zero(bits);
      outs.push_back(static_cast<std::uint32_t>(w * 64 + b));
      bits &= bits - 1;
    }
  }
  return outs;
}

MatchCounts match(const ErrorSignature& observed, const ErrorSignature& sim) {
  assert(observed.n_po_words() == sim.n_po_words());
  MatchCounts mc;
  const auto& op = observed.failing_patterns();
  const auto& sp = sim.failing_patterns();
  std::size_t i = 0, j = 0;
  const std::size_t nw = observed.n_po_words();
  while (i < op.size() || j < sp.size()) {
    if (j >= sp.size() || (i < op.size() && op[i] < sp[j])) {
      for (Word w : observed.mask(i))
        mc.tfsp += static_cast<std::size_t>(std::popcount(w));
      ++i;
    } else if (i >= op.size() || sp[j] < op[i]) {
      for (Word w : sim.mask(j))
        mc.tpsf += static_cast<std::size_t>(std::popcount(w));
      ++j;
    } else {
      const auto om = observed.mask(i);
      const auto sm = sim.mask(j);
      for (std::size_t w = 0; w < nw; ++w) {
        mc.tfsf += static_cast<std::size_t>(std::popcount(om[w] & sm[w]));
        mc.tfsp += static_cast<std::size_t>(std::popcount(om[w] & ~sm[w]));
        mc.tpsf += static_cast<std::size_t>(std::popcount(~om[w] & sm[w]));
      }
      ++i;
      ++j;
    }
  }
  return mc;
}

SignatureMatcher::SignatureMatcher(const ErrorSignature& observed)
    : SignatureMatcher(observed, current_kernel()) {}

SignatureMatcher::SignatureMatcher(const ErrorSignature& observed,
                                   const SimKernel& kernel)
    : kernel_(&kernel),
      n_po_words_(observed.n_po_words()),
      dense_(observed.n_patterns() * observed.n_po_words(), kAllZero) {
  for (std::size_t i = 0; i < observed.n_failing_patterns(); ++i) {
    const std::uint32_t p = observed.failing_patterns()[i];
    const auto m = observed.mask(i);
    for (std::size_t w = 0; w < n_po_words_; ++w) {
      dense_[p * n_po_words_ + w] = m[w];
      observed_bits_ += static_cast<std::size_t>(std::popcount(m[w]));
    }
  }
}

MatchCounts SignatureMatcher::match(const ErrorSignature& sim) const {
  assert(sim.n_po_words() == n_po_words_);
  // tfsp and tpsf follow from the totals: every observed bit is either
  // explained (tfsf) or not (tfsp), every simulated bit either observed
  // (tfsf) or a misprediction (tpsf).
  std::size_t tfsf = 0, sim_bits = 0;
  const auto& sp = sim.failing_patterns();
  for (std::size_t j = 0; j < sp.size(); ++j) {
    const Word* obs = dense_.data() + std::size_t{sp[j]} * n_po_words_;
    const auto m = sim.mask(j);
    tfsf += kernel_->popcount_and(obs, m.data(), n_po_words_);
    sim_bits += kernel_->popcount(m.data(), n_po_words_);
  }
  MatchCounts mc;
  mc.tfsf = tfsf;
  mc.tfsp = observed_bits_ - tfsf;
  mc.tpsf = sim_bits - tfsf;
  return mc;
}

ErrorSignature signature_difference(const ErrorSignature& a,
                                    const ErrorSignature& b) {
  assert(a.n_po_words() == b.n_po_words());
  ErrorSignature out(a.n_patterns(), a.n_outputs());
  std::vector<Word> mask(a.n_po_words());
  for (std::size_t i = 0; i < a.n_failing_patterns(); ++i) {
    const std::uint32_t p = a.failing_patterns()[i];
    const auto am = a.mask(i);
    const auto bm = b.mask_of_pattern(p);
    bool any = false;
    for (std::size_t w = 0; w < mask.size(); ++w) {
      mask[w] = am[w] & ~(bm.empty() ? kAllZero : bm[w]);
      any = any || mask[w] != kAllZero;
    }
    if (any) out.append(p, mask);
  }
  return out;
}

ErrorSignature signature_prefix(const ErrorSignature& sig,
                                std::size_t n_patterns) {
  ErrorSignature out(n_patterns, sig.n_outputs());
  const std::vector<std::uint32_t>& failing = sig.failing_patterns();
  for (std::size_t i = 0; i < failing.size() && failing[i] < n_patterns; ++i)
    out.append(failing[i], sig.mask(i));
  return out;
}

ErrorSignature restrict_signature(const ErrorSignature& sig,
                                  std::size_t n_patterns) {
  ErrorSignature out(sig.n_patterns(), sig.n_outputs());
  for (std::size_t i = 0; i < sig.n_failing_patterns(); ++i) {
    const std::uint32_t p = sig.failing_patterns()[i];
    if (p >= n_patterns) break;
    out.append(p, sig.mask(i));
  }
  return out;
}

namespace {

/// Whole-machine simulation volume, for the obs layer: every signature /
/// detection kernel call lands here. Relaxed atomic adds on cached
/// handles — safe and cheap from any worker thread.
struct FsimMetrics {
  obs::Counter& signatures = obs::registry().counter("fsim.signatures");
  obs::Counter& detect_queries =
      obs::registry().counter("fsim.detect_queries");
  obs::Counter& patterns_simulated =
      obs::registry().counter("fsim.patterns_simulated");
};

FsimMetrics& fsim_metrics() {
  static FsimMetrics m;
  return m;
}

/// Single-frame signature kernel on an explicit machine — shared by the
/// serial member and the fault-parallel batch (one machine per worker).
ErrorSignature signature_on(FaultyMachine& machine, const Netlist& netlist,
                            const PatternSet& patterns,
                            const PatternSet& good,
                            std::span<const Fault> multiplet) {
  fsim_metrics().signatures.inc();
  fsim_metrics().patterns_simulated.inc(patterns.n_patterns());
  machine.set_faults(multiplet);
  ErrorSignature sig(patterns.n_patterns(), netlist.n_outputs());
  std::vector<Word> mask(sig.n_po_words());
  const auto& pos = netlist.outputs();
  for (std::size_t b = 0; b < patterns.n_blocks();) {
    const std::size_t m = machine.run_wide(patterns, b);
    for (std::size_t l = 0; l < m; ++l) {
      const Word valid = patterns.valid_mask(b + l);
      // Which patterns in this block show any PO difference?
      Word any_diff = kAllZero;
      for (std::size_t o = 0; o < pos.size(); ++o)
        any_diff |= (machine.value(pos[o], l) ^ good.word(b + l, o)) & valid;
      while (any_diff) {
        const int bit = std::countr_zero(any_diff);
        any_diff &= any_diff - 1;
        const std::size_t p = (b + l) * 64 + static_cast<std::size_t>(bit);
        std::fill(mask.begin(), mask.end(), kAllZero);
        for (std::size_t o = 0; o < pos.size(); ++o) {
          const Word d = machine.value(pos[o], l) ^ good.word(b + l, o);
          if ((d >> bit) & 1u) mask[o / 64] |= Word{1} << (o % 64);
        }
        sig.append(static_cast<std::uint32_t>(p), mask);
      }
    }
    b += m;
  }
  return sig;
}

bool detects_on(FaultyMachine& machine, const Netlist& netlist,
                const PatternSet& patterns, const PatternSet& good,
                const Fault& fault) {
  fsim_metrics().detect_queries.inc();
  machine.set_faults({&fault, 1});
  const auto& pos = netlist.outputs();
  for (std::size_t b = 0; b < patterns.n_blocks();) {
    const std::size_t m = machine.run_wide(patterns, b);
    for (std::size_t l = 0; l < m; ++l) {
      const Word valid = patterns.valid_mask(b + l);
      for (std::size_t o = 0; o < pos.size(); ++o)
        if ((machine.value(pos[o], l) ^ good.word(b + l, o)) & valid)
          return true;
    }
    b += m;
  }
  return false;
}

/// Two-frame (launch/capture) signature kernel on an explicit machine.
ErrorSignature pair_signature_on(FaultyMachine& machine,
                                 const Netlist& netlist,
                                 const PatternSet& launch,
                                 const PatternSet& capture,
                                 const PatternSet& good,
                                 std::span<const Fault> multiplet) {
  fsim_metrics().signatures.inc();
  fsim_metrics().patterns_simulated.inc(capture.n_patterns());
  machine.set_faults(multiplet);
  ErrorSignature sig(capture.n_patterns(), netlist.n_outputs());
  std::vector<Word> mask(sig.n_po_words());
  const auto& pos = netlist.outputs();
  for (std::size_t b = 0; b < capture.n_blocks();) {
    const std::size_t m = machine.run_pair_wide(launch, capture, b);
    for (std::size_t l = 0; l < m; ++l) {
      const Word valid = capture.valid_mask(b + l);
      Word any_diff = kAllZero;
      for (std::size_t o = 0; o < pos.size(); ++o)
        any_diff |= (machine.value(pos[o], l) ^ good.word(b + l, o)) & valid;
      while (any_diff) {
        const int bit = std::countr_zero(any_diff);
        any_diff &= any_diff - 1;
        const std::size_t p = (b + l) * 64 + static_cast<std::size_t>(bit);
        std::fill(mask.begin(), mask.end(), kAllZero);
        for (std::size_t o = 0; o < pos.size(); ++o) {
          const Word d = machine.value(pos[o], l) ^ good.word(b + l, o);
          if ((d >> bit) & 1u) mask[o / 64] |= Word{1} << (o % 64);
        }
        sig.append(static_cast<std::uint32_t>(p), mask);
      }
    }
    b += m;
  }
  return sig;
}

bool pair_detects_on(FaultyMachine& machine, const Netlist& netlist,
                     const PatternSet& launch, const PatternSet& capture,
                     const PatternSet& good, const Fault& fault) {
  fsim_metrics().detect_queries.inc();
  machine.set_faults({&fault, 1});
  const auto& pos = netlist.outputs();
  for (std::size_t b = 0; b < capture.n_blocks();) {
    const std::size_t m = machine.run_pair_wide(launch, capture, b);
    for (std::size_t l = 0; l < m; ++l) {
      const Word valid = capture.valid_mask(b + l);
      for (std::size_t o = 0; o < pos.size(); ++o)
        if ((machine.value(pos[o], l) ^ good.word(b + l, o)) & valid)
          return true;
    }
    b += m;
  }
  return false;
}

}  // namespace

FaultSimulator::FaultSimulator(const Netlist& netlist,
                               const PatternSet& patterns)
    : FaultSimulator(netlist, patterns, current_kernel()) {}

FaultSimulator::FaultSimulator(const Netlist& netlist,
                               const PatternSet& patterns,
                               const SimKernel& kernel)
    : netlist_(&netlist),
      patterns_(&patterns),
      good_(simulate(netlist, patterns, kernel)),
      machine_(netlist, kernel) {}

FaultSimulator::FaultSimulator(const Netlist& netlist,
                               const PatternSet& patterns, PatternSet good)
    : FaultSimulator(netlist, patterns, std::move(good), current_kernel()) {}

FaultSimulator::FaultSimulator(const Netlist& netlist,
                               const PatternSet& patterns, PatternSet good,
                               const SimKernel& kernel)
    : netlist_(&netlist),
      patterns_(&patterns),
      good_(std::move(good)),
      machine_(netlist, kernel) {
  if (good_.n_patterns() != patterns.n_patterns() ||
      good_.n_signals() != netlist.n_outputs())
    throw std::invalid_argument(
        "FaultSimulator: precomputed good response shape mismatch");
}

ErrorSignature FaultSimulator::signature(const Fault& fault) {
  return signature(std::span<const Fault>(&fault, 1));
}

ErrorSignature FaultSimulator::signature(std::span<const Fault> multiplet) {
  return signature_on(machine_, *netlist_, *patterns_, good_, multiplet);
}

bool FaultSimulator::detects(const Fault& fault) {
  return detects_on(machine_, *netlist_, *patterns_, good_, fault);
}

std::optional<std::uint32_t> FaultSimulator::first_detecting_pattern(
    const Fault& fault) {
  machine_.set_faults({&fault, 1});
  const auto& pos = netlist_->outputs();
  for (std::size_t b = 0; b < patterns_->n_blocks();) {
    const std::size_t m = machine_.run_wide(*patterns_, b);
    for (std::size_t l = 0; l < m; ++l) {
      const Word valid = patterns_->valid_mask(b + l);
      Word any = kAllZero;
      for (std::size_t o = 0; o < pos.size(); ++o)
        any |= (machine_.value(pos[o], l) ^ good_.word(b + l, o)) & valid;
      if (any)
        return static_cast<std::uint32_t>((b + l) * 64 +
                                          std::countr_zero(any));
    }
    b += m;
  }
  return std::nullopt;
}

std::vector<bool> FaultSimulator::detected(std::span<const Fault> faults) {
  std::vector<bool> out(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) out[i] = detects(faults[i]);
  return out;
}

double FaultSimulator::coverage(std::span<const Fault> faults) {
  if (faults.empty()) return 1.0;
  const auto det = detected(faults);
  std::size_t n = 0;
  for (bool d : det) n += d;
  return static_cast<double>(n) / static_cast<double>(faults.size());
}

std::vector<ErrorSignature> FaultSimulator::signatures(
    std::span<const Fault> faults, const ExecPolicy& policy) const {
  std::vector<ErrorSignature> out(faults.size());
  parallel_for_ranges(policy, faults.size(),
                      [&](std::size_t begin, std::size_t end, std::size_t) {
                        FaultyMachine machine(*netlist_, machine_.kernel());
                        for (std::size_t i = begin; i < end; ++i)
                          out[i] = signature_on(machine, *netlist_,
                                                *patterns_, good_,
                                                {&faults[i], 1});
                      });
  return out;
}

std::vector<bool> FaultSimulator::detected(std::span<const Fault> faults,
                                           const ExecPolicy& policy) const {
  std::vector<bool> out(faults.size());
  // std::vector<bool> packs bits — adjacent slots share a word, so each
  // worker writes a private buffer and the caller stitches ranges back in
  // index order.
  std::vector<std::vector<bool>> parts;
  std::vector<std::size_t> offsets;
  std::mutex mu;
  parallel_for_ranges(
      policy, faults.size(),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        FaultyMachine machine(*netlist_, machine_.kernel());
        std::vector<bool> part(end - begin);
        for (std::size_t i = begin; i < end; ++i)
          part[i - begin] =
              detects_on(machine, *netlist_, *patterns_, good_, faults[i]);
        std::lock_guard<std::mutex> lock(mu);
        parts.push_back(std::move(part));
        offsets.push_back(begin);
      });
  for (std::size_t k = 0; k < parts.size(); ++k)
    for (std::size_t i = 0; i < parts[k].size(); ++i)
      out[offsets[k] + i] = parts[k][i];
  return out;
}

double FaultSimulator::coverage(std::span<const Fault> faults,
                                const ExecPolicy& policy) const {
  if (faults.empty()) return 1.0;
  const auto det = detected(faults, policy);
  std::size_t n = 0;
  for (bool d : det) n += d;
  return static_cast<double>(n) / static_cast<double>(faults.size());
}

PairFaultSimulator::PairFaultSimulator(const Netlist& netlist,
                                       const PatternSet& launch,
                                       const PatternSet& capture)
    : PairFaultSimulator(netlist, launch, capture, current_kernel()) {}

PairFaultSimulator::PairFaultSimulator(const Netlist& netlist,
                                       const PatternSet& launch,
                                       const PatternSet& capture,
                                       const SimKernel& kernel)
    : netlist_(&netlist),
      launch_(&launch),
      capture_(&capture),
      machine_(netlist, kernel) {
  if (launch.n_patterns() != capture.n_patterns())
    throw std::invalid_argument("PairFaultSimulator: pair count mismatch");
  machine_.set_faults({});
  good_ = machine_.simulate_pair(launch, capture);
}

ErrorSignature PairFaultSimulator::signature(const Fault& fault) {
  return signature(std::span<const Fault>(&fault, 1));
}

ErrorSignature PairFaultSimulator::signature(std::span<const Fault> multiplet) {
  return pair_signature_on(machine_, *netlist_, *launch_, *capture_, good_,
                           multiplet);
}

bool PairFaultSimulator::detects(const Fault& fault) {
  return pair_detects_on(machine_, *netlist_, *launch_, *capture_, good_,
                         fault);
}

std::optional<std::uint32_t> PairFaultSimulator::first_detecting_pair(
    const Fault& fault) {
  machine_.set_faults({&fault, 1});
  const auto& pos = netlist_->outputs();
  for (std::size_t b = 0; b < capture_->n_blocks();) {
    const std::size_t m = machine_.run_pair_wide(*launch_, *capture_, b);
    for (std::size_t l = 0; l < m; ++l) {
      const Word valid = capture_->valid_mask(b + l);
      Word any = kAllZero;
      for (std::size_t o = 0; o < pos.size(); ++o)
        any |= (machine_.value(pos[o], l) ^ good_.word(b + l, o)) & valid;
      if (any)
        return static_cast<std::uint32_t>((b + l) * 64 +
                                          std::countr_zero(any));
    }
    b += m;
  }
  return std::nullopt;
}

double PairFaultSimulator::coverage(std::span<const Fault> faults) {
  if (faults.empty()) return 1.0;
  std::size_t n = 0;
  for (const Fault& f : faults) n += detects(f);
  return static_cast<double>(n) / static_cast<double>(faults.size());
}

std::vector<ErrorSignature> PairFaultSimulator::signatures(
    std::span<const Fault> faults, const ExecPolicy& policy) const {
  std::vector<ErrorSignature> out(faults.size());
  parallel_for_ranges(policy, faults.size(),
                      [&](std::size_t begin, std::size_t end, std::size_t) {
                        FaultyMachine machine(*netlist_, machine_.kernel());
                        for (std::size_t i = begin; i < end; ++i)
                          out[i] = pair_signature_on(machine, *netlist_,
                                                     *launch_, *capture_,
                                                     good_, {&faults[i], 1});
                      });
  return out;
}

std::vector<bool> PairFaultSimulator::detected(
    std::span<const Fault> faults, const ExecPolicy& policy) const {
  std::vector<bool> out(faults.size());
  std::vector<std::vector<bool>> parts;
  std::vector<std::size_t> offsets;
  std::mutex mu;
  parallel_for_ranges(
      policy, faults.size(),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        FaultyMachine machine(*netlist_, machine_.kernel());
        std::vector<bool> part(end - begin);
        for (std::size_t i = begin; i < end; ++i)
          part[i - begin] = pair_detects_on(machine, *netlist_, *launch_,
                                            *capture_, good_, faults[i]);
        std::lock_guard<std::mutex> lock(mu);
        parts.push_back(std::move(part));
        offsets.push_back(begin);
      });
  for (std::size_t k = 0; k < parts.size(); ++k)
    for (std::size_t i = 0; i < parts[k].size(); ++i)
      out[offsets[k] + i] = parts[k][i];
  return out;
}

double PairFaultSimulator::coverage(std::span<const Fault> faults,
                                    const ExecPolicy& policy) const {
  if (faults.empty()) return 1.0;
  const auto det = detected(faults, policy);
  std::size_t n = 0;
  for (bool d : det) n += d;
  return static_cast<double>(n) / static_cast<double>(faults.size());
}

}  // namespace mdd
