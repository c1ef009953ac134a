#include "diag/residual_index.hpp"

#include <algorithm>
#include <bit>

namespace mdd {

template <class Emit>
void ResidualIndex::project(std::uint32_t pattern, const Word* mask,
                            Emit&& emit) const {
  const std::int32_t slot = slot_of_pattern_[pattern];
  if (slot < 0) return;
  const std::size_t base = static_cast<std::size_t>(slot) * n_po_words_;
  for (std::size_t w = 0; w < n_po_words_; ++w) {
    const Word om = observed_masks_[base + w];
    for (Word x = mask[w] & om; x != 0; x &= x - 1) {
      // The bit's rank among the pattern's observed bits in this word.
      const Word below = om & ((Word{1} << std::countr_zero(x)) - 1);
      emit(first_bit_[base + w] +
           static_cast<std::size_t>(std::popcount(below)));
    }
  }
}

ResidualIndex::ResidualIndex(DiagnosisContext& ctx, const CancelToken* cancel)
    : faults_(&ctx.pool().faults),
      n_po_words_(ctx.observed().n_po_words()) {
  const ErrorSignature& observed = ctx.observed();
  slot_of_pattern_.assign(observed.n_patterns(), -1);
  observed_masks_.reserve(observed.n_failing_patterns() * n_po_words_);
  first_bit_.reserve(observed.n_failing_patterns() * n_po_words_);
  for (std::size_t k = 0; k < observed.n_failing_patterns(); ++k) {
    slot_of_pattern_[observed.failing_patterns()[k]] =
        static_cast<std::int32_t>(k);
    for (Word w : observed.mask(k)) {
      observed_masks_.push_back(w);
      first_bit_.push_back(static_cast<std::uint32_t>(n_bits_));
      n_bits_ += static_cast<std::size_t>(std::popcount(w));
    }
  }

  const std::size_t n = ctx.n_candidates();
  solo_bits_.reserve(n);
  row_.reserve(n + 1);
  row_.push_back(0);
  CancelCheckpoint cp(cancel, 16);
  for (std::size_t i = 0; i < n; ++i) {
    if (cp()) break;
    // One pass over the signature: count its error bits and project the
    // observed ones. Bits arrive in increasing order, so a row only ever
    // grows at its last word.
    const ErrorSignature& sig = ctx.solo_signature(i);
    auto append = [&](std::size_t bit) {
      const auto col = static_cast<std::uint32_t>(bit / 64);
      const Word b = Word{1} << (bit % 64);
      if (cols_.size() > row_.back() && cols_.back() == col) {
        words_.back() |= b;
      } else {
        cols_.push_back(col);
        words_.push_back(b);
      }
    };
    std::size_t bits = 0;
    for (std::size_t j = 0; j < sig.n_failing_patterns(); ++j) {
      const Word* mask = sig.mask(j).data();
      for (std::size_t w = 0; w < n_po_words_; ++w)
        bits += static_cast<std::size_t>(std::popcount(mask[w]));
      project(sig.failing_patterns()[j], mask, append);
    }
    solo_bits_.push_back(bits);
    if (cols_.size() > row_.back())
      active_.push_back(static_cast<std::uint32_t>(i));
    row_.push_back(static_cast<std::uint32_t>(cols_.size()));
  }
}

std::vector<Word> ResidualIndex::residual(
    const ErrorSignature& explained) const {
  std::vector<Word> row((n_bits_ + 63) / 64, ~Word{0});
  if (n_bits_ % 64 != 0) row.back() = (Word{1} << (n_bits_ % 64)) - 1;
  auto clear = [&](std::size_t bit) {
    row[bit / 64] &= ~(Word{1} << (bit % 64));
  };
  for (std::size_t j = 0; j < explained.n_failing_patterns(); ++j)
    project(explained.failing_patterns()[j], explained.mask(j).data(), clear);
  return row;
}

std::vector<ResidualIndex::Entry> ResidualIndex::shortlist(
    std::span<const Word> residual, const std::vector<char>& exclude,
    std::size_t limit) const {
  std::vector<Entry> heur;
  for (std::uint32_t i : active_) {
    if (exclude[i]) continue;
    std::size_t tfsf = 0;
    for (std::uint32_t k = row_[i]; k < row_[i + 1]; ++k)
      tfsf += static_cast<std::size_t>(
          std::popcount(words_[k] & residual[cols_[k]]));
    if (tfsf > 0) heur.push_back({i, tfsf});
  }
  // Rank extensions by residual coverage, then by *precision*: among
  // candidates covering the same residual bits prefer the one predicting
  // the fewest bits outside the residual. Big "mimicker" candidates that
  // blanket-cover everything rank below the focused complement that
  // actually corresponds to the remaining defect.
  auto order = [&](const Entry& a, const Entry& b) {
    if (a.tfsf != b.tfsf) return a.tfsf > b.tfsf;
    const std::size_t excess_a = solo_bits_[a.index] - a.tfsf;
    const std::size_t excess_b = solo_bits_[b.index] - b.tfsf;
    if (excess_a != excess_b) return excess_a < excess_b;
    return (*faults_)[a.index] < (*faults_)[b.index];
  };
  const auto mid = heur.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(limit, heur.size()));
  std::partial_sort(heur.begin(), mid, heur.end(), order);
  heur.erase(mid, heur.end());
  return heur;
}

}  // namespace mdd
