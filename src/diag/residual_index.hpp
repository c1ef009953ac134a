// openmdd — residual index for the multiplet shortlist.
//
// Every residual the greedy multiplet search shortlists against — the
// observed signature, observed \ composite, observed \ base — is a subset
// of the observed error bits. The index therefore numbers the B observed
// bits once (observed failing-pattern order, then PO order) and projects
// each candidate's solo signature onto them. A residual is one B-bit row,
// and a candidate's residual TFSF is one popcount sweep over its
// projection — no per-round signature difference, no posting lists.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/cancel.hpp"
#include "diag/diagnosis.hpp"

namespace mdd {

class ResidualIndex {
 public:
  /// A shortlisted candidate and the residual bits its solo signature
  /// covers.
  struct Entry {
    std::size_t index;
    std::size_t tfsf;
  };

  /// Projects the solo signatures of `ctx`'s candidates in index order,
  /// counting each one's total error bits in the same pass. A tripped
  /// `cancel` stops the build: the remaining candidates stay unindexed
  /// and are never shortlisted.
  explicit ResidualIndex(DiagnosisContext& ctx,
                         const CancelToken* cancel = nullptr);

  /// Candidates projected before the build finished or was cancelled.
  std::size_t n_indexed() const { return solo_bits_.size(); }
  /// Observed error bits (the row width B).
  std::size_t n_bits() const { return n_bits_; }
  /// Total error bits of candidate `i`'s solo signature.
  std::size_t solo_bits(std::size_t i) const { return solo_bits_[i]; }
  /// Stored nonzero projection words over all candidates.
  std::size_t n_words() const { return words_.size(); }

  /// The observed bits `explained` does not cover, as a B-bit row
  /// (`explained` must have the observed signature's shape).
  std::vector<Word> residual(const ErrorSignature& explained) const;

  /// Indexed candidates outside `exclude` whose solo signature covers any
  /// `residual` bit, best `limit` first: most residual bits covered, then
  /// fewest error bits outside the residual, then fault identity. The
  /// order is total, so the result does not depend on how it is sorted.
  std::vector<Entry> shortlist(std::span<const Word> residual,
                               const std::vector<char>& exclude,
                               std::size_t limit) const;

 private:
  /// Calls `emit(bit)`, in increasing order, for every observed bit
  /// number that `mask` (a PO mask of `pattern`) covers.
  template <class Emit>
  void project(std::uint32_t pattern, const Word* mask, Emit&& emit) const;

  const std::vector<Fault>* faults_;
  std::size_t n_po_words_;
  std::size_t n_bits_ = 0;
  /// Observed failing-pattern slot of each pattern, or -1.
  std::vector<std::int32_t> slot_of_pattern_;
  /// Observed PO masks by slot, and the bit number of each mask word's
  /// first observed bit.
  std::vector<Word> observed_masks_;
  std::vector<std::uint32_t> first_bit_;
  std::vector<std::size_t> solo_bits_;
  /// CSR projection rows: candidate i owns words [row_[i], row_[i+1]),
  /// each nonzero word stored with its row-word column.
  std::vector<std::uint32_t> row_;
  std::vector<std::uint32_t> cols_;
  std::vector<Word> words_;
  /// Candidates with a nonempty projection, ascending.
  std::vector<std::uint32_t> active_;
};

}  // namespace mdd
