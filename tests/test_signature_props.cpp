// Property tests: ErrorSignature invariants on seeded randomized inputs.
//
// Each property runs over several fixed seeds; the seed is attached to
// every assertion via SCOPED_TRACE so a failure names the reproducing
// input exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <vector>

#include "fsim/fsim.hpp"

namespace mdd {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 42, 0xBEEF, 0x5EED5EED, 987654321};

/// Random signature shape plus sorted/unique failing patterns and random
/// (possibly sparse) PO masks, built through the public append API.
struct RandomSignature {
  ErrorSignature sig;
  std::vector<std::uint32_t> patterns;
  std::vector<std::vector<Word>> masks;
};

RandomSignature make_random_signature(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::size_t n_patterns = 1 + rng() % 300;
  const std::size_t n_outputs = 1 + rng() % 150;

  RandomSignature r{ErrorSignature(n_patterns, n_outputs), {}, {}};
  // Sorted unique pattern subset.
  for (std::uint32_t p = 0; p < n_patterns; ++p)
    if (rng() % 3 == 0) r.patterns.push_back(p);

  const std::size_t n_words = r.sig.n_po_words();
  for (std::uint32_t p : r.patterns) {
    std::vector<Word> mask(n_words, kAllZero);
    // 1..4 failing outputs per pattern.
    const std::size_t n_fail = 1 + rng() % 4;
    for (std::size_t k = 0; k < n_fail; ++k) {
      const std::size_t o = rng() % n_outputs;
      mask[o / 64] |= Word{1} << (o % 64);
    }
    r.sig.append(p, mask);
    r.masks.push_back(std::move(mask));
  }
  return r;
}

TEST(SignatureProps, DiffOfIdenticalResponsesIsEmpty) {
  for (std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const std::size_t n_patterns = 1 + rng() % 200;
    const std::size_t n_signals = 1 + rng() % 100;
    const PatternSet good = PatternSet::random(n_patterns, n_signals, seed);
    const ErrorSignature d = ErrorSignature::diff(good, good);
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.n_failing_patterns(), 0u);
    EXPECT_EQ(d.n_error_bits(), 0u);
  }
}

TEST(SignatureProps, AppendPreservesSortedUniqueOrder) {
  for (std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const RandomSignature r = make_random_signature(seed);
    const auto& fp = r.sig.failing_patterns();
    ASSERT_EQ(fp, r.patterns);
    EXPECT_TRUE(std::is_sorted(fp.begin(), fp.end()));
    EXPECT_EQ(std::adjacent_find(fp.begin(), fp.end()), fp.end());
    EXPECT_EQ(r.sig.n_failing_patterns(), r.patterns.size());
  }
}

TEST(SignatureProps, MaskOfPatternAgreesWithMaskAndFailingPatterns) {
  for (std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const RandomSignature r = make_random_signature(seed);
    // Every failing pattern: mask_of_pattern == mask(i) == what was
    // appended.
    for (std::size_t i = 0; i < r.patterns.size(); ++i) {
      const auto by_index = r.sig.mask(i);
      const auto by_pattern = r.sig.mask_of_pattern(r.patterns[i]);
      ASSERT_EQ(by_index.size(), by_pattern.size());
      ASSERT_EQ(by_index.size(), r.masks[i].size());
      for (std::size_t w = 0; w < by_index.size(); ++w) {
        EXPECT_EQ(by_index[w], r.masks[i][w]) << "i=" << i << " w=" << w;
        EXPECT_EQ(by_pattern[w], r.masks[i][w]) << "i=" << i << " w=" << w;
      }
    }
    // Every non-failing pattern: empty span.
    std::vector<bool> failing(r.sig.n_patterns(), false);
    for (std::uint32_t p : r.patterns) failing[p] = true;
    for (std::uint32_t p = 0; p < r.sig.n_patterns(); ++p) {
      if (!failing[p]) {
        EXPECT_TRUE(r.sig.mask_of_pattern(p).empty()) << "p=" << p;
      }
    }
  }
}

TEST(SignatureProps, ErrorBitCountEqualsMaskPopcount) {
  for (std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const RandomSignature r = make_random_signature(seed);
    std::size_t expect = 0;
    for (const auto& mask : r.masks)
      for (Word w : mask) expect += static_cast<std::size_t>(std::popcount(w));
    EXPECT_EQ(r.sig.n_error_bits(), expect);
    // failing_outputs is the per-pattern expansion of the same bits.
    std::size_t from_outputs = 0;
    for (std::size_t i = 0; i < r.sig.n_failing_patterns(); ++i)
      from_outputs += r.sig.failing_outputs(i).size();
    EXPECT_EQ(from_outputs, expect);
  }
}

TEST(SignatureProps, DiffMatchesBitwiseRecomputation) {
  for (std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(seed ^ 0xD1FF);
    const std::size_t n_patterns = 1 + rng() % 150;
    const std::size_t n_signals = 1 + rng() % 90;
    const PatternSet good = PatternSet::random(n_patterns, n_signals, seed);
    PatternSet faulty = good;
    // Flip a handful of random bits.
    const std::size_t n_flips = 1 + rng() % 20;
    for (std::size_t k = 0; k < n_flips; ++k) {
      const std::size_t p = rng() % n_patterns;
      const std::size_t s = rng() % n_signals;
      faulty.set(p, s, !faulty.get(p, s));
    }
    const ErrorSignature d = ErrorSignature::diff(good, faulty);
    // Every disagreement bit and no other appears in the signature.
    std::size_t n_diff_bits = 0;
    for (std::size_t p = 0; p < n_patterns; ++p) {
      for (std::size_t s = 0; s < n_signals; ++s) {
        const bool differs = good.get(p, s) != faulty.get(p, s);
        n_diff_bits += differs;
        const auto mask = d.mask_of_pattern(static_cast<std::uint32_t>(p));
        const bool in_sig =
            !mask.empty() && ((mask[s / 64] >> (s % 64)) & 1u);
        EXPECT_EQ(in_sig, differs) << "p=" << p << " s=" << s;
      }
    }
    EXPECT_EQ(d.n_error_bits(), n_diff_bits);
  }
}

}  // namespace
}  // namespace mdd
