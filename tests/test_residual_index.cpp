// ResidualIndex oracle test: the bit-projected shortlist must return exactly
// what ranking every candidate by match(residual, solo).tfsf under the same
// order returns, where residual = signature_difference(observed, explained)
// is built the slow way. Circuits straddle PO word boundaries (63, 64, 65
// and 155 outputs); datalogs are full, ATE-truncated and X-masked; the
// residuals include the whole observed signature, the remainder after a
// solo signature and after a composite, and the empty residual; exclusion
// sets and limits up to past the pool size are swept.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "diag/residual_index.hpp"
#include "netlist/generator.hpp"

namespace mdd {
namespace {

using Ranked = std::vector<std::pair<std::size_t, std::size_t>>;

Ranked ranked(const std::vector<ResidualIndex::Entry>& entries) {
  Ranked out;
  for (const auto& e : entries) out.emplace_back(e.index, e.tfsf);
  return out;
}

/// The oracle: pairwise match() against the materialized residual for
/// every candidate, full sort, then truncate.
Ranked oracle_shortlist(DiagnosisContext& ctx, const ErrorSignature& explained,
                        const std::vector<char>& exclude, std::size_t limit) {
  const ErrorSignature residual =
      signature_difference(ctx.observed(), explained);
  struct Row {
    std::size_t index, tfsf, excess;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < ctx.n_candidates(); ++i) {
    if (exclude[i]) continue;
    const ErrorSignature& solo = ctx.solo_signature(i);
    const std::size_t tfsf = match(residual, solo).tfsf;
    if (tfsf > 0) rows.push_back({i, tfsf, solo.n_error_bits() - tfsf});
  }
  std::sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    if (a.tfsf != b.tfsf) return a.tfsf > b.tfsf;
    if (a.excess != b.excess) return a.excess < b.excess;
    return ctx.candidate(a.index) < ctx.candidate(b.index);
  });
  Ranked out;
  for (std::size_t k = 0; k < std::min(limit, rows.size()); ++k)
    out.emplace_back(rows[k].index, rows[k].tfsf);
  return out;
}

std::size_t popcount_row(const std::vector<Word>& row) {
  std::size_t n = 0;
  for (Word w : row) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

enum class Window { Full, Truncated, XMasked };

TEST(ResidualIndexOracle, ShortlistMatchesPairwiseRanking) {
  bool saw_ragged_rows = false;
  std::size_t cases = 0;
  for (const unsigned n_outputs : {63u, 64u, 65u, 155u}) {
    RandomCircuitConfig cc;
    cc.n_inputs = 40;
    cc.n_gates = 500;
    cc.n_outputs = n_outputs;
    cc.seed = n_outputs;
    const Netlist nl = make_random_circuit(cc);
    ASSERT_EQ(nl.n_outputs(), n_outputs);
    const PatternSet patterns = PatternSet::random(150, nl.n_inputs(), 3);
    const PatternSet good = simulate(nl, patterns);

    for (const Window window :
         {Window::Full, Window::Truncated, Window::XMasked}) {
      std::mt19937_64 rng(n_outputs * 8 + static_cast<unsigned>(window));
      DatalogOptions dopt;
      if (window == Window::Truncated) dopt.max_failing_patterns = 9;
      if (window == Window::XMasked) dopt.x_mask_fraction = 0.05;
      // A three-fault defect on random nets that the tests detect.
      Datalog log;
      for (int attempt = 0; attempt < 50 && log.observed.empty(); ++attempt) {
        std::vector<Fault> defect;
        for (int m = 0; m < 3; ++m)
          defect.push_back(Fault::stem_sa(
              static_cast<NetId>(nl.n_inputs() + rng() % nl.n_gates()),
              rng() % 2 == 1));
        log = datalog_from_defect(nl, defect, patterns, good, dopt);
      }
      ASSERT_FALSE(log.observed.empty());
      DiagnosisContext ctx(nl, patterns, log);
      const std::size_t n = ctx.n_candidates();
      ASSERT_GT(n, 0u);
      const ResidualIndex index(ctx);
      ASSERT_EQ(index.n_indexed(), n);
      ASSERT_EQ(index.n_bits(), ctx.observed().n_error_bits());
      saw_ragged_rows |= index.n_bits() > 64 && index.n_bits() % 64 != 0;

      // Memory: in total, the CSR words never exceed the postings they
      // replace (one per failing pattern of every solo signature).
      std::size_t postings = 0;
      for (std::size_t i = 0; i < n; ++i) {
        postings += ctx.solo_signature(i).n_failing_patterns();
        EXPECT_EQ(index.solo_bits(i), ctx.solo_signature(i).n_error_bits());
      }
      EXPECT_LE(index.n_words(), postings);

      const std::vector<char> none(n, 0);
      const ErrorSignature empty(ctx.observed().n_patterns(),
                                 ctx.observed().n_outputs());
      const auto top = index.shortlist(index.residual(empty), none, 2);
      ASSERT_EQ(top.size(), 2u);
      std::vector<ErrorSignature> explained{
          empty, ctx.solo_signature(top[0].index),
          ctx.multiplet_signature(std::vector<Fault>{
              ctx.candidate(top[0].index), ctx.candidate(top[1].index)}),
          ctx.observed()};

      std::vector<char> some(n, 0);
      for (std::size_t i = 0; i < n; ++i) some[i] = rng() % 4 == 0;
      std::vector<char> members(n, 0);
      members[top[0].index] = members[top[1].index] = 1;

      for (std::size_t e = 0; e < explained.size(); ++e) {
        const std::vector<Word> row = index.residual(explained[e]);
        ASSERT_EQ(row.size(), (index.n_bits() + 63) / 64);
        EXPECT_EQ(popcount_row(row),
                  signature_difference(ctx.observed(), explained[e])
                      .n_error_bits());
        for (const std::vector<char>* exclude :
             std::initializer_list<const std::vector<char>*>{&none, &some,
                                                             &members}) {
          for (const std::size_t limit : {std::size_t{1}, std::size_t{8},
                                          n + 5}) {
            const std::string what =
                "outputs=" + std::to_string(n_outputs) +
                " window=" + std::to_string(static_cast<int>(window)) +
                " explained=" + std::to_string(e) +
                " limit=" + std::to_string(limit);
            EXPECT_EQ(ranked(index.shortlist(row, *exclude, limit)),
                      oracle_shortlist(ctx, explained[e], *exclude, limit))
                << what;
          }
        }
      }
      // Everything observed is explained: nothing is left to cover.
      EXPECT_TRUE(
          index.shortlist(index.residual(ctx.observed()), none, n + 5)
              .empty());
      ++cases;
    }
  }
  EXPECT_EQ(cases, 12u);
  EXPECT_TRUE(saw_ragged_rows) << "no residual row straddled a word";
}

// A cancelled build indexes nothing, and its shortlists are empty.
TEST(ResidualIndexOracle, CancelledBuildIndexesNothing) {
  RandomCircuitConfig cc;
  cc.n_outputs = 20;
  const Netlist nl = make_random_circuit(cc);
  const PatternSet patterns = PatternSet::random(64, nl.n_inputs(), 5);
  const PatternSet good = simulate(nl, patterns);
  const Fault defect = Fault::stem_sa(
      static_cast<NetId>(nl.n_inputs() + nl.n_gates() / 2), true);
  const Datalog log = datalog_from_defect(nl, {&defect, 1}, patterns, good);
  DiagnosisContext ctx(nl, patterns, log);
  CancelToken token;
  token.request_cancel();
  const ResidualIndex index(ctx, &token);
  EXPECT_EQ(index.n_indexed(), 0u);
  EXPECT_EQ(index.n_words(), 0u);
  const ErrorSignature empty(ctx.observed().n_patterns(),
                             ctx.observed().n_outputs());
  EXPECT_TRUE(index
                  .shortlist(index.residual(empty),
                             std::vector<char>(ctx.n_candidates(), 0), 10)
                  .empty());
}

}  // namespace
}  // namespace mdd
