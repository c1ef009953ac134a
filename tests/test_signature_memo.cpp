// SignatureMemo key tests: (fault, window) keys and the restriction of a
// full-window entry to a shorter window. Eviction is covered for all
// three session memos by test_memo_eviction.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "server/signature_memo.hpp"

namespace mdd::server {
namespace {

/// Window length shared by the fixed-shape signatures below — entries are
/// keyed by (fault, window) now, so the tests name it explicitly.
constexpr std::size_t kWindow = 64;

/// A signature failing patterns 0..n_failing-1 on one output.
std::shared_ptr<const ErrorSignature> make_signature(std::size_t n_failing) {
  auto sig = std::make_shared<ErrorSignature>(kWindow, 4);
  const std::vector<Word> mask(sig->n_po_words(), Word{1});
  for (std::size_t p = 0; p < n_failing; ++p)
    sig->append(static_cast<std::uint32_t>(p), mask);
  return sig;
}

Fault nth_fault(std::size_t n) {
  return Fault::stem_sa(static_cast<std::uint32_t>(n), (n & 1) != 0);
}

TEST(SignatureMemo, WindowsKeySeparateEntries) {
  SignatureMemo memo(1 << 20);
  const Fault f = nth_fault(0);
  const auto full = make_signature(8);
  memo.store(f, kWindow, full);

  // A different (shorter) window is a different key — the full-window
  // entry must never be returned AS-IS for it...
  auto short_sig = std::make_shared<ErrorSignature>(kWindow / 2, 4);
  memo.store(f, kWindow / 2, short_sig);
  EXPECT_EQ(memo.lookup(f, kWindow / 2).get(), short_sig.get());
  EXPECT_EQ(memo.lookup(f, kWindow).get(), full.get());
  EXPECT_EQ(memo.stats().entries, 2u);
}

TEST(SignatureMemo, TruncatedLookupRestrictsFullWindowEntry) {
  // Memo built knowing the session's full window: a miss on (f, short)
  // falls back to restricting the (f, full) entry, byte-identical to a
  // fresh simulation over the short window (shape included).
  SignatureMemo memo(1 << 20, kWindow);
  const Fault f = nth_fault(3);
  memo.store(f, kWindow, make_signature(8));  // failing patterns 0..7
  obs::Counter& restricts =
      obs::registry().counter("memo.signature.window_restricts");
  const std::uint64_t restricts_before = restricts.value();

  const std::size_t short_window = 5;
  auto restricted = memo.lookup(f, short_window);
  ASSERT_NE(restricted, nullptr);
  EXPECT_EQ(restricted->n_patterns(), short_window);
  EXPECT_EQ(restricted->n_failing_patterns(), 5u);  // patterns 0..4 kept
  EXPECT_EQ(restricts.value() - restricts_before, 1u);

  // The restricted result is admitted under its exact key: the next
  // lookup is a pointer copy, no second restriction.
  EXPECT_EQ(memo.lookup(f, short_window).get(), restricted.get());
  EXPECT_EQ(restricts.value() - restricts_before, 1u);

  // Unknown faults still miss.
  EXPECT_EQ(memo.lookup(nth_fault(99), short_window), nullptr);
}

TEST(SignatureMemo, UnknownFullWindowServesExactKeysOnly) {
  SignatureMemo memo(1 << 20);  // full window unknown (0)
  const Fault f = nth_fault(1);
  memo.store(f, kWindow, make_signature(8));
  EXPECT_EQ(memo.lookup(f, kWindow / 2), nullptr)
      << "without a known full window the memo must not guess which "
         "entry is restrictable";
}

}  // namespace
}  // namespace mdd::server
