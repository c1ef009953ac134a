// CompositeMemo key tests: member-order-independent keys. That a
// truncated context reads its composites correctly out of full-set
// entries is pinned in test_memo_cut.cpp. Eviction is covered for all
// three session memos by test_memo_eviction.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "diag/composite_memo.hpp"

namespace mdd {
namespace {

/// A signature failing patterns 0..n_failing-1 on one output.
std::shared_ptr<const ErrorSignature> make_signature(std::size_t n_failing) {
  auto sig = std::make_shared<ErrorSignature>(64, 4);
  const std::vector<Word> mask(sig->n_po_words(), Word{1});
  for (std::size_t p = 0; p < n_failing; ++p)
    sig->append(static_cast<std::uint32_t>(p), mask);
  return sig;
}

TEST(CompositeMemo, KeyIsOrderIndependent) {
  const Fault a = Fault::stem_sa(3, true);
  const Fault b = Fault::stem_sa(9, false);
  const Fault ab[2] = {a, b};
  const Fault ba[2] = {b, a};
  EXPECT_EQ(CompositeKey(ab), CompositeKey(ba));
  EXPECT_EQ(CompositeKeyHash{}(CompositeKey(ab)),
            CompositeKeyHash{}(CompositeKey(ba)));

  CompositeMemo memo(1 << 20);
  const auto sig = make_signature(4);
  memo.store(CompositeKey(ab), sig);
  EXPECT_EQ(memo.lookup(CompositeKey(ba)).get(), sig.get());
}

}  // namespace
}  // namespace mdd
