#include "diag/method.hpp"

#include <stdexcept>
#include <string>

#include "diag/multiplet.hpp"
#include "diag/single_fault.hpp"
#include "diag/slat.hpp"

namespace mdd {

namespace {

constexpr DiagnosisMethod kMethods[] = {
    {"multiplet",
     [](DiagnosisContext& context, const CancelToken* cancel) {
       return diagnose_multiplet(context, {.cancel = cancel});
     }},
    {"slat",
     [](DiagnosisContext& context, const CancelToken* cancel) {
       return diagnose_slat(context, {.cancel = cancel});
     }},
    {"single", [](DiagnosisContext& context, const CancelToken* cancel) {
       return diagnose_single_fault(context, {.cancel = cancel});
     }}};

}  // namespace

std::span<const DiagnosisMethod> methods_named(std::string_view method) {
  const std::span<const DiagnosisMethod> all(kMethods);
  if (method == "all") return all;
  for (std::size_t i = 0; i < all.size(); ++i)
    if (all[i].name == method) return all.subspan(i, 1);
  throw std::invalid_argument("unknown method '" + std::string(method) + "'");
}

}  // namespace mdd
