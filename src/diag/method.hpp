// openmdd — the diagnosis methods a request or a command line names.
//
// "multiplet", "slat" and "single" each name one diagnoser; "all" names
// all three, in that order. That order is the order of a response's
// reports, so `openmdd diagnose` and the served diagnose/diagnose_batch
// paths all take it from this one table — their byte-identity rests on it.
#pragma once

#include <span>
#include <string_view>

#include "diag/diagnosis.hpp"

namespace mdd {

struct DiagnosisMethod {
  std::string_view name;
  /// The diagnoser with default options; `cancel` may be null.
  DiagnosisReport (*run)(DiagnosisContext& context, const CancelToken* cancel);
};

/// The diagnosers `method` names, in report order. Throws
/// std::invalid_argument("unknown method '<method>'") for any other name.
std::span<const DiagnosisMethod> methods_named(std::string_view method);

}  // namespace mdd
