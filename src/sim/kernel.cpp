#include "sim/kernel.hpp"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>

namespace mdd {

namespace detail {
// Defined in kernel_avx2.cpp / kernel_avx512.cpp; nullptr when the build
// excluded the variant (-DMDD_DISABLE_SIMD=ON or an unsupporting
// compiler). CPUID gating happens here, not in the variant TUs.
const SimKernel* avx2_kernel_table();
const SimKernel* avx512_kernel_table();
}  // namespace detail

namespace {

#include "sim/kernel_ops.inl"

constexpr SimKernel kScalarKernel = {
    "scalar", 1, &eval_gate_lanes<1>, &popcount_words, &popcount_and_words};

bool cpu_has_avx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  // Must cover every ISA extension the avx512 TU is compiled with.
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512vpopcntdq");
#else
  return false;
#endif
}

/// A build with hardware popcount (-mpopcnt, src/CMakeLists.txt) may
/// execute POPCNT in any translation unit, so one that finds no POPCNT
/// exits here, at the first kernel query, instead of on an illegal
/// instruction mid-request.
void require_build_isa() {
#if defined(__POPCNT__) && defined(__GNUC__) && \
    (defined(__x86_64__) || defined(__i386__))
  if (!__builtin_cpu_supports("popcnt")) {
    std::fputs(
        "openmdd: this build uses the POPCNT instruction, which this CPU "
        "lacks; rebuild with -DMDD_DISABLE_SIMD=ON\n",
        stderr);
    std::exit(EXIT_FAILURE);
  }
#endif
}

std::vector<const SimKernel*> probe_kernels() {
  require_build_isa();
  std::vector<const SimKernel*> out{&kScalarKernel};
  if (const SimKernel* k = detail::avx2_kernel_table(); k && cpu_has_avx2())
    out.push_back(k);
  if (const SimKernel* k = detail::avx512_kernel_table();
      k && cpu_has_avx512())
    out.push_back(k);
  return out;
}

std::atomic<const SimKernel*> g_current{nullptr};

const SimKernel* resolve_default() {
  if (const char* env = std::getenv("MDD_KERNEL"); env && *env) {
    if (const SimKernel* k = find_kernel(env)) return k;
    std::fprintf(stderr,
                 "openmdd: MDD_KERNEL=%s is not an available kernel "
                 "(available: %s); falling back to %s\n",
                 env, kernel_names().c_str(), best_kernel().name);
  }
  return &best_kernel();
}

}  // namespace

const SimKernel& scalar_kernel() { return kScalarKernel; }

const std::vector<const SimKernel*>& available_kernels() {
  static const std::vector<const SimKernel*> kernels = probe_kernels();
  return kernels;
}

const SimKernel* find_kernel(std::string_view name) {
  for (const SimKernel* k : available_kernels())
    if (name == k->name) return k;
  return nullptr;
}

const SimKernel& best_kernel() { return *available_kernels().back(); }

std::string kernel_names() {
  std::string out;
  for (const SimKernel* k : available_kernels()) {
    if (!out.empty()) out += ' ';
    out += k->name;
  }
  return out;
}

const SimKernel& current_kernel() {
  const SimKernel* k = g_current.load(std::memory_order_acquire);
  if (k == nullptr) {
    // Benign race: every thread resolves the same default.
    k = resolve_default();
    g_current.store(k, std::memory_order_release);
  }
  return *k;
}

void set_current_kernel(const SimKernel& kernel) {
  g_current.store(&kernel, std::memory_order_release);
}

bool set_current_kernel(std::string_view name) {
  const SimKernel* k = find_kernel(name);
  if (k == nullptr) return false;
  set_current_kernel(*k);
  return true;
}

}  // namespace mdd
