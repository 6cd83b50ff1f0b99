#include "pasa/minplus.h"

#include <utility>

#if defined(__x86_64__) && defined(__GNUC__)
#define PASA_MINPLUS_X86 1
#endif

namespace pasa {
namespace {

// The kernel body, inlined into one clone per ISA. The inner loop is a
// load-add-min-store over contiguous int64 costs with no branch, which the
// compiler vectorizes at the clone's width (vpminsq on AVX-512F; a compare
// and blend on AVX2). The longer operand runs innermost.
[[gnu::always_inline]] inline void ConvolveBody(const Cost* __restrict a,
                                                size_t na,
                                                const Cost* __restrict b,
                                                size_t nb,
                                                Cost* __restrict out) {
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  for (size_t i = 0; i < na; ++i) {
    const Cost ci = a[i];
    Cost* __restrict o = out + i;
    for (size_t j = 0; j < nb; ++j) {
      const Cost x = ci + b[j];
      o[j] = x < o[j] ? x : o[j];
    }
  }
}

#ifdef PASA_MINPLUS_X86
[[gnu::target("avx2")]] void ConvolveAvx2(const Cost* a, size_t na,
                                          const Cost* b, size_t nb,
                                          Cost* out) {
  ConvolveBody(a, na, b, nb, out);
}

[[gnu::target("avx512f,prefer-vector-width=512")]] void ConvolveAvx512f(
    const Cost* a, size_t na, const Cost* b, size_t nb, Cost* out) {
  ConvolveBody(a, na, b, nb, out);
}
#endif

}  // namespace

const char* MinPlusIsaName(MinPlusIsa isa) {
  static constexpr const char* kNames[] = {"default", "avx2", "avx512f"};
  return kNames[static_cast<int>(isa)];
}

bool MinPlusIsaSupported(MinPlusIsa isa) {
#ifdef PASA_MINPLUS_X86
  if (isa == MinPlusIsa::kAvx512f) return __builtin_cpu_supports("avx512f");
  if (isa == MinPlusIsa::kAvx2) return __builtin_cpu_supports("avx2");
  return true;
#else
  return isa == MinPlusIsa::kDefault;
#endif
}

MinPlusIsa DispatchedMinPlusIsa() {
  static const MinPlusIsa isa =
      MinPlusIsaSupported(MinPlusIsa::kAvx512f) ? MinPlusIsa::kAvx512f
      : MinPlusIsaSupported(MinPlusIsa::kAvx2)  ? MinPlusIsa::kAvx2
                                                : MinPlusIsa::kDefault;
  return isa;
}

void MinPlusConvolve(MinPlusIsa isa, const Cost* a, size_t na, const Cost* b,
                     size_t nb, Cost* out) {
#ifdef PASA_MINPLUS_X86
  if (isa == MinPlusIsa::kAvx512f) return ConvolveAvx512f(a, na, b, nb, out);
  if (isa == MinPlusIsa::kAvx2) return ConvolveAvx2(a, na, b, nb, out);
#endif
  ConvolveBody(a, na, b, nb, out);
}

}  // namespace pasa
