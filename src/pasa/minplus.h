#ifndef PASA_PASA_MINPLUS_H_
#define PASA_PASA_MINPLUS_H_

#include <cstddef>

#include "pasa/configuration.h"

namespace pasa {

/// The instruction sets the dense x dense (min,+) convolution of Bulk_dp's
/// two-stage fill is compiled for. One portable binary carries all of them;
/// DispatchedMinPlusIsa() picks the widest the CPU supports, once.
enum class MinPlusIsa { kDefault, kAvx2, kAvx512f };

/// "default" (baseline x86-64 or the host's baseline elsewhere), "avx2",
/// "avx512f": the `isa` label of the bulk_dp/kernel_info gauge.
const char* MinPlusIsaName(MinPlusIsa isa);

/// Whether this CPU (and this build) can run `isa`. kDefault always can.
bool MinPlusIsaSupported(MinPlusIsa isa);

/// The widest supported variant, resolved on first call and cached.
MinPlusIsa DispatchedMinPlusIsa();

/// out[l1 + l2] = min(out[l1 + l2], a[l1] + b[l2]) over every l1 < na and
/// l2 < nb, with the kernel compiled for `isa`, which must be supported.
/// `out` holds na + nb - 1 entries; none of the arrays overlap. Every
/// variant computes the same exact integer minima, so the results are
/// bit-identical across ISAs. Sums must not overflow: entries are at most
/// kInfiniteCost.
void MinPlusConvolve(MinPlusIsa isa, const Cost* a, size_t na, const Cost* b,
                     size_t nb, Cost* out);

}  // namespace pasa

#endif  // PASA_PASA_MINPLUS_H_
