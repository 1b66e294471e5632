// Runtime-dispatched SIMD kernel for the deliver-phase hot loop.
//
// MinU32 is the only kernel (docs/PERF.md "Hot-path reclaim"): columnwise
// unsigned min of one u32 block into an accumulator. Every hjswy wire
// coordinate is a nonnegative float32 bit pattern (Exp draws quantized to
// float; +inf for weight 0), and for nonnegative IEEE floats value order
// coincides with unsigned order of the bit patterns — so the per-message
// inbox reduction is a pure integer min, here in explicit SIMD.
//
// Dispatch policy: one probe at startup picks the widest tier the CPU
// supports (AVX2 > SSE2 > scalar); the SDN_SIMD environment variable
// ("scalar" / "sse2" / "avx2", read once) caps or forces the tier, and
// SetIsa() lets tests flip tiers at runtime. Every tier computes the exact
// unsigned min — the property suite pins scalar == SSE2 == AVX2, and the
// engine pins RunStats equality across tiers. Non-x86 builds compile the
// scalar tier only.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sdn::algo::kernels {

/// Dispatch tiers, widest last. kSse2 and kAvx2 exist only on x86-64; on
/// other architectures kScalar is the sole supported tier.
enum class Isa : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

[[nodiscard]] const char* ToString(Isa isa);

/// Widest tier this CPU supports (ignores SDN_SIMD).
[[nodiscard]] Isa BestSupportedIsa();

/// The tier the kernels currently dispatch to.
[[nodiscard]] Isa ActiveIsa();

/// Forces the dispatch tier (tests; the SDN_SIMD env var goes through the
/// same switch at startup). CheckError if this CPU lacks the tier.
void SetIsa(Isa isa);

/// acc[i] = min(acc[i], vals[i]) in the unsigned 32-bit domain for
/// i < len. `acc` and `vals` must not overlap. Any len (vector body plus
/// scalar tail); the float32-bit-domain contract is the caller's concern —
/// the kernel is a plain unsigned min.
void MinU32(std::uint32_t* acc, const std::uint32_t* vals, std::size_t len);

/// Raw kernel pointer for per-message hot loops: resolving the dispatch
/// once per OnReceive (one relaxed atomic load) and calling the returned
/// pointer per message keeps the indirect call perfectly predicted instead
/// of paying the atomic load inside the loop. The pointer stays valid
/// forever; it just stops being the active tier after a SetIsa.
using MinU32Fn = void (*)(std::uint32_t*, const std::uint32_t*, std::size_t);
[[nodiscard]] MinU32Fn MinU32Kernel();

}  // namespace sdn::algo::kernels
