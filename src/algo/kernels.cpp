#include "algo/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/check.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#define SDN_KERNELS_X86 1
#else
#define SDN_KERNELS_X86 0
#endif

namespace sdn::algo::kernels {

namespace {

// ---------------------------------------------------------------------------
// Scalar tier — the reference semantics every wider tier must reproduce
// bit for bit. MinU32 is exact unsigned min (not just on the float32 bit
// domain), so equivalence holds on every input.
// ---------------------------------------------------------------------------

void MinU32Scalar(std::uint32_t* acc, const std::uint32_t* vals,
                  std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    acc[i] = std::min(acc[i], vals[i]);
  }
}

#if SDN_KERNELS_X86

// ---------------------------------------------------------------------------
// SSE2 tier. x86-64 baseline — no cpuid gate needed. SSE2 has no unsigned
// 32-bit min, so the compare flips the sign bit on both sides (unsigned
// order == signed order after the flip) and blends with and/andnot/or.
// ---------------------------------------------------------------------------

void MinU32Sse2(std::uint32_t* acc, const std::uint32_t* vals,
                std::size_t len) {
  const __m128i sign = _mm_set1_epi32(static_cast<int>(0x80000000u));
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + i));
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(vals + i));
    // gt = (acc > vals) unsigned: take vals where set, acc elsewhere.
    const __m128i gt =
        _mm_cmpgt_epi32(_mm_xor_si128(a, sign), _mm_xor_si128(v, sign));
    const __m128i m =
        _mm_or_si128(_mm_and_si128(gt, v), _mm_andnot_si128(gt, a));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + i), m);
  }
  for (; i < len; ++i) acc[i] = std::min(acc[i], vals[i]);
}

// ---------------------------------------------------------------------------
// AVX2 tier (gated on __builtin_cpu_supports). vpminud is a true unsigned
// min; the 128-bit SSE4.1 form handles the 4..7-lane middle so the common
// coords_per_msg=4 block is one load + one pminud + one store.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void MinU32Avx2(std::uint32_t* acc,
                                                const std::uint32_t* vals,
                                                std::size_t len) {
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        _mm256_min_epu32(a, v));
  }
  if (i + 4 <= len) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + i));
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(vals + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + i), _mm_min_epu32(a, v));
    i += 4;
  }
  for (; i < len; ++i) acc[i] = std::min(acc[i], vals[i]);
}

#endif  // SDN_KERNELS_X86

// Dispatch state. constinit scalar defaults mean any call that races static
// initialization (or runs on a non-x86 build) gets correct-if-slow scalar
// code; the startup initializer below upgrades to the widest permitted tier.
constinit std::atomic<MinU32Fn> g_min_u32{&MinU32Scalar};
constinit std::atomic<int> g_active_isa{static_cast<int>(Isa::kScalar)};

void SetIsaUnchecked(Isa isa) {
  switch (isa) {
#if SDN_KERNELS_X86
    case Isa::kAvx2:
      g_min_u32.store(&MinU32Avx2, std::memory_order_relaxed);
      break;
    case Isa::kSse2:
      g_min_u32.store(&MinU32Sse2, std::memory_order_relaxed);
      break;
#endif
    default:
      g_min_u32.store(&MinU32Scalar, std::memory_order_relaxed);
      isa = Isa::kScalar;
      break;
  }
  g_active_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
}

/// SDN_SIMD caps or forces the startup tier; unknown values are ignored
/// (the probe result stands) rather than aborting a run over a typo.
Isa InitialIsa() {
  Isa isa = BestSupportedIsa();
  if (const char* env = std::getenv("SDN_SIMD")) {
    if (std::strcmp(env, "scalar") == 0) {
      isa = Isa::kScalar;
    } else if (std::strcmp(env, "sse2") == 0 &&
               BestSupportedIsa() >= Isa::kSse2) {
      isa = Isa::kSse2;
    } else if (std::strcmp(env, "avx2") == 0 &&
               BestSupportedIsa() >= Isa::kAvx2) {
      isa = Isa::kAvx2;
    }
  }
  return isa;
}

const bool g_dispatch_initialized = [] {
  SetIsaUnchecked(InitialIsa());
  return true;
}();

}  // namespace

const char* ToString(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Isa BestSupportedIsa() {
#if SDN_KERNELS_X86
  return __builtin_cpu_supports("avx2") ? Isa::kAvx2 : Isa::kSse2;
#else
  return Isa::kScalar;
#endif
}

Isa ActiveIsa() {
  return static_cast<Isa>(g_active_isa.load(std::memory_order_relaxed));
}

void SetIsa(Isa isa) {
  SDN_CHECK_MSG(isa <= BestSupportedIsa(),
                "SIMD tier " << ToString(isa)
                             << " not supported on this CPU (best: "
                             << ToString(BestSupportedIsa()) << ")");
  SetIsaUnchecked(isa);
}

void MinU32(std::uint32_t* acc, const std::uint32_t* vals, std::size_t len) {
  g_min_u32.load(std::memory_order_relaxed)(acc, vals, len);
}

MinU32Fn MinU32Kernel() { return g_min_u32.load(std::memory_order_relaxed); }

}  // namespace sdn::algo::kernels
