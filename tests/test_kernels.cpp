// Per-tier equivalence of the deliver-phase SIMD kernel (src/algo/kernels).
//
// The dispatch contract is that every tier — scalar, SSE2, AVX2 — computes
// the exact unsigned min, for every length (vector body plus scalar tail).
// These tests force each tier the CPU supports via SetIsa (the same switch
// the SDN_SIMD env var drives) and pin the tiers against an inline
// reference, including the edge cases the wire format actually produces:
// +inf bit patterns (0x7f800000, weight-zero coordinates), values
// straddling the sign bit (unsigned — not signed — min), and lengths that
// are not a multiple of any lane width. The final test closes the loop end
// to end: one full hjswy run per tier, RunStats bit-identical.
#include "algo/kernels.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/api.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sdn::algo::kernels {
namespace {

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas = {Isa::kScalar};
  if (BestSupportedIsa() >= Isa::kSse2) isas.push_back(Isa::kSse2);
  if (BestSupportedIsa() >= Isa::kAvx2) isas.push_back(Isa::kAvx2);
  return isas;
}

/// Restores the startup tier after each test so the forced tier never leaks
/// into the rest of the suite.
class KernelsTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = ActiveIsa(); }
  void TearDown() override { SetIsa(saved_); }

 private:
  Isa saved_ = Isa::kScalar;
};

// Lengths chosen to hit empty, sub-lane, exact-lane, lane+tail and
// multi-block shapes for both the 4-lane SSE2 and 8-lane AVX2 paths.
constexpr std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9,
                                    15, 16, 17, 31, 32, 33, 63, 64};

TEST_F(KernelsTest, MinU32MatchesScalarReferenceOnEveryTier) {
  util::Rng rng(20260807);
  constexpr std::uint32_t kInfBits = 0x7f800000u;
  for (const std::size_t len : kLengths) {
    // Mix of float32-bit-domain values (the real wire content), +inf
    // sentinels and raw u32s with the sign bit set (pins *unsigned* min).
    std::vector<std::uint32_t> acc0(len);
    std::vector<std::uint32_t> vals(len);
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint32_t r = static_cast<std::uint32_t>(rng());
      acc0[i] = i % 5 == 0 ? kInfBits : r % kInfBits;
      vals[i] = i % 7 == 0 ? static_cast<std::uint32_t>(rng())
                           : static_cast<std::uint32_t>(rng()) % kInfBits;
    }
    std::vector<std::uint32_t> want = acc0;
    for (std::size_t i = 0; i < len; ++i) {
      want[i] = std::min(want[i], vals[i]);
    }
    for (const Isa isa : SupportedIsas()) {
      SetIsa(isa);
      ASSERT_EQ(ActiveIsa(), isa);
      std::vector<std::uint32_t> acc = acc0;
      MinU32(acc.data(), vals.data(), len);
      EXPECT_EQ(acc, want) << ToString(isa) << " len=" << len;
      // The raw pointer the engine hoists per OnReceive must dispatch to
      // the same tier.
      acc = acc0;
      MinU32Kernel()(acc.data(), vals.data(), len);
      EXPECT_EQ(acc, want) << ToString(isa) << " len=" << len << " (fn ptr)";
    }
  }
}

TEST_F(KernelsTest, MinU32IsUnsignedAcrossTheSignBit) {
  // The SSE2 tier emulates unsigned min via a sign-bit flip; these pairs
  // are exactly where a signed min would answer differently.
  const std::uint32_t acc0[] = {0x7fffffffu, 0x80000000u, 0xffffffffu, 1u};
  const std::uint32_t vals[] = {0x80000000u, 0x7fffffffu, 0u, 0xfffffffeu};
  const std::uint32_t want[] = {0x7fffffffu, 0x7fffffffu, 0u, 1u};
  for (const Isa isa : SupportedIsas()) {
    SetIsa(isa);
    std::uint32_t acc[4] = {acc0[0], acc0[1], acc0[2], acc0[3]};
    MinU32(acc, vals, 4);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(acc[i], want[i]) << ToString(isa) << " lane " << i;
    }
  }
}

TEST_F(KernelsTest, SetIsaRejectsUnsupportedTier) {
  if (BestSupportedIsa() == Isa::kAvx2) GTEST_SKIP() << "every tier supported";
  EXPECT_THROW(SetIsa(Isa::kAvx2), util::CheckError);
}

TEST_F(KernelsTest, EngineRunStatsIdenticalAcrossTiers) {
  // End to end: one full hjswy workload per supported tier. The kernel sits
  // on the deliver hot path (inbox reduction), so any
  // cross-tier divergence shows up in the sketches and hence in rounds /
  // messages / outputs. Everything except wall-clock timings must match.
  const auto run = [] {
    RunConfig config;
    config.n = 96;
    config.T = 2;
    config.seed = 41;
    config.adversary.kind = "spine-gnp";
    config.max_rounds = 100'000;
    config.validate_tinterval = false;
    return RunAlgorithm(Algorithm::kHjswyEstimate, config);
  };
  SetIsa(Isa::kScalar);
  const RunResult reference = run();
  for (const Isa isa : SupportedIsas()) {
    if (isa == Isa::kScalar) continue;
    SetIsa(isa);
    const RunResult got = run();
    SCOPED_TRACE(ToString(isa));
    EXPECT_EQ(got.stats.rounds, reference.stats.rounds);
    EXPECT_EQ(got.stats.messages_sent, reference.stats.messages_sent);
    EXPECT_EQ(got.stats.messages_delivered,
              reference.stats.messages_delivered);
    EXPECT_EQ(got.stats.total_message_bits,
              reference.stats.total_message_bits);
    EXPECT_EQ(got.stats.decide_round, reference.stats.decide_round);
    EXPECT_EQ(got.count_max_rel_error, reference.count_max_rel_error);
    EXPECT_EQ(got.max_correct, reference.max_correct);
  }
}

}  // namespace
}  // namespace sdn::algo::kernels
