#include "algo/estimator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "algo/sketch_pool.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sdn::algo {
namespace {

/// Min-merges every coordinate of `other` into `into` through the wire
/// path (float32 bit patterns); true if any coordinate decreased.
bool MergeAll(CardinalityEstimator& into, const CardinalityEstimator& other) {
  std::vector<std::uint32_t> bits(static_cast<std::size_t>(other.size()));
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = other.CoordBits(i);
  return into.MergeBlockBits(0, bits.data(), bits.size());
}

std::vector<double> Coords(const CardinalityEstimator& sketch) {
  std::vector<double> out;
  for (int i = 0; i < sketch.size(); ++i) {
    out.push_back(sketch.Coord(static_cast<std::size_t>(i)));
  }
  return out;
}

/// Simulates full convergence: merges n nodes' sketches into row 0 of
/// `pool`, drawing each other node's sketch into row 1 in turn.
CardinalityEstimator ConvergedSketch(SketchPool& pool, int n, int L,
                                     util::Rng& rng) {
  CardinalityEstimator merged(L, rng, &pool, 0, 0);
  for (int i = 1; i < n; ++i) {
    const CardinalityEstimator other(L, rng, &pool, 1, 0);
    MergeAll(merged, other);
  }
  return merged;
}

TEST(Estimator, RejectsBadShapes) {
  util::Rng rng(1);
  SketchPool pool(/*nodes=*/2, /*columns=*/8);
  EXPECT_THROW(CardinalityEstimator(2, rng, &pool, 0, 0), util::CheckError);
  EXPECT_THROW(CardinalityEstimator(4, rng, nullptr, 0, 0), util::CheckError);
  EXPECT_THROW(CardinalityEstimator(4, rng, &pool, 2, 0), util::CheckError);
  EXPECT_THROW(CardinalityEstimator(4, rng, &pool, 0, 5), util::CheckError);
}

TEST(Estimator, SingleNodeEstimatesNearOne) {
  util::Rng rng(2);
  SketchPool pool(1, 64);
  double total = 0.0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    total += CardinalityEstimator(64, rng, &pool, 0, 0).Estimate();
  }
  EXPECT_NEAR(total / trials, 1.0, 0.08);
}

TEST(Estimator, ConvergedEstimateTracksN) {
  util::Rng rng(3);
  SketchPool pool(2, 128);
  for (const int n : {10, 100, 1000}) {
    double total = 0.0;
    const int trials = 30;
    for (int t = 0; t < trials; ++t) {
      total += ConvergedSketch(pool, n, 128, rng).Estimate();
    }
    const double mean = total / trials;
    // Relative stddev ~ 1/sqrt(126) ≈ 0.09; 30 trials → sem ≈ 1.6%.
    EXPECT_NEAR(mean, n, 0.08 * n) << "n=" << n;
  }
}

TEST(Estimator, ErrorShrinksWithL) {
  util::Rng rng(4);
  const int n = 500;
  const auto spread = [&](int L) {
    SketchPool pool(2, L);
    double sum_sq = 0.0;
    const int trials = 60;
    for (int t = 0; t < trials; ++t) {
      const double rel = ConvergedSketch(pool, n, L, rng).Estimate() / n - 1.0;
      sum_sq += rel * rel;
    }
    return std::sqrt(sum_sq / trials);
  };
  const double rough = spread(8);
  const double fine = spread(128);
  EXPECT_LT(fine, rough * 0.6);
  EXPECT_NEAR(fine, CardinalityEstimator::RelativeStddev(128), 0.06);
}

TEST(Estimator, MergeIsIdempotentAndCommutative) {
  SketchPool pool(3, 16);
  util::Rng rng(5);
  CardinalityEstimator a(16, rng, &pool, 0, 0);
  CardinalityEstimator b(16, rng, &pool, 1, 0);
  util::Rng replay(5);
  const CardinalityEstimator a2(16, replay, &pool, 2, 0);  // a's draws
  ASSERT_EQ(Coords(a), Coords(a2));
  MergeAll(a, b);
  const std::vector<double> snapshot = Coords(a);
  EXPECT_FALSE(MergeAll(a, b));  // idempotent
  // Commutativity: b ∪ a == a ∪ b.
  MergeAll(b, a2);
  EXPECT_EQ(Coords(b), snapshot);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST(Estimator, MergeCoordOnlyTouchesOneCoordinate) {
  util::Rng rng(6);
  SketchPool pool(1, 8);
  CardinalityEstimator a(8, rng, &pool, 0, 0);
  const std::vector<double> before = Coords(a);
  const double tiny = static_cast<double>(1e-9f);
  EXPECT_TRUE(a.MergeCoord(3, tiny));
  std::vector<double> want = before;
  want[3] = tiny;
  EXPECT_EQ(Coords(a), want);
  EXPECT_FALSE(a.MergeCoord(3, 1.0));  // not smaller
  // The per-call checks are gated (release hot loops run check-free); with
  // the guard on, an out-of-range coordinate or a value the float32 store
  // cannot hold must throw.
  const bool old = VerifyEstimatorChecks();
  SetVerifyEstimatorChecks(true);
  EXPECT_THROW(a.MergeCoord(8, 0.5), util::CheckError);
  EXPECT_THROW(a.MergeCoord(0, 1e-9), util::CheckError);
  SetVerifyEstimatorChecks(old);
}

TEST(Estimator, MergeBlockBitsMatchesMergeCoordLoop) {
  // The bits-domain block merge compares unsigned float32 patterns; for the
  // nonnegative values sketches hold that must decide exactly like the
  // double compare of the coordinate-at-a-time path.
  SketchPool pool(2, 32);
  util::Rng rng(12);
  CardinalityEstimator block_merged(32, rng, &pool, 0, 0);
  util::Rng rng_copy(12);
  CardinalityEstimator coord_merged(32, rng_copy, &pool, 1, 0);
  ASSERT_EQ(Coords(block_merged), Coords(coord_merged));

  util::Rng vals_rng(13);
  for (int round = 0; round < 50; ++round) {
    const std::size_t base = static_cast<std::size_t>(round) % 28;
    std::vector<std::uint32_t> bits;
    bool coord_changed = false;
    for (std::size_t i = 0; i < 4; ++i) {
      const auto v = static_cast<float>(vals_rng.Exponential(1.0));
      bits.push_back(std::bit_cast<std::uint32_t>(v));
      coord_changed |= coord_merged.MergeCoord(base + i, v);
    }
    const bool block_changed =
        block_merged.MergeBlockBits(base, bits.data(), bits.size());
    EXPECT_EQ(block_changed, coord_changed);
  }
  EXPECT_EQ(Coords(block_merged), Coords(coord_merged));
  EXPECT_EQ(block_merged.Fingerprint(), coord_merged.Fingerprint());
}

TEST(Estimator, MergeBlockBitsBoundsCheckedAndIdempotent) {
  util::Rng rng(14);
  SketchPool pool(1, 8);
  CardinalityEstimator a(8, rng, &pool, 0, 0);
  const std::vector<std::uint32_t> tiny(4,
                                        std::bit_cast<std::uint32_t>(1e-12f));
  EXPECT_TRUE(a.MergeBlockBits(4, tiny.data(), tiny.size()));
  // Idempotent: nothing decreases twice.
  EXPECT_FALSE(a.MergeBlockBits(4, tiny.data(), tiny.size()));
  // The hoisted bounds check is always on: one check per block, not per
  // coordinate, so even release builds reject an overflowing block.
  EXPECT_THROW(a.MergeBlockBits(5, tiny.data(), tiny.size()),
               util::CheckError);
  EXPECT_THROW(a.MergeBlockBits(9, tiny.data(), 0), util::CheckError);
}

TEST(Estimator, FingerprintDetectsAnyChange) {
  util::Rng rng(7);
  SketchPool pool(1, 32);
  CardinalityEstimator a(32, rng, &pool, 0, 0);
  const std::uint64_t before = a.Fingerprint();
  a.MergeCoord(31, a.Coord(31) / 2);
  EXPECT_NE(a.Fingerprint(), before);
}

TEST(Estimator, WeightedSketchEstimatesSum) {
  util::Rng rng(10);
  SketchPool pool(2, 128);
  const std::vector<std::uint64_t> weights = {5, 0, 120, 7, 0, 368, 1};
  std::uint64_t total = 0;
  for (const auto w : weights) total += w;
  double sum = 0.0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    CardinalityEstimator merged =
        CardinalityEstimator::ForWeight(weights[0], 128, rng, &pool, 0, 0);
    for (std::size_t i = 1; i < weights.size(); ++i) {
      MergeAll(merged, CardinalityEstimator::ForWeight(weights[i], 128, rng,
                                                       &pool, 1, 0));
    }
    sum += merged.Estimate();
  }
  EXPECT_NEAR(sum / trials, static_cast<double>(total),
              0.08 * static_cast<double>(total));
}

TEST(Estimator, AllZeroWeightsEstimateZero) {
  util::Rng rng(11);
  SketchPool pool(2, 8);
  CardinalityEstimator a = CardinalityEstimator::ForWeight(0, 8, rng, &pool,
                                                           0, 0);
  const CardinalityEstimator b =
      CardinalityEstimator::ForWeight(0, 8, rng, &pool, 1, 0);
  MergeAll(a, b);
  EXPECT_EQ(a.Estimate(), 0.0);
}

TEST(Estimator, ZeroWeightNeverLowersMinima) {
  util::Rng rng(12);
  SketchPool pool(2, 16);
  CardinalityEstimator weighted =
      CardinalityEstimator::ForWeight(9, 16, rng, &pool, 0, 0);
  const std::vector<double> before = Coords(weighted);
  const CardinalityEstimator zero =
      CardinalityEstimator::ForWeight(0, 16, rng, &pool, 1, 0);
  EXPECT_FALSE(MergeAll(weighted, zero));
  EXPECT_EQ(Coords(weighted), before);
}

TEST(Estimator, RepetitionsForMatchesStddevTarget) {
  EXPECT_EQ(CardinalityEstimator::RepetitionsFor(1.0), 3);
  const int L = CardinalityEstimator::RepetitionsFor(0.1);
  EXPECT_LE(CardinalityEstimator::RelativeStddev(L), 0.1);
  EXPECT_GT(CardinalityEstimator::RelativeStddev(L - 1), 0.1);
}

}  // namespace
}  // namespace sdn::algo
