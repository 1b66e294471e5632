// Probabilistic cardinality estimation via exponential minima.
//
// Every node draws L i.i.d. Exp(1) variates. The coordinate-wise minimum over
// any set S of nodes is a vector of L i.i.d. Exp(|S|) variates, and minima
// compose under set union by pointwise min — i.e. they flood through a
// dynamic network like a max/min aggregate. From the converged vector,
// (L-1)/Σ_i min_i is an unbiased estimate of |S| with relative standard
// deviation ≈ 1/sqrt(L-2) (Mosk-Aoyama–Shah style gossip counting).
//
// This is the O(polylog)-bit aggregate that lets the hjswy reconstruction
// learn the network size without moving Ω(N) identifiers — the step that
// removes the Ω(N) term from the round complexity.
//
// MergeCoord/MergeBlockBits are the engine's message-path hot loop (one
// call per delivered coordinate block); they are defined inline here so the
// templated engine can vectorize them, and MergeCoord's per-call checks are
// gated on SetVerifyEstimatorChecks (same pattern as SDN_VERIFY_SORTED:
// on in debug builds, off under NDEBUG, overridable via the
// SDN_VERIFY_ESTIMATOR environment variable; tests flip it on).
//
// Storage: the L coordinates live float32 in a shared SketchPool, at row
// `node` in columns [col_base, col_base + L). Every draw is quantized to
// float by that store, so coordinates survive the bounded-bandwidth
// algorithms' 32-bit wire encoding exactly and min-merging is bit-stable
// across hops. Estimators are shallow views: copying one aliases the same
// pool slots, and the pool must outlive every estimator attached to it.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "algo/sketch_pool.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sdn::algo {

/// Toggles the per-call bounds checks in CardinalityEstimator's merge hot
/// loops. Default: on in debug builds, off under NDEBUG; the
/// SDN_VERIFY_ESTIMATOR environment variable ("0"/"1", read once at
/// startup) overrides either way.
void SetVerifyEstimatorChecks(bool on);
[[nodiscard]] bool VerifyEstimatorChecks();

class CardinalityEstimator {
 public:
  /// L >= 3 sketch coordinates drawn from `rng` (L Exp(1) draws, in
  /// coordinate order), stored in `pool` at row `node`, columns
  /// [col_base, col_base + L). `pool` must be non-null and outlive the
  /// estimator and its copies.
  CardinalityEstimator(int L, util::Rng& rng, SketchPool* pool,
                       std::size_t node, int col_base);

  /// Weighted variant: the converged minima estimate Σ weights instead of a
  /// count. A node of integer weight w contributes Exp(w)-distributed
  /// coordinates (distributed like the min of w unit exponentials), so the
  /// pointwise network minima are Exp(Σw) and Estimate() returns ≈ Σw.
  /// Weight 0 contributes +infinity coordinates (no effect on minima);
  /// Estimate() returns 0 if the whole network carried weight 0. Draws L
  /// base coordinates, then L weighted redraws.
  static CardinalityEstimator ForWeight(std::uint64_t weight, int L,
                                        util::Rng& rng, SketchPool* pool,
                                        std::size_t node, int col_base);

  /// Min-merge of a single coordinate; returns true if it decreased. `v`
  /// must be float32-representable (all wire values are); the gated check
  /// enforces it.
  bool MergeCoord(std::size_t i, double v) {
    if (VerifyEstimatorChecks()) {
      SDN_CHECK(i < static_cast<std::size_t>(len_));
      SDN_CHECK(static_cast<double>(static_cast<float>(v)) == v);
    }
    const std::size_t col = Col(i);
    const double cur = static_cast<double>(pool_->Load(node_, col));
    if (v < cur) {
      fingerprint_ ^= CoordHash(i, cur) ^ CoordHash(i, v);
      pool_->Store(node_, col, static_cast<float>(v));
      return true;
    }
    return false;
  }

  /// Min-merge of a contiguous block starting at coordinate `base`, given
  /// as float32 bit patterns — the wire format of the bounded-bandwidth
  /// algorithms. The compare runs in the unsigned-integer domain directly
  /// against the float32 store: for the nonnegative values sketches hold,
  /// unsigned bit order equals value order (+inf = 0x7f800000 sorts above
  /// all finite values), so the decision "did this coordinate decrease" is
  /// identical to the double compare, and only decreased lanes pay the
  /// fingerprint rehash and store. The bounds check is hoisted out of the
  /// loop (always on — one check per block, not per coordinate). Returns
  /// true if any coordinate decreased.
  bool MergeBlockBits(std::size_t base, const std::uint32_t* vals,
                      std::size_t count) {
    SDN_CHECK(base + count <= static_cast<std::size_t>(len_));
    bool changed = false;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t col = Col(base + i);
      const std::uint32_t cur = pool_->LoadBits(node_, col);
      if (vals[i] < cur) {
        fingerprint_ ^= CoordHash(base + i, BitsToDouble(cur)) ^
                        CoordHash(base + i, BitsToDouble(vals[i]));
        pool_->StoreBits(node_, col, vals[i]);
        changed = true;
      }
    }
    return changed;
  }

  /// Float32 bit pattern of coordinate i — what the wire carries.
  [[nodiscard]] std::uint32_t CoordBits(std::size_t i) const {
    return pool_->LoadBits(node_, Col(i));
  }

  /// Coordinate i as a double.
  [[nodiscard]] double Coord(std::size_t i) const {
    return static_cast<double>(pool_->Load(node_, Col(i)));
  }

  /// Current cardinality estimate (L-1)/Σ mins.
  [[nodiscard]] double Estimate() const;

  [[nodiscard]] int size() const { return len_; }

  /// Position-mixed 64-bit hash of the sketch, used as the convergence
  /// fingerprint nodes compare during verification. A pure function of the
  /// current coordinate vector (XOR of per-coordinate position-salted
  /// hashes), maintained incrementally by the merge kernels — reading it is
  /// O(1) and a merge pays only O(#decreased coords), never a full O(L)
  /// rehash per state change.
  [[nodiscard]] std::uint64_t Fingerprint() const { return fingerprint_; }

  /// Analytic relative standard deviation of the estimate: ~1/sqrt(L-2).
  static double RelativeStddev(int L);

  /// Smallest L whose relative stddev is <= eps (so z·stddev-style bounds can
  /// be dialed by callers).
  static int RepetitionsFor(double eps);

 private:
  /// Hash of one (position, value) pair; XORed over all coordinates to form
  /// Fingerprint(). splitmix64-style finalizer: full avalanche, so flipping
  /// one coordinate flips the aggregate whp, and the position salt keeps the
  /// hash sensitive to coordinate order (sketches are positional).
  static std::uint64_t CoordHash(std::size_t i, double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    __builtin_memcpy(&bits, &v, sizeof bits);
    std::uint64_t x =
        bits ^ ((static_cast<std::uint64_t>(i) + 1) * 0x9e3779b97f4a7c15ULL);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  static double BitsToDouble(std::uint32_t bits) {
    return static_cast<double>(std::bit_cast<float>(bits));
  }

  [[nodiscard]] std::size_t Col(std::size_t i) const {
    return static_cast<std::size_t>(col_base_) + i;
  }

  /// Full O(L) rebuild of fingerprint_ (construction / wholesale resets).
  void RecomputeFingerprint();

  SketchPool* pool_;  // not owned
  std::size_t node_;  // pool row
  int col_base_;      // first pool column
  int len_;           // L
  std::uint64_t fingerprint_ = 0;
};

}  // namespace sdn::algo
