#include "algo/estimator.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "util/check.hpp"

namespace sdn::algo {

namespace {

bool InitVerifyEstimatorChecks() {
  if (const char* env = std::getenv("SDN_VERIFY_ESTIMATOR")) {
    return env[0] != '0';
  }
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

std::atomic<bool> g_verify_estimator{InitVerifyEstimatorChecks()};

}  // namespace

void SetVerifyEstimatorChecks(bool on) {
  g_verify_estimator.store(on, std::memory_order_relaxed);
}

bool VerifyEstimatorChecks() {
  return g_verify_estimator.load(std::memory_order_relaxed);
}

CardinalityEstimator::CardinalityEstimator(int L, util::Rng& rng,
                                           SketchPool* pool, std::size_t node,
                                           int col_base)
    : pool_(pool), node_(node), col_base_(col_base), len_(L) {
  SDN_CHECK_MSG(L >= 3, "estimator needs L >= 3 (variance is undefined below)");
  SDN_CHECK(pool != nullptr && node < pool->nodes());
  SDN_CHECK(col_base >= 0 && col_base + L <= pool->columns());
  for (int i = 0; i < L; ++i) {
    pool_->Store(node_, Col(static_cast<std::size_t>(i)),
                 static_cast<float>(rng.Exponential(1.0)));
  }
  RecomputeFingerprint();
}

CardinalityEstimator CardinalityEstimator::ForWeight(std::uint64_t weight,
                                                     int L, util::Rng& rng,
                                                     SketchPool* pool,
                                                     std::size_t node,
                                                     int col_base) {
  CardinalityEstimator sketch(L, rng, pool, node, col_base);
  for (int i = 0; i < L; ++i) {
    const double v = weight == 0
                         ? std::numeric_limits<double>::infinity()
                         : rng.Exponential(static_cast<double>(weight));
    pool->Store(node, sketch.Col(static_cast<std::size_t>(i)),
                static_cast<float>(v));
  }
  sketch.RecomputeFingerprint();
  return sketch;
}

double CardinalityEstimator::Estimate() const {
  double sum = 0.0;
  for (int i = 0; i < len_; ++i) sum += Coord(static_cast<std::size_t>(i));
  if (std::isinf(sum)) return 0.0;  // all-zero-weight network
  SDN_CHECK(sum > 0.0);
  return static_cast<double>(len_ - 1) / sum;
}

void CardinalityEstimator::RecomputeFingerprint() {
  std::uint64_t h = 0;
  for (int i = 0; i < len_; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    h ^= CoordHash(idx, Coord(idx));
  }
  fingerprint_ = h;
}

double CardinalityEstimator::RelativeStddev(int L) {
  SDN_CHECK(L >= 3);
  // (L-1)/S with S ~ Gamma(L, 1/N): Var = N²·(L-1)²/((L-1)²(L-2)) - ... which
  // reduces to relative stddev sqrt((L-1)/(L-2)² · ...) ≈ 1/sqrt(L-2).
  return 1.0 / std::sqrt(static_cast<double>(L - 2));
}

int CardinalityEstimator::RepetitionsFor(double eps) {
  SDN_CHECK(eps > 0.0);
  const double l = 2.0 + 1.0 / (eps * eps);
  return std::max(3, static_cast<int>(std::ceil(l)));
}

}  // namespace sdn::algo
