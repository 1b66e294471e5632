// Rolling per-round histogram: the anomaly plane's windowed signal.
//
// obs::Histogram accumulates forever — right for end-of-run summaries, wrong
// for "is this round unusual *lately*": a spike detector comparing against a
// whole-run p99 goes blind after the first slow warmup rounds. RollingHist
// keeps obs::Histogram's log2 buckets (obs/registry.hpp) over only the last
// `window` observations, evicting the oldest value as each new one arrives,
// so quantiles always describe the recent regime.
//
// Footprint is fixed at construction: one `window`-slot ring of raw values
// plus the bucket array. Observe() is two bucket increments/decrements and a
// ring store — no allocation, no branches on the value distribution — cheap
// enough to feed from every engine round on the observation (post-clock)
// side of Step().
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/registry.hpp"
#include "util/check.hpp"

namespace sdn::obs {

class RollingHist {
 public:
  explicit RollingHist(int window = 64) : window_(window) {
    SDN_CHECK(window >= 1);
    ring_.assign(static_cast<std::size_t>(window), 0);
  }

  /// Adds `value`, evicting the oldest observation once the window is full.
  void Observe(std::int64_t value) {
    const std::size_t slot = static_cast<std::size_t>(head_);
    if (filled_ == window_) {
      const std::int64_t old = ring_[slot];
      --buckets_[static_cast<std::size_t>(Log2Bucket(old))];
      sum_ -= old;
    } else {
      ++filled_;
    }
    ring_[slot] = value;
    ++buckets_[static_cast<std::size_t>(Log2Bucket(value))];
    sum_ += value;
    head_ = (head_ + 1) % window_;
    ++total_observed_;
  }

  /// Observations currently inside the window (<= window()).
  [[nodiscard]] std::int64_t count() const { return filled_; }
  [[nodiscard]] int window() const { return window_; }
  /// Lifetime Observe() calls, including evicted ones.
  [[nodiscard]] std::int64_t total_observed() const { return total_observed_; }
  /// Sum over the current window only.
  [[nodiscard]] std::int64_t sum() const { return sum_; }

  /// q in [0, 1] over the current window: Log2Quantile's estimate clamped
  /// to the bucket's own span [2^(b-1), 2^b - 1] (a window keeps no
  /// min/max under eviction). 0 when empty.
  [[nodiscard]] std::int64_t Quantile(double q) const {
    const Log2Rank rank = Log2Quantile(buckets_, filled_, q);
    if (rank.bucket == 0) return 0;
    const std::int64_t lo = std::int64_t{1} << (rank.bucket - 1);
    const auto hi =
        static_cast<std::int64_t>((std::uint64_t{1} << rank.bucket) - 1);
    return std::clamp(rank.estimate, lo, hi);
  }

 private:
  int window_;
  int head_ = 0;                 // next ring slot to write
  std::int64_t filled_ = 0;      // observations currently in the window
  std::int64_t total_observed_ = 0;
  std::int64_t sum_ = 0;
  std::vector<std::int64_t> ring_;  // sized once in the constructor
  std::int64_t buckets_[kLog2Buckets] = {};
};

}  // namespace sdn::obs
