// Structure-of-arrays backing store for hjswy sketch coordinates.
//
// Per-node `std::vector<double>` storage would cost 8 bytes/coordinate plus
// a heap allocation (and a pointer chase) per node — at n = 2^20 with
// L = 64 that is ~0.5 GB of doubles scattered across a million
// allocations, and the delivery hot loop (every node min-merging the same
// rotating c-coordinate window each round) would walk them in the worst
// possible order for the cache.
//
// The pool stores every node's coordinates in one contiguous float32 block,
// column-major: coordinate j of node u lives at data[j*n + u]. All wire
// values are float32-quantized already (the bounded-bandwidth encoding), so
// float storage loses nothing. The engine delivers to nodes in ascending
// order within a shard and every sender follows the same rotation schedule,
// so one round's merges touch c adjacent-in-column entries per node and
// consecutive nodes hit consecutive offsets in those same c columns.
//
// The pool is plain storage: CardinalityEstimator owns all merge and
// fingerprint semantics.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace sdn::algo {

class SketchPool {
 public:
  /// Storage for `nodes` rows of `columns` float32 coordinates each,
  /// zero-initialized (estimator construction overwrites every slot).
  SketchPool(std::size_t nodes, int columns)
      : nodes_(nodes), columns_(columns) {
    SDN_CHECK(nodes > 0 && columns > 0);
    data_.resize(nodes * static_cast<std::size_t>(columns));
  }

  [[nodiscard]] std::size_t nodes() const { return nodes_; }
  [[nodiscard]] int columns() const { return columns_; }

  [[nodiscard]] float Load(std::size_t node, std::size_t col) const {
    return data_[Index(node, col)];
  }
  void Store(std::size_t node, std::size_t col, float v) {
    data_[Index(node, col)] = v;
  }

  /// The float32 bit pattern at (node, col). For the nonnegative values the
  /// sketches hold, unsigned order of bit patterns equals value order, so
  /// merges can compare in the integer domain.
  [[nodiscard]] std::uint32_t LoadBits(std::size_t node,
                                       std::size_t col) const {
    return std::bit_cast<std::uint32_t>(data_[Index(node, col)]);
  }
  void StoreBits(std::size_t node, std::size_t col, std::uint32_t bits) {
    data_[Index(node, col)] = std::bit_cast<float>(bits);
  }

  /// Total backing bytes (for MemoryBudget accounting).
  [[nodiscard]] std::size_t bytes() const {
    return data_.size() * sizeof(float);
  }

 private:
  // Hot-path indexing: assert (not SDN_CHECK) so release builds pay pure
  // pointer arithmetic; the estimator's own gated checks cover bounds.
  [[nodiscard]] std::size_t Index(std::size_t node, std::size_t col) const {
    assert(node < nodes_ && col < static_cast<std::size_t>(columns_));
    return col * nodes_ + node;
  }

  std::size_t nodes_;
  int columns_;
  std::vector<float> data_;
};

}  // namespace sdn::algo
