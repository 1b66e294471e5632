// Per-subsystem memory accounting.
//
// MemoryBudget holds named gauges recording current and peak bytes per
// subsystem ("outbox", "sketch_pool", "topology", ...). The engine charges
// its deterministic allocations here and snapshots the gauges into
// RunStats::memory, so every run reports its footprint breakdown and
// bench_scale/CI can gate bytes-per-node at scale. Only deterministic
// quantities are charged (sizes that are pure functions of n and the
// topology stream) — backing-dependent scratch (the per-shard gather
// buffers) is excluded so RunStats stays bit-identical across thread
// counts and backings.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sdn::util {

/// One named byte gauge: current level plus high-water mark.
class MemoryGauge {
 public:
  void Add(std::int64_t bytes) { SetCurrent(current_ + bytes); }
  void SetCurrent(std::int64_t bytes) {
    current_ = bytes;
    if (current_ > peak_) peak_ = current_;
  }
  [[nodiscard]] std::int64_t current() const { return current_; }
  [[nodiscard]] std::int64_t peak() const { return peak_; }

 private:
  std::int64_t current_ = 0;
  std::int64_t peak_ = 0;
};

/// Registry of named MemoryGauges. Gauge pointers are stable for the
/// budget's lifetime, so hot paths resolve a name once and update through
/// the pointer. Not thread-safe: all charge sites run on the engine's
/// driving thread (or under the caller's own ordering).
class MemoryBudget {
 public:
  /// The gauge named `name`, created empty on first use.
  MemoryGauge* Get(std::string_view name) {
    for (auto& [k, gauge] : gauges_) {
      if (k == name) return gauge.get();
    }
    gauges_.emplace_back(std::string(name), std::make_unique<MemoryGauge>());
    return gauges_.back().second.get();
  }

  struct Entry {
    std::string subsystem;
    std::int64_t current_bytes = 0;
    std::int64_t peak_bytes = 0;
  };

  /// All gauges in registration order.
  [[nodiscard]] std::vector<Entry> Snapshot() const {
    std::vector<Entry> out;
    out.reserve(gauges_.size());
    for (const auto& [name, gauge] : gauges_) {
      out.push_back({name, gauge->current(), gauge->peak()});
    }
    return out;
  }

  /// Sum of peak bytes over all gauges (subsystem peaks need not coincide
  /// in time, so this upper-bounds the true simultaneous peak).
  [[nodiscard]] std::int64_t TotalPeakBytes() const {
    std::int64_t total = 0;
    for (const auto& [name, gauge] : gauges_) total += gauge->peak();
    return total;
  }

  /// Peak of one subsystem; 0 if never charged.
  [[nodiscard]] std::int64_t PeakBytes(std::string_view name) const {
    for (const auto& [k, gauge] : gauges_) {
      if (k == name) return gauge->peak();
    }
    return 0;
  }

 private:
  std::vector<std::pair<std::string, std::unique_ptr<MemoryGauge>>> gauges_;
};

}  // namespace sdn::util
