// Arena allocation and per-subsystem memory accounting.
//
// Million-node runs live or die on allocation behavior: one Engine round at
// n = 2^20 touches a ~200 MB outbox, a multi-hundred-MB sketch pool and a
// CSR topology, and the difference between "one contiguous block charged to
// a named budget" and "a million individually-tracked vectors" is both the
// cache behavior of the hot loops and the ability to say where the bytes
// went. Two pieces:
//
//   * Arena — a chunked bump allocator for engine-lifetime arrays (outbox
//     slots, sent flags). Allocation is pointer arithmetic; nothing is ever
//     freed individually (the arena releases every chunk at destruction).
//     Callers that place non-trivially-destructible objects must destroy
//     them before the arena dies (Engine's destructor does).
//
//   * MemoryBudget — named gauges recording current and peak bytes per
//     subsystem ("outbox", "sketch_pool", "topology", ...). The engine
//     charges its deterministic allocations here and snapshots the gauges
//     into RunStats::memory, so every run reports its footprint breakdown
//     and bench_scale/CI can gate bytes-per-node at scale. Only
//     deterministic quantities are charged (sizes that are pure functions
//     of n and the topology stream) — backing-dependent scratch (the
//     per-shard gather buffers) is excluded so RunStats stays bit-identical
//     across thread counts and backings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace sdn::util {

/// Chunked bump allocator. Not thread-safe (one owner per arena — the
/// engine allocates only from the driving thread, outside the parallel
/// phases). Every chunk is max-aligned for alignas(64) message slots.
class Arena {
 public:
  explicit Arena(std::size_t chunk_bytes = std::size_t{1} << 20)
      : chunk_bytes_(chunk_bytes) {
    SDN_CHECK(chunk_bytes >= 64);
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    for (Chunk& c : chunks_) {
      ::operator delete(c.data, std::align_val_t{kChunkAlign});
    }
  }

  /// Raw allocation; `align` must be a power of two <= 64. Oversized
  /// requests get a dedicated chunk, so arbitrarily large arrays work.
  void* Allocate(std::size_t bytes, std::size_t align) {
    SDN_CHECK(align > 0 && align <= kChunkAlign &&
              (align & (align - 1)) == 0);
    if (bytes == 0) bytes = 1;
    if (chunks_.empty() || !Fits(chunks_.back(), bytes, align)) {
      NewChunk(std::max(bytes, chunk_bytes_));
    }
    Chunk& c = chunks_.back();
    const std::size_t offset = (c.used + align - 1) & ~(align - 1);
    c.used = offset + bytes;
    bytes_allocated_ += bytes;
    return static_cast<std::byte*>(c.data) + offset;
  }

  /// Default-constructed array of `count` T. The arena never runs element
  /// destructors — callers owning non-trivially-destructible T must destroy
  /// the elements themselves before the arena is destroyed.
  template <typename T>
  std::span<T> MakeArray(std::size_t count) {
    static_assert(alignof(T) <= kChunkAlign);
    T* p = static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
    for (std::size_t i = 0; i < count; ++i) new (p + i) T();
    return {p, count};
  }

  /// Bytes handed out (excluding alignment padding).
  [[nodiscard]] std::size_t bytes_allocated() const {
    return bytes_allocated_;
  }
  /// Bytes reserved from the system across all chunks.
  [[nodiscard]] std::size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  static constexpr std::size_t kChunkAlign = 64;

  struct Chunk {
    void* data = nullptr;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static bool Fits(const Chunk& c, std::size_t bytes, std::size_t align) {
    const std::size_t offset = (c.used + align - 1) & ~(align - 1);
    return offset + bytes <= c.size;
  }

  void NewChunk(std::size_t bytes) {
    Chunk c;
    c.data = ::operator new(bytes, std::align_val_t{kChunkAlign});
    c.size = bytes;
    chunks_.push_back(c);
    bytes_reserved_ += bytes;
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t bytes_allocated_ = 0;
  std::size_t bytes_reserved_ = 0;
};

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
