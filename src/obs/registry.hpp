// Metrics registry: named Counter / Gauge / Histogram instruments.
//
// The registry is the aggregate side of sdn::obs — where the flight recorder
// keeps the *sequence* of what happened, the registry keeps totals and
// distributions, snapshotted into RunStats at the end of a run and rendered
// by RunStats::OneLine and the bench tables.
//
// Determinism contract: instruments are created with a `deterministic` flag.
// Deterministic metrics (message counts, rounds, merges) must be
// bit-identical across thread counts and with tracing on/off; ns-valued
// metrics are registered non-deterministic and excluded from determinism
// comparisons (MetricsSnapshot::Deterministic()).
//
// Histograms are log2-bucketed: value v lands in bucket bit_width(v), so 64
// fixed buckets cover the full non-negative int64 range with no
// configuration. Quantile() interpolates geometrically inside a bucket,
// which is the right shape for latency-like data.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sdn::obs {

enum class MetricKind : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

const char* ToString(MetricKind kind);

class Counter {
 public:
  void Add(std::int64_t delta) { value_ += delta; }
  void Increment() { ++value_; }
  [[nodiscard]] std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

class Gauge {
 public:
  void Set(std::int64_t value) { value_ = value; }
  [[nodiscard]] std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

class Histogram {
 public:
  void Observe(std::int64_t value);

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] std::int64_t sum() const { return sum_; }
  [[nodiscard]] std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::int64_t max() const { return count_ == 0 ? 0 : max_; }
  /// q in [0, 1]: geometric interpolation inside the rank's log2 bucket,
  /// clamped to the observed [min, max]. 0 when empty.
  [[nodiscard]] std::int64_t Quantile(double q) const;

 private:
  /// Bucket 0 holds exactly {0} (negatives clamp into it); bucket b >= 1
  /// holds [2^(b-1), 2^b - 1].
  static constexpr int kBuckets = 64;

  std::array<std::int64_t, kBuckets> buckets_{};
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// One instrument frozen at snapshot time. For counters/gauges only `value`
/// is meaningful; histograms carry the distribution summary.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  /// False for wall-clock-valued metrics: excluded from determinism
  /// comparisons (MetricsSnapshot::Deterministic).
  bool deterministic = true;
  std::int64_t value = 0;  // counter/gauge value; histogram count
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::int64_t p50 = 0;
  std::int64_t p95 = 0;

  friend bool operator==(const MetricSample&, const MetricSample&) = default;
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;  // registry insertion order

  [[nodiscard]] const MetricSample* Find(const std::string& name) const;
  /// The deterministic subset, for bit-identical-across-threads comparisons.
  [[nodiscard]] std::vector<MetricSample> Deterministic() const;
  /// Compact `name=value name2=p50/p95` rendering for log lines.
  [[nodiscard]] std::string OneLine() const;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

/// Insertion-ordered registry. Get* returns the existing instrument when the
/// name is already registered (the kind must match — SDN_CHECK otherwise).
/// Instruments are stable pointers for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, bool deterministic = true);
  Gauge* GetGauge(const std::string& name, bool deterministic = true);
  Histogram* GetHistogram(const std::string& name, bool deterministic = true);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] MetricsSnapshot Snapshot() const;

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    bool deterministic;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindEntry(const std::string& name);

  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace sdn::obs
