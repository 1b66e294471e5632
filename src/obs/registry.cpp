#include "obs/registry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.hpp"

namespace sdn::obs {

const char* ToString(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

namespace {

int BucketOf(std::int64_t value) {
  if (value <= 0) return 0;
  return static_cast<int>(std::bit_width(static_cast<std::uint64_t>(value)));
}

}  // namespace

void Histogram::Observe(std::int64_t value) {
  ++buckets_[static_cast<std::size_t>(BucketOf(value))];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

std::int64_t Histogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  std::int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::int64_t in_bucket = buckets_[static_cast<std::size_t>(b)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= target) {
      if (b == 0) return 0;
      // Geometric interpolation across the bucket's [2^(b-1), 2^b) span by
      // the rank's position inside it, clamped to the values observed.
      const double lo = std::ldexp(1.0, b - 1);
      const double frac = (target - static_cast<double>(seen)) /
                          static_cast<double>(in_bucket);
      const auto v =
          static_cast<std::int64_t>(std::llround(lo * std::pow(2.0, frac)));
      return std::clamp(v, min(), max());
    }
    seen += in_bucket;
  }
  return max();  // unreachable: the buckets hold count_ observations
}

const MetricSample* MetricsSnapshot::Find(const std::string& name) const {
  for (const MetricSample& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<MetricSample> MetricsSnapshot::Deterministic() const {
  std::vector<MetricSample> out;
  out.reserve(samples.size());
  for (const MetricSample& s : samples) {
    if (s.deterministic) out.push_back(s);
  }
  return out;
}

std::string MetricsSnapshot::OneLine() const {
  std::string out;
  for (const MetricSample& s : samples) {
    if (!out.empty()) out += ' ';
    out += s.name;
    out += '=';
    if (s.kind == MetricKind::kHistogram) {
      out += "p50:";
      out += std::to_string(s.p50);
      out += "/p95:";
      out += std::to_string(s.p95);
      out += "/n:";
      out += std::to_string(s.count);
    } else {
      out += std::to_string(s.value);
    }
  }
  return out;
}

MetricsRegistry::Entry* MetricsRegistry::FindEntry(const std::string& name) {
  for (auto& e : entries_) {
    if (e->name == name) return e.get();
  }
  return nullptr;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     bool deterministic) {
  if (Entry* e = FindEntry(name)) {
    SDN_CHECK(e->kind == MetricKind::kCounter);
    return e->counter.get();
  }
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->kind = MetricKind::kCounter;
  e->deterministic = deterministic;
  e->counter = std::make_unique<Counter>();
  Counter* out = e->counter.get();
  entries_.push_back(std::move(e));
  return out;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, bool deterministic) {
  if (Entry* e = FindEntry(name)) {
    SDN_CHECK(e->kind == MetricKind::kGauge);
    return e->gauge.get();
  }
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->kind = MetricKind::kGauge;
  e->deterministic = deterministic;
  e->gauge = std::make_unique<Gauge>();
  Gauge* out = e->gauge.get();
  entries_.push_back(std::move(e));
  return out;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         bool deterministic) {
  if (Entry* e = FindEntry(name)) {
    SDN_CHECK(e->kind == MetricKind::kHistogram);
    return e->histogram.get();
  }
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->kind = MetricKind::kHistogram;
  e->deterministic = deterministic;
  e->histogram = std::make_unique<Histogram>();
  Histogram* out = e->histogram.get();
  entries_.push_back(std::move(e));
  return out;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  snap.samples.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricSample s;
    s.name = e->name;
    s.kind = e->kind;
    s.deterministic = e->deterministic;
    switch (e->kind) {
      case MetricKind::kCounter:
        s.value = e->counter->value();
        break;
      case MetricKind::kGauge:
        s.value = e->gauge->value();
        break;
      case MetricKind::kHistogram:
        s.value = e->histogram->count();
        s.count = e->histogram->count();
        s.sum = e->histogram->sum();
        s.min = e->histogram->min();
        s.max = e->histogram->max();
        s.p50 = e->histogram->Quantile(0.50);
        s.p95 = e->histogram->Quantile(0.95);
        break;
    }
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

}  // namespace sdn::obs
