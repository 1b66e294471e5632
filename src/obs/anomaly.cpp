#include "obs/anomaly.hpp"

#include <algorithm>
#include <string>
#include <string_view>

#include "obs/manifest.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"

namespace sdn::obs {

const char* ToString(AnomalyRule rule) {
  switch (rule) {
    case AnomalyRule::kRoundTimeSpike:
      return "round_time_spike";
    case AnomalyRule::kAuxLaneStall:
      return "aux_lane_stall";
    case AnomalyRule::kMemoryJump:
      return "memory_jump";
    case AnomalyRule::kCertRegression:
      return "cert_regression";
    case AnomalyRule::kRecorderDropOnset:
      return "recorder_drop_onset";
  }
  return "?";
}

AnomalyEngine::AnomalyEngine(AnomalyOptions options, MetricsRegistry* registry,
                             const FlightRecorder* recorder)
    : options_(std::move(options)), registry_(registry), recorder_(recorder) {
  SDN_CHECK(options_.window >= 1);
  SDN_CHECK(options_.min_samples >= 1);
  SDN_CHECK(options_.spike_factor >= 1.0);
  hists_.reserve(kNumTracks);
  for (int t = 0; t < kNumTracks; ++t) {
    hists_.emplace_back(options_.window);
  }
  for (std::int64_t& r : last_fired_round_) r = -1;
  if (registry_ != nullptr) {
    // Firing depends on wall clock, so every instrument is
    // non-deterministic; registered up front for a stable exported series.
    total_counter_ =
        registry_->GetCounter("anomalies_total", /*deterministic=*/false);
    for (int r = 0; r < kNumAnomalyRules; ++r) {
      rule_counters_[r] = registry_->GetCounter(
          std::string("anomaly_") + ToString(static_cast<AnomalyRule>(r)),
          /*deterministic=*/false);
    }
  }
}

void AnomalyEngine::Observe(const RoundSignals& s,
                            std::span<const MemorySample> memory) {
  // Rule evaluation reads the windows *before* this round is folded in —
  // the round under test must not be its own baseline.
  const RollingHist& total_hist = hists_[kTotal];
  if (total_hist.count() >= options_.min_samples) {
    const std::int64_t p99 = total_hist.Quantile(0.99);
    const std::int64_t threshold =
        std::max(options_.spike_floor_ns,
                 static_cast<std::int64_t>(
                     options_.spike_factor * static_cast<double>(p99)));
    if (s.total_ns > threshold) {
      Fire(AnomalyRule::kRoundTimeSpike, s.round, s.total_ns, threshold,
           "round_total_ns");
    }
  }

  if (s.aux_wait_ns > options_.aux_stall_ns) {
    Fire(AnomalyRule::kAuxLaneStall, s.round, s.aux_wait_ns,
         options_.aux_stall_ns, "aux_lane_wait_ns");
  }

  for (const MemorySample& m : memory) {
    GaugeTrack* track = nullptr;
    for (GaugeTrack& g : gauges_) {
      // Pointer identity first (the engine passes the same literals every
      // round); the string compare only runs for exotic callers.
      if (g.subsystem == m.subsystem ||
          std::string_view(g.subsystem) == m.subsystem) {
        track = &g;
        break;
      }
    }
    if (track == nullptr) {
      gauges_.push_back({m.subsystem, m.bytes, 1});  // first sight: baseline
      continue;
    }
    // Judged against the gauge's own high-water mark, and only once the
    // gauge is past the warm-up: a level that oscillates below an earlier
    // peak (the live topology alternates between one and two spines every
    // era) or a buffer sizing itself in the first rounds is not a jump.
    if (track->samples >= options_.min_samples && track->peak_bytes > 0) {
      const std::int64_t threshold = std::max(
          options_.memory_jump_floor_bytes,
          static_cast<std::int64_t>(options_.memory_jump_factor *
                                    static_cast<double>(track->peak_bytes)));
      if (m.bytes - track->peak_bytes > threshold) {
        Fire(AnomalyRule::kMemoryJump, s.round, m.bytes,
             track->peak_bytes + threshold, m.subsystem);
      }
    }
    track->peak_bytes = std::max(track->peak_bytes, m.bytes);
    ++track->samples;
  }

  if (s.certified_T >= 0) {
    if (last_certified_T_ >= 0 && s.certified_T < last_certified_T_) {
      Fire(AnomalyRule::kCertRegression, s.round, s.certified_T,
           last_certified_T_, "certified_T");
    }
    last_certified_T_ = s.certified_T;
    if (!bad_window_seen_ && s.first_bad_window >= 0) {
      bad_window_seen_ = true;
      Fire(AnomalyRule::kCertRegression, s.round, s.first_bad_window, -1,
           "tinterval_first_bad_window");
    }
  }

  if (s.recorder_dropped > last_dropped_) {
    if (last_dropped_ == 0) {
      // Onset only: once the ring wraps it keeps wrapping every round; the
      // per-lane drop gauges carry the running count.
      Fire(AnomalyRule::kRecorderDropOnset, s.round,
           static_cast<std::int64_t>(s.recorder_dropped), 0,
           "recorder_dropped");
    }
    last_dropped_ = s.recorder_dropped;
  }

  hists_[kTopology].Observe(s.topology_ns);
  hists_[kValidate].Observe(s.validate_ns);
  hists_[kProbe].Observe(s.probe_ns);
  hists_[kSend].Observe(s.send_ns);
  hists_[kDeliver].Observe(s.deliver_ns);
  hists_[kTotal].Observe(s.total_ns);
  hists_[kAuxWait].Observe(s.aux_wait_ns);
}

void AnomalyEngine::Fire(AnomalyRule rule, std::int64_t round,
                         std::int64_t value, std::int64_t threshold,
                         const char* signal) {
  const auto r = static_cast<std::size_t>(rule);
  if (last_fired_round_[r] >= 0 &&
      round - last_fired_round_[r] <= options_.cooldown_rounds) {
    return;
  }
  last_fired_round_[r] = round;
  ++total_fired_;
  if (total_counter_ != nullptr) {
    total_counter_->Increment();
    rule_counters_[r]->Increment();
  }
  const AnomalyRecord record{rule, round, value, threshold, signal};
  if (static_cast<int>(records_.size()) < options_.max_records) {
    records_.push_back(record);
  }
  if (recorder_ != nullptr && dumps_written_ < options_.max_dumps) {
    WriteDump(record);
  }
}

void AnomalyEngine::WriteDump(const AnomalyRecord& record) {
  const std::string stem = options_.dump_dir + "/anomaly-" +
                           std::to_string(record.round) + "-" +
                           ToString(record.rule);
  RunManifest manifest = RunManifest::Collect();
  manifest.Set("anomaly_rule", ToString(record.rule));
  manifest.Set("anomaly_round", static_cast<long long>(record.round));
  manifest.Set("anomaly_signal", record.signal);
  manifest.Set("anomaly_value", static_cast<long long>(record.value));
  manifest.Set("anomaly_threshold", static_cast<long long>(record.threshold));
  manifest.Set("anomaly_dump_events",
               static_cast<long long>(recorder_->total_emitted() -
                                      recorder_->dropped()));
  // The dump is the recorder's retained window: by flight-recorder
  // semantics the freshest events survive, so the trigger round is inside
  // it (the engine fires on the observation side of the same round).
  if (recorder_->WriteJsonl(stem + ".jsonl", &manifest)) {
    manifest.WriteJson(stem + ".manifest.json");
    ++dumps_written_;
  }
}

}  // namespace sdn::obs
