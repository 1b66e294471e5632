// Anomaly engine: declarative trigger rules over round signals the host
// cannot fake.
//
// The flight recorder (obs/recorder.hpp) only helps if a human remembers to
// attach it and stare at the trace. The anomaly engine is the always-on
// counterpart: the engine feeds it one RoundSignals record per round (on the
// observation side of Step(), after the final clock read), and a small set
// of declarative rules fire typed AnomalyRecords when the run misbehaves:
//
//   rule                  | signal                   | trigger
//   ----------------------|--------------------------|--------------------------
//   kMemoryJump           | per-gauge high-water     | level > mark + factor x
//                         | mark                     | mark (and a byte floor),
//                         |                          | after min_samples
//   kCertRegression       | certified-T / bad window | certified-T drops, or the
//                         |                          | first bad window appears
//   kRecorderDropOnset    | recorder drop counter    | drops start (ring wrapped)
//
// Every signal is a count or a byte size the run determines; none is a wall
// time. Phase wall times live in the registry's round_<phase>_ns
// histograms and the recorder's phase spans, where a slow round is visible
// without a rule that a busy host can trip.
//
// Records are bounded (max_records) and per-rule cooldowns stop a stuck run
// from flooding the list. When a FlightRecorder is attached, each firing
// also writes a bounded dump — `anomaly-<round>-<rule>.jsonl` (the
// recorder's retained window, which by flight-recorder semantics brackets
// the trigger) plus a sibling `.manifest.json` naming the rule, round,
// observed value and threshold — up to max_dumps per run.
//
// Observation-never-feeds-back: the engine consults nothing here; RunStats
// minus the anomaly/metrics fields is bit-identical with the plane on or
// off (test_determinism pins it). The registry counters the plane creates
// are flagged non-deterministic: certification state is sampled only when
// the checker is synchronous, so whether a rule can see a regression
// depends on the thread count (a pooled run certifies on its lane).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace sdn::obs {

class FlightRecorder;
class MetricsRegistry;
class Counter;

enum class AnomalyRule : std::uint8_t {
  kMemoryJump = 0,
  kCertRegression = 1,
  kRecorderDropOnset = 2,
};
inline constexpr int kNumAnomalyRules = 3;

/// Stable lowercase snake_case name (metric suffixes, dump file names).
const char* ToString(AnomalyRule rule);

/// One rule firing. `signal` names what crossed the threshold and must
/// point at a string with static storage duration (same contract as
/// Event::label — the record never owns or frees it).
struct AnomalyRecord {
  AnomalyRule rule = AnomalyRule::kMemoryJump;
  std::int64_t round = 0;
  std::int64_t value = 0;      ///< observed signal value
  std::int64_t threshold = 0;  ///< armed threshold it crossed
  const char* signal = "";

  friend bool operator==(const AnomalyRecord&, const AnomalyRecord&) = default;
};

struct AnomalyOptions {
  /// kMemoryJump arms for a gauge only after it has been sampled this many
  /// times (buffers size themselves in the first rounds).
  int min_samples = 8;
  /// kMemoryJump: a gauge level above its own high-water mark by more than
  /// memory_jump_factor x that mark ...
  double memory_jump_factor = 0.5;
  /// ... and > this many bytes (1 MiB default), so tiny-run gauges
  /// rounding up a chunk don't fire.
  std::int64_t memory_jump_floor_bytes = std::int64_t{1} << 20;
  /// Rounds a rule stays silent after firing (flood control).
  int cooldown_rounds = 64;
  /// Bound on stored AnomalyRecords (counters keep counting past it).
  int max_records = 64;
  /// Bound on flight-recorder dumps written per run.
  int max_dumps = 4;
  /// Directory for anomaly-<round>-<rule>.jsonl dumps.
  std::string dump_dir = ".";
};

/// One round's signals, sampled by the engine after the final clock read.
struct RoundSignals {
  std::int64_t round = 0;
  /// Checker state, when readable this round (synchronous checker only);
  /// -1 = not sampled — the rule skips, it never treats it as a drop.
  std::int64_t certified_T = -1;
  std::int64_t first_bad_window = -1;
  /// FlightRecorder::dropped() when a recorder is attached, else 0.
  std::uint64_t recorder_dropped = 0;
};

/// One memory gauge's level this round. `subsystem` must have static
/// storage duration (the engine passes its gauge-name literals).
struct MemorySample {
  const char* subsystem = "";
  std::int64_t bytes = 0;
};

class AnomalyEngine {
 public:
  /// `registry` (optional) receives non-deterministic counters —
  /// `anomalies_total` plus one `anomaly_<rule>` per rule — registered up
  /// front so exporters see a stable series even before anything fires.
  /// `recorder` (optional) enables dump-on-fire. Both must outlive the
  /// engine.
  AnomalyEngine(AnomalyOptions options, MetricsRegistry* registry,
                const FlightRecorder* recorder);

  AnomalyEngine(const AnomalyEngine&) = delete;
  AnomalyEngine& operator=(const AnomalyEngine&) = delete;

  /// Feeds one round: evaluates every rule against it.
  void Observe(const RoundSignals& signals,
               std::span<const MemorySample> memory);

  [[nodiscard]] const std::vector<AnomalyRecord>& records() const {
    return records_;
  }
  /// Total rule firings, including those past max_records.
  [[nodiscard]] std::int64_t total_fired() const { return total_fired_; }
  [[nodiscard]] int dumps_written() const { return dumps_written_; }
  [[nodiscard]] const AnomalyOptions& options() const { return options_; }

 private:
  void Fire(AnomalyRule rule, std::int64_t round, std::int64_t value,
            std::int64_t threshold, const char* signal);
  void WriteDump(const AnomalyRecord& record);

  struct GaugeTrack {
    const char* subsystem;
    std::int64_t peak_bytes;  // high-water mark of the levels seen
    int samples;
  };

  AnomalyOptions options_;
  MetricsRegistry* registry_;
  const FlightRecorder* recorder_;
  std::vector<GaugeTrack> gauges_;  // per-subsystem high-water marks
  std::vector<AnomalyRecord> records_;
  std::int64_t total_fired_ = 0;
  std::int64_t last_fired_round_[kNumAnomalyRules];  // cooldown state
  Counter* total_counter_ = nullptr;
  Counter* rule_counters_[kNumAnomalyRules] = {};
  std::int64_t last_certified_T_ = -1;
  bool bad_window_seen_ = false;
  std::uint64_t last_dropped_ = 0;
  int dumps_written_ = 0;
};

}  // namespace sdn::obs
