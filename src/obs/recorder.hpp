// Flight recorder: a lock-free single-writer ring buffer of typed round
// events.
//
// The engine (and any harness) emits Events from one thread into a
// fixed-capacity ring, so emission is a bounded store with no locks, no
// syscalls, and no allocation once the ring has grown to its capacity —
// cheap enough to leave wired into Engine::Step. The sink is *off by
// default*: every emission site is gated on a null recorder pointer (the
// SDN_VERIFY_SORTED pattern applied to tracing), so a run without a
// recorder pays one predicted branch per phase and nothing else.
// Determinism tests pin that RunStats are bit-identical with the recorder
// attached or not.
//
// When the ring fills, the oldest events are overwritten (flight-recorder
// semantics: the most recent window of the run survives); the drop count is
// reported so a truncated trace is never mistaken for a complete one.
//
// Drain() returns the retained events in time order; WriteJsonl /
// WriteChromeTrace export them — the latter in the Chrome trace-event format
// that chrome://tracing and Perfetto load directly, with engine phases,
// an algorithm-phase track, probe instants, and counter tracks
// (docs/OBSERVABILITY.md documents both schemas).
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/events.hpp"

namespace sdn::obs {

struct RunManifest;

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  /// One ring of `capacity` events. The epoch (t = 0) is the moment of
  /// construction.
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Nanoseconds since the recorder epoch (for stamping Event::t_ns).
  [[nodiscard]] std::int64_t NowNs() const {
    return RelNs(std::chrono::steady_clock::now());
  }
  [[nodiscard]] std::int64_t RelNs(
      std::chrono::steady_clock::time_point tp) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch_)
        .count();
  }

  /// Appends `e`, overwriting the oldest event once the ring is full.
  /// Single writer: one thread emits at a time.
  void Emit(const Event& e);

  /// Events emitted / overwritten by wraparound.
  [[nodiscard]] std::uint64_t total_emitted() const { return emitted_; }
  [[nodiscard]] std::uint64_t dropped() const {
    return emitted_ > capacity_ ? emitted_ - capacity_ : 0;
  }

  /// All retained events, in t_ns order (emission order among equal
  /// stamps).
  [[nodiscard]] std::vector<Event> Drain() const;

  /// One JSON object per line: a `manifest` record first (when given), a
  /// `meta` record (event/drop counts), then one `event` record per event.
  void WriteJsonl(std::ostream& os, const RunManifest* manifest) const;
  /// False (and nothing written) if the file cannot be opened.
  bool WriteJsonl(const std::string& path,
                  const RunManifest* manifest = nullptr) const;

  /// Chrome trace-event JSON (`{"traceEvents": [...]}`), loadable in
  /// chrome://tracing and Perfetto: engine phases as complete ("X") spans on
  /// tid 0, the algorithm-phase track as spans on tid 1 (each kAlgoPhase
  /// transition lasting until the next), probe lifecycle as instants on
  /// tid 2, and sketch-merge / checker / bandwidth tracks as counter ("C")
  /// events. The manifest rides in `otherData`.
  void WriteChromeTrace(std::ostream& os, const RunManifest* manifest) const;
  bool WriteChromeTrace(const std::string& path,
                        const RunManifest* manifest = nullptr) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::size_t capacity_;
  std::vector<Event> ring_;  // capacity_ slots, written modulo capacity_
  std::uint64_t emitted_ = 0;
};

}  // namespace sdn::obs
