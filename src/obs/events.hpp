// Typed round events for the flight recorder (docs/OBSERVABILITY.md).
//
// An Event is a fixed-size POD record: one engine phase span, one
// algorithm-phase transition, one probe lifecycle step, one checker window
// update, or one counter sample. Events are meaningful only relative to the
// run that emitted them (rounds, relative timestamps); the run manifest
// (obs/manifest.hpp) supplies the provenance that makes a trace file
// self-describing.
//
// `label` must point at a string with static storage duration (phase names,
// algorithm-phase labels) — the recorder stores the pointer, not a copy, so
// emission never allocates.
#pragma once

#include <cstdint>

namespace sdn::obs {

enum class EventKind : std::uint8_t {
  /// One engine phase of one round (topology/validate/probe/send/deliver):
  /// label = phase name, t_ns..t_ns+dur_ns the span.
  kPhase = 0,
  /// The run's algorithm-phase track changed (sampled from node 0's
  /// NodeProgram phase-label hook): label = new phase label, a = phase
  /// ordinal. Spans are reconstructed at export time (each transition lasts
  /// until the next one).
  kAlgoPhase = 1,
  /// A flooding probe started spreading: a = probe slot, b = source node.
  kProbeSpawn = 2,
  /// A flooding probe reached every node: a = probe slot,
  /// b = completion rounds (one sample of d).
  kProbeComplete = 3,
  /// Estimator sketch-merge progress: a = cumulative merges across all
  /// nodes, b = merges this round.
  kSketchMerge = 4,
  /// Streaming T-interval checker state after this round: a = stable
  /// (aged-into-every-window) edge count, or -1 on the witness path, which
  /// certifies windows without materializing their intersection;
  /// b = 1 while the promise holds, c = certified-T (largest T' the
  /// observed stream satisfies so far).
  kCheckerWindow = 5,
  /// The per-message bit high-water mark rose: a = new max message bits.
  kBandwidthHighWater = 6,
  /// A message exceeded the bandwidth budget (the run is failed):
  /// a = offending bits, b = offending node.
  kBandwidthViolation = 7,
  /// Generic named counter sample: label = counter name, a = value.
  kCounter = 8,
};

/// Stable lowercase name for JSONL/trace export.
const char* ToString(EventKind kind);

struct Event {
  EventKind kind = EventKind::kCounter;
  /// Engine round the event belongs to (0 = before round 1).
  std::int64_t round = 0;
  /// Nanoseconds since the recorder's epoch (FlightRecorder::RelNs).
  std::int64_t t_ns = 0;
  /// Span length; 0 for instant events.
  std::int64_t dur_ns = 0;
  /// Kind-specific payload (see EventKind).
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;
  /// Static-storage-duration label (never owned, never freed).
  const char* label = "";
};

}  // namespace sdn::obs
