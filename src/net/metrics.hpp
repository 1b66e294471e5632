// Execution metrics reported by the engine.
//
// Round complexity is the headline number (round in which the last node
// decides). Message and bit counts make the bandwidth experiment (T6) honest,
// the flooding summary records the d the run was measured against, and the
// timing breakdown (EngineTimings) records where the simulator's own wall
// clock went so perf regressions are visible run to run (docs/PERF.md).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/flooding.hpp"
#include "obs/anomaly.hpp"
#include "obs/registry.hpp"

namespace sdn::net {

/// Per-run wall-clock breakdown of Engine::Step(), in nanoseconds.
/// total_ns covers the whole step and the named phases partition it
/// *exactly*: other_ns is the residual (shard-merge reductions, stats
/// bookkeeping, prefetch launches, event emission — everything between the
/// named phase windows), computed per round as total minus the named
/// phases, so topology + validate + probe + send + deliver + other ==
/// total always holds (the engine debug-asserts it). Collected with
/// steady_clock reads per phase — a few tens of ns per round, negligible
/// against the O(E) round work.
struct EngineTimings {
  /// Topology window: the adversary call when it runs inline, else the
  /// prefetch join wait, plus the CSR commit, the memory gauge updates and
  /// the trace push.
  std::int64_t topology_ns = 0;
  std::int64_t validate_ns = 0;  ///< streaming T-interval checker
  std::int64_t probe_ns = 0;     ///< flooding-time probes
  std::int64_t send_ns = 0;      ///< OnSend + bandwidth accounting
  std::int64_t deliver_ns = 0;   ///< inbox gather + OnReceive
  std::int64_t other_ns = 0;     ///< residual: merges, bookkeeping, tracing
  std::int64_t total_ns = 0;     ///< sum of all Step() wall time

  /// Work executed on the engine's auxiliary lane, *off* the critical
  /// path (the pipelined engine, docs/PERF.md "Pipelining"). These windows
  /// run concurrently with the named phases above and are deliberately
  /// outside the partition identity: total_ns stays the critical-path wall
  /// time, and aux_* record how much phase work the overlap hid. When
  /// prefetch is active, topology_ns shrinks to the join wait and the build
  /// cost moves here; likewise validate_ns when the lane certifies. Sum
  /// of phases = total_ns + aux_topology_ns + aux_validate_ns; overlap
  /// efficiency = that sum / total_ns (>= 1; 1.0 = no overlap happened).
  std::int64_t aux_topology_ns = 0;  ///< lane: next round's build
  std::int64_t aux_validate_ns = 0;  ///< lane: checker pushes

  [[nodiscard]] double TotalSeconds() const;
  /// Engine throughput; 0 when no time was recorded yet.
  [[nodiscard]] double RoundsPerSec(std::int64_t rounds) const;
  [[nodiscard]] double EdgesPerSec(std::int64_t edges) const;
  [[nodiscard]] std::string OneLine(std::int64_t rounds,
                                    std::int64_t edges) const;
};

/// First bandwidth-budget violation of a run, attributed to the node and
/// round that produced the over-budget message. The engine records it (in
/// deterministic node order within the round), marks the run finished, and
/// throws CheckError from Step() — so RunTrials can attribute the failure
/// to a seed while the violation stays inspectable in the stats snapshot.
struct BandwidthViolation {
  graph::NodeId node = -1;
  std::int64_t round = -1;
  /// Encoded size of the offending message (> RunStats::bit_limit).
  std::int64_t bits = 0;
};

/// One subsystem's byte accounting in RunStats (from util::MemoryBudget).
struct MemoryUse {
  std::string subsystem;
  std::int64_t current_bytes = 0;
  std::int64_t peak_bytes = 0;
};

struct RunStats {
  /// Rounds actually executed (= last decide round when all_decided).
  std::int64_t rounds = 0;
  bool all_decided = false;
  /// The run was cut off by EngineOptions::max_rounds with nodes still
  /// undecided. Such a run's `rounds` is a truncation artifact, not a
  /// complexity measurement — harnesses must not plot it as one.
  bool hit_max_rounds = false;
  std::int64_t first_decide_round = -1;
  std::int64_t last_decide_round = -1;
  /// Per-node decide round; -1 if the node never decided.
  std::vector<std::int64_t> decide_round;

  /// One "message" = one local broadcast by one node in one round.
  std::int64_t messages_sent = 0;
  /// Broadcasts per node (message complexity distribution; a node's silent
  /// rounds = rounds - sends_per_node[u]).
  std::vector<std::int64_t> sends_per_node;
  std::int64_t total_message_bits = 0;
  std::int64_t max_message_bits = 0;
  /// The enforced per-message budget (INT64_MAX when unbounded).
  std::int64_t bit_limit = 0;
  /// Set when a message exceeded bit_limit; the run is failed (see
  /// BandwidthViolation). The violating round's sends are still counted.
  std::optional<BandwidthViolation> bandwidth_violation;

  /// Σ_r |E_r|: undirected edges the engine processed across the run.
  std::int64_t edges_processed = 0;
  /// (message, receiver) pairs delivered — the zero-copy gather count.
  std::int64_t messages_delivered = 0;

  /// Engine-side verification that the adversary kept its promise.
  /// tinterval_ok is only meaningful when tinterval_validated is true;
  /// with validation off the engine reports ok vacuously and flags it here.
  bool tinterval_ok = true;
  bool tinterval_validated = false;
  /// Largest T' <= T the observed round stream actually satisfied
  /// (TIntervalChecker::certified_T): T while the promise held, the
  /// observed level after a violation, 0 when unvalidated (no claim).
  std::int64_t certified_T = 0;
  /// First complete window (0-based start round index) whose intersection
  /// was disconnected; -1 while the promise holds or unvalidated.
  std::int64_t tinterval_first_bad_window = -1;
  /// Minimum stable-forest size over complete windows (n-1 while ok);
  /// -1 when unvalidated.
  std::int64_t min_stable_forest = -1;

  FloodingSummary flooding;

  EngineTimings timings;

  /// Peak bytes per engine subsystem (util::MemoryBudget snapshot):
  /// "outbox" (message slots + sent flags), "programs" (node state array),
  /// "topology" (live CSR + delta buffer), plus caller-charged subsystems
  /// ("sketch_pool", "trace_stream") when the run shares a budget through
  /// EngineOptions::memory_budget. Every charged size is a pure function
  /// of n and the topology stream — deterministic across thread counts
  /// and delivery backings, unlike wall-clock timings.
  std::vector<MemoryUse> memory;

  /// Registry snapshot (EngineOptions::collect_metrics): per-round
  /// histograms and named counters mirroring the scalar fields above.
  /// Empty unless collection was on. ns-valued entries are flagged
  /// non-deterministic; everything else is bit-identical at any thread
  /// count and with tracing on or off.
  obs::MetricsSnapshot metrics;

  /// Anomaly records fired by the always-on anomaly plane
  /// (EngineOptions::anomaly, requires collect_metrics), bounded by
  /// AnomalyOptions::max_records. No rule reads a wall time, but the
  /// certification rule samples the checker only when it runs
  /// synchronously, so the records can differ across thread counts and
  /// are not part of the deterministic comparison surface.
  std::vector<obs::AnomalyRecord> anomalies;

  /// Flight-recorder events lost to ring wraparound (0 when no recorder
  /// was attached). A nonzero value means the trace covers only the most
  /// recent window of the run.
  std::uint64_t recorder_dropped = 0;

  [[nodiscard]] double AvgBitsPerMessage() const;
  /// Total bits divided by (nodes × rounds): per-node per-round bandwidth.
  [[nodiscard]] double BitsPerNodeRound(std::int64_t num_nodes) const;
  [[nodiscard]] std::string OneLine() const;
};

}  // namespace sdn::net
