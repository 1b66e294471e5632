// Streaming trace adversary: replays a v2 (delta-encoded) trace file
// without ever materializing the round sequence.
//
// ReplayAdversary holds rounds · Graph in memory — fine for paired benches
// at small n, hopeless for million-node traces. This adversary is the
// O(E_round) alternative: it wraps a net::TraceStreamReader and serves the
// engine's DeltaFor calls straight from the file, so the only live graph
// state anywhere in the run is the engine's single DynGraph plus one reused
// record buffer. It is delta-native by construction: TopologyFor (the
// materializing path) is a contract violation and throws; the engine only
// ever calls DeltaFor.
//
// Rounds past the end of the recording repeat the final topology (empty
// deltas), matching ReplayAdversary, so algorithms can always terminate.
#pragma once

#include <string>

#include "net/adversary.hpp"
#include "net/trace.hpp"
#include "util/arena.hpp"

namespace sdn::adversary {

class StreamingTraceAdversary final : public net::Adversary {
 public:
  /// Opens `path` (CheckError on I/O failure or a non-v2 trace). When
  /// `budget` is non-null the adversary charges its live record-buffer
  /// bytes to the "trace_stream" gauge each round, so RunStats::memory
  /// exposes the O(E_round) bound tests pin. `budget` must outlive the
  /// adversary.
  explicit StreamingTraceAdversary(const std::string& path,
                                   util::MemoryBudget* budget = nullptr);

  [[nodiscard]] graph::NodeId num_nodes() const override;
  [[nodiscard]] int interval() const override;

  /// Throws CheckError: streaming replay has no per-round Graph to hand
  /// out. Use the delta engine path.
  graph::Graph TopologyFor(std::int64_t round,
                           const net::AdversaryView& view) override;

  /// Serves round `round` from the file: keyframe records are diffed
  /// against `prev` (one linear merge), delta records pass through, EOF
  /// repeats the final topology as empty deltas (CheckError if the trace
  /// has no rounds at all, as LoadTrace). Rounds must be requested
  /// strictly sequentially from 1 (the interface contract).
  void DeltaFor(std::int64_t round, const net::AdversaryView& view,
                const graph::Graph& prev, graph::TopologyDelta& out) override;

  [[nodiscard]] std::string name() const override;

  /// Largest single-round edge count seen so far (keyframe edge lists are
  /// exact; delta rounds track the running count). This is the E_round the
  /// streaming-memory bound is stated against.
  [[nodiscard]] std::int64_t max_round_edges() const {
    return max_round_edges_;
  }
  [[nodiscard]] std::int64_t rounds_served() const { return served_; }

 private:
  net::TraceStreamReader reader_;
  net::TraceStreamReader::Round record_;  // reused across rounds
  util::MemoryGauge* gauge_ = nullptr;
  std::int64_t served_ = 0;
  std::int64_t live_edges_ = 0;
  std::int64_t max_round_edges_ = 0;
  bool exhausted_ = false;
};

}  // namespace sdn::adversary
