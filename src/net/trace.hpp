// Topology trace files.
//
// A trace is a recorded dynamic-graph sequence plus the T it was generated
// under. Traces make failures reproducible across machines, allow paired
// algorithm comparisons on identical dynamics, and let external topology
// data (e.g. converted mobility traces) drive the simulator through
// ReplayAdversary or StreamingTraceAdversary.
//
// The format is delta-encoded text (line oriented, '#' comments allowed).
// Keyframe rounds (round 1, then every K rounds: r ≡ 1 (mod K)) carry the
// full edge list; every other round carries the delta against round r-1.
// Rounds are numbered 1..R strictly in order and the stream ends at EOF (no
// round count in the header, so the format can be written streamingly):
//   sdn-trace 2
//   nodes <N> interval <T> keyframe <K>
//   round <r> full <m>               (keyframe)
//   <u> <v>                          (m lines, sorted, u < v)
//   round <r> delta <a> <d>          (non-keyframe)
//   +<u> <v>                         (a added-edge lines, sorted)
//   -<u> <v>                         (d removed-edge lines, sorted)
//   ...
// Under the T-interval promise consecutive rounds differ by few edges, so
// deltas are much smaller than full lists; keyframes bound how much a
// reader must replay and make truncated files recoverable up to the last
// complete round. Version 1 (a full edge list every round) is no longer
// read or written.
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "graph/delta.hpp"
#include "graph/graph.hpp"

namespace sdn::net {

struct Trace {
  int interval = 1;
  std::vector<graph::Graph> rounds;

  [[nodiscard]] graph::NodeId num_nodes() const {
    return rounds.empty() ? 0 : rounds.front().num_nodes();
  }
};

struct TraceWriteOptions {
  /// Keyframe period K (round r is a keyframe iff r ≡ 1 mod K).
  std::int64_t keyframe_every = 64;
};

/// Writes the sequence; CheckError on I/O failure or empty/ragged input.
void SaveTrace(const std::string& path, std::span<const graph::Graph> rounds,
               int interval, TraceWriteOptions options = {});

/// Materializes every round of a trace file (TraceStreamReader records
/// replayed into one DynGraph); CheckError on malformed input or a trace
/// with no rounds.
Trace LoadTrace(const std::string& path);

/// Streaming reader: the dual of TraceRecorder. Rounds are parsed one at a
/// time with O(E_round) live state — one reused edge/delta buffer, never
/// the whole sequence — so a million-node trace can drive the engine
/// (StreamingTraceAdversary) with a topology footprint independent of the
/// number of rounds, where LoadTrace would materialize rounds · CSR.
class TraceStreamReader {
 public:
  /// What one parsed round carries: a full (sorted) edge list on keyframe
  /// rounds, a delta against round-1 otherwise. Buffers are reused across
  /// Next() calls.
  struct Round {
    std::int64_t round = 0;
    bool keyframe = false;
    std::vector<graph::Edge> full;  // keyframe rounds only
    graph::TopologyDelta delta;     // non-keyframe rounds only
  };

  /// Opens `path` and parses the header; CheckError on I/O failure, a
  /// malformed header, or any version other than 2 (the message names it).
  explicit TraceStreamReader(const std::string& path);

  [[nodiscard]] graph::NodeId num_nodes() const { return n_; }
  [[nodiscard]] int interval() const { return interval_; }
  [[nodiscard]] std::int64_t keyframe_every() const { return keyframe_every_; }

  /// Parses the next round into `out`; false at EOF. CheckError on
  /// anything malformed that one record shows on its own: round numbering,
  /// keyframe cadence, counts above n(n-1)/2, a record cut short, edge ids
  /// outside [0, n), self-loops, unsorted or duplicate edge lists, and
  /// delta signs out of order. Whether a delta fits the graph it applies
  /// to is validated by the consumer's DynGraph::Apply.
  bool Next(Round& out);

  [[nodiscard]] std::int64_t rounds_read() const { return rounds_; }

 private:
  std::ifstream in_;
  std::string path_;
  std::string line_;
  graph::NodeId n_ = 0;
  int interval_ = 1;
  std::int64_t keyframe_every_ = 1;
  std::int64_t max_edges_ = 0;  // n(n-1)/2: bound on any count in the file
  std::int64_t rounds_ = 0;
};

/// Streaming writer: rounds are appended one at a time and hit the file
/// as they arrive, so the engine can record arbitrarily long runs without
/// retaining the graph sequence in memory (EngineOptions::record_trace).
class TraceRecorder {
 public:
  /// Opens `path` and writes the header; CheckError on I/O failure.
  TraceRecorder(const std::string& path, graph::NodeId n, int interval,
                std::int64_t keyframe_every = 64);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Appends round rounds_written()+1, diffing against the previous round
  /// internally.
  void Push(const graph::Graph& g);

  /// Delta fast path: `g` is the round's topology, `delta` the delta that
  /// produced it from the previous round (exactly what the incremental
  /// engine already has in hand).
  void Push(const graph::Graph& g, const graph::TopologyDelta& delta);

  [[nodiscard]] std::int64_t rounds_written() const { return rounds_; }

  /// Flushes and closes; CheckError on I/O failure. Idempotent; the
  /// destructor closes too (swallowing errors, so call Close() when the
  /// file matters).
  void Close();

 private:
  std::ofstream out_;
  std::string path_;
  graph::NodeId n_;
  std::int64_t keyframe_every_;
  std::int64_t rounds_ = 0;
  std::vector<graph::Edge> prev_edges_;
  graph::TopologyDelta scratch_;
};

}  // namespace sdn::net
