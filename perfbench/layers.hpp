// Per-layer instrumentation for the traced benchmark mode.
//
// Everything here lives on the benchmark's side of the public interfaces:
// a span log, a forwarding net::Adversary decorator, a forwarding node
// program around algo::HjswyProgram, and a replay of one run's topology
// stream through a benchmark-owned graph::DynGraph and
// graph::TIntervalChecker. None of it changes what the simulator computes;
// the traced mode proves that by comparing the wrapped engine's RunStats
// against the plain facade run of the same seed.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "algo/hjswy.hpp"
#include "graph/delta.hpp"
#include "graph/graph.hpp"
#include "net/adversary.hpp"
#include "net/program.hpp"

namespace perfbench {

namespace algo = sdn::algo;
namespace graph = sdn::graph;
namespace net = sdn::net;

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (the engine's own clock).
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer. `parent` indexes the enclosing span in the
/// same log (-1 for a root); spans of one run share `run`; `lane` is 0 for
/// the thread driving Step() and 1 for an engine auxiliary lane.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int32_t run = -1;
  std::int32_t lane = 0;

  [[nodiscard]] std::int64_t ns() const { return end_ns - start_ns; }
};

/// Spans of the traced invocation, kept in memory and written out once at
/// exit. Single writer: only the driving thread appends. A deque, so that
/// growing never copies the log between two Step() spans.
class SpanLog {
 public:
  int Begin(const char* name, int parent, int run) {
    spans_.push_back({name, NowNs(), 0, parent, run, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<std::size_t>(id)].end_ns = NowNs(); }
  int Add(const Span& s) {
    spans_.push_back(s);
    return static_cast<int>(spans_.size()) - 1;
  }
  [[nodiscard]] const Span& at(int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }
  /// Writes the spans as JSON ({"manifest": ..., "spans": [[name, start_ns,
  /// end_ns, parent, run, lane], ...]}); false when the file cannot be
  /// written.
  bool WriteJson(const std::string& path, const std::string& manifest_json,
                 const std::string& summary_json) const;

 private:
  std::deque<Span> spans_;
};

/// One round of an adaptive adversary's topology stream, as the engine
/// asked for it: a delta (DeltaFor) or the full sorted edge list
/// (RoundEdgesInto / TopologyFor).
struct CapturedRound {
  bool full = false;
  std::vector<graph::Edge> edges;
  graph::TopologyDelta delta;
};

/// Forwarding adversary decorator that times DeltaFor, RoundEdgesInto and
/// TopologyFor. Every virtual is forwarded — oblivious(), has_composition(),
/// Composition() and BufferBytes() included — so the engine takes the same
/// prefetch, fused-send and certification paths as with the bare
/// adversary. The engine calls the generator strictly one call at a time,
/// from the driving thread or its topology lane, so the span buffer has one
/// writer at a time; it is read only after the run, once the lanes joined.
class TracedAdversary final : public net::Adversary {
 public:
  /// `capture` keeps each round's stream for the graph-layer replay (used
  /// for adaptive adversaries, whose stream cannot be regenerated without
  /// the run's node state).
  TracedAdversary(net::Adversary& inner, bool capture);

  /// The step span the driving thread is in; parent of calls made inline.
  void set_step(int span_id) { step_.store(span_id, std::memory_order_relaxed); }

  [[nodiscard]] graph::NodeId num_nodes() const override {
    return inner_.num_nodes();
  }
  [[nodiscard]] int interval() const override { return inner_.interval(); }
  graph::Graph TopologyFor(std::int64_t round,
                           const net::AdversaryView& view) override;
  void DeltaFor(std::int64_t round, const net::AdversaryView& view,
                const graph::Graph& prev, graph::TopologyDelta& out) override;
  bool RoundEdgesInto(std::int64_t round, const net::AdversaryView& view,
                      std::vector<graph::Edge>& out) override;
  [[nodiscard]] bool has_composition() const override {
    return inner_.has_composition();
  }
  [[nodiscard]] const graph::RoundComposition* Composition(
      std::int64_t round) const override {
    return inner_.Composition(round);
  }
  [[nodiscard]] bool oblivious() const override { return inner_.oblivious(); }
  [[nodiscard]] std::int64_t BufferBytes() const override {
    return inner_.BufferBytes();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  /// Timed calls so far (parent = step span, or -1 for auxiliary-lane calls,
  /// which the caller re-parents to the run span).
  [[nodiscard]] const std::deque<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<CapturedRound>& stream() const {
    return stream_;
  }

 private:
  void Record(const char* name, std::int64_t start_ns);

  net::Adversary& inner_;
  const bool capture_;
  const std::thread::id stepping_thread_;
  std::atomic<int> step_{-1};
  std::deque<Span> spans_;
  std::vector<CapturedRound> stream_;
};

/// Program-call time of one OS thread. Charging the calling thread rather
/// than the node keeps sharded deliver threads off each other's counters
/// and tells the lanes apart (shards are work-stolen, so a node's lane
/// changes between rounds): the busiest slot bounds the deliver phase's
/// critical path.
struct alignas(64) LaneTime {
  std::int64_t receive_ns = 0;
  std::int64_t send_ns = 0;        // every OnSend/OnSendInto
  /// Round 1's sends, which run in the engine's send phase even when send
  /// is fused into deliver (fusion stages round r+1 from round r's deliver).
  std::int64_t first_send_ns = 0;
};

/// Per-thread LaneTime slots of the current traced run. Reset() between
/// runs, while no program call is in flight.
class LaneTimes {
 public:
  static LaneTimes& Get();

  /// Nanoseconds since `t0` (a NowNs() value) less the cost of the two
  /// clock reads themselves, so that sampled sums scaled up to every node
  /// do not scale the clock's own cost with them.
  [[nodiscard]] std::int64_t Since(std::int64_t t0) const {
    return std::max<std::int64_t>(0, NowNs() - t0 - clock_ns_);
  }
  LaneTime& Mine();
  void Reset();
  [[nodiscard]] std::vector<LaneTime> Snapshot();

 private:
  LaneTimes();  // calibrates clock_ns_

  std::int64_t clock_ns_ = 0;  // median of back-to-back NowNs() pairs
  std::atomic<std::uint64_t> epoch_{1};
  std::mutex mutex_;
  std::deque<LaneTime> slots_;  // stable addresses for the cached pointers
};

/// Forwarding node program around algo::HjswyProgram. A `timed` node clocks
/// every OnSend/OnSendInto/OnReceive call into the calling thread's
/// LaneTime; the others only forward. It keeps the inner program's
/// DirectSendProgram and ObservableProgram surface, so the engine still
/// fuses send into deliver where it would for the bare program.
class TracedProgram {
 public:
  using Message = algo::HjswyProgram::Message;
  using Output = algo::HjswyProgram::Output;

  TracedProgram(algo::HjswyProgram inner, bool timed)
      : inner_(std::move(inner)), timed_(timed) {}

  std::optional<Message> OnSend(net::Round r) {
    if (!timed_) return inner_.OnSend(r);
    const std::int64_t t0 = NowNs();
    std::optional<Message> m = inner_.OnSend(r);
    ChargeSend(r, t0);
    return m;
  }
  bool OnSendInto(net::Round r, Message& m) {
    if (!timed_) return inner_.OnSendInto(r, m);
    const std::int64_t t0 = NowNs();
    const bool sent = inner_.OnSendInto(r, m);
    ChargeSend(r, t0);
    return sent;
  }
  void OnReceive(net::Round r, net::Inbox<Message> inbox) {
    if (!timed_) {
      inner_.OnReceive(r, inbox);
      return;
    }
    const std::int64_t t0 = NowNs();
    inner_.OnReceive(r, inbox);
    LaneTimes& lanes = LaneTimes::Get();
    lanes.Mine().receive_ns += lanes.Since(t0);
  }
  [[nodiscard]] bool HasDecided() const { return inner_.HasDecided(); }
  [[nodiscard]] std::optional<Output> output() const { return inner_.output(); }
  [[nodiscard]] double PublicState() const { return inner_.PublicState(); }
  static std::size_t MessageBits(const Message& m) {
    return algo::HjswyProgram::MessageBits(m);
  }
  [[nodiscard]] net::ProgramPhase ObsPhase() const { return inner_.ObsPhase(); }

 private:
  static void ChargeSend(net::Round r, std::int64_t t0) {
    LaneTimes& lanes = LaneTimes::Get();
    const std::int64_t ns = lanes.Since(t0);
    LaneTime& lane = lanes.Mine();
    lane.send_ns += ns;
    if (r == 1) lane.first_send_ns += ns;
  }

  algo::HjswyProgram inner_;
  bool timed_;
};

static_assert(net::DirectSendProgram<TracedProgram>);
static_assert(net::ObservableProgram<TracedProgram>);

/// Graph-layer cost of one run's topology stream, replayed outside the
/// engine through a benchmark-owned DynGraph and TIntervalChecker.
struct GraphLayer {
  std::int64_t rounds = 0;
  std::int64_t apply_ns = 0;    // DynGraph::Apply or CommitEdges
  std::int64_t certify_ns = 0;  // PushComposition or PushDelta
  std::int64_t witness_rounds = 0;
  std::int64_t churn_edges = 0;  // Σ |delta| over the rounds
  std::int64_t topology_peak_bytes = 0;
  std::int64_t checker_peak_bytes = 0;
  std::int64_t certified_T = 0;
  bool ok = false;
};

/// Regenerates `rounds` rounds from a fresh oblivious adversary (built from
/// the same config and seed as the run's) and replays them. Certifies by
/// composition witness when the adversary offers one, as the engine does.
GraphLayer ReplayRegenerated(net::Adversary& fresh, std::int64_t rounds,
                             SpanLog& log, int parent, int run);

/// Replays a captured stream (adaptive adversaries), certifying on the
/// general delta path.
GraphLayer ReplayCaptured(const std::vector<CapturedRound>& stream,
                          graph::NodeId n, int T, SpanLog& log, int parent,
                          int run);

}  // namespace perfbench
