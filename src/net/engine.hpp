// The lock-step round engine.
//
// One Engine executes one algorithm instance (a vector of node programs)
// against one adversary. Per round it:
//   1. asks the adversary for G_r (and streams it through the T-interval
//      checker and the flooding probes),
//   2. collects every node's OnSend message, enforcing the bandwidth budget,
//   3. delivers to each node the messages of its G_r-neighbors,
//   4. records decisions.
// The run ends when every node has decided or `max_rounds` is hit (the
// latter sets RunStats::hit_max_rounds so truncated runs are never mistaken
// for fast convergence).
//
// The engine is templated on the node-program type so messages are plain
// typed values (no serialization on the hot path); bit accounting goes
// through the program's static MessageBits, which must report the size an
// actual encoding would spend.
//
// Delivery is zero-copy: each round's messages live once in the reusable
// raw outbox (one Message per node plus a sent-flag byte array — silentness
// lives outside the message, so the gather never touches message cache
// lines). Programs satisfying DirectSendProgram compose their message in
// place in the outbox slot; others go through OnSend's optional-return path
// with one move into the slot. On rounds where every node sent, each
// receiver's Inbox can be the topology's own CSR neighbor-id span indexing
// the outbox directly — no per-receiver gather at all; rounds with silent
// nodes use the sparse path, an Inbox of pointers gathered from the flagged
// slots. EngineOptions::delivery = kGather forces the sparse path on every
// round. Both paths software-prefetch each receiver's message cache lines
// ahead of its OnReceive (the outbox reads are data-dependent scatters the
// hardware prefetcher cannot predict). Results are bit-identical across
// backings (pinned by tests).
//
// Timing has one source: Step() reads the clock once at each phase boundary
// into one per-round record (RoundClock). On every exit of Step(), aborts
// included, CloseRound hands the same durations to RunStats::timings, the
// registry's round_<phase>_ns histograms and the recorder's phase spans.
//
// Topology: one in-place DynGraph holds the live round. The adversary
// writes each round's whole edge list straight into the DynGraph's edit
// buffer (RoundEdgesInto) whenever it supports that, and the engine derives
// the delta with one DiffSorted only when a consumer (the delta-driven
// checker, a trace recorder) needs it. An adversary without RoundEdgesInto
// emits the TopologyDelta itself (DeltaFor; the base class diffs
// TopologyFor against the previous round) and the DynGraph applies it.
//
// EngineOptions::threads decides the rest. One resolved thread, or n below
// twice the sharding floor, runs the serial engine: every phase in turn on
// the calling thread, a barrier between phases. Otherwise the run is on the
// pool. The send and deliver phases are embarrassingly parallel over nodes
// — OnSend(u) touches only node u and its outbox slot, OnReceive(u) reads
// the shared outbox (immutable during the phase) and mutates only node u —
// so both run on the shared work-stealing pool over contiguous node
// *shards* whose boundaries depend only on n; each shard fills its own
// accumulator, merged in shard (= ascending node) order after the phase.
// Every merged quantity is either per-node or an order-independent integer
// reduction, so results are bit-identical at any thread count (docs/PERF.md
// spells out the argument).
//
// A pooled run also hides the rest of the round behind deliver, its long
// pole, with three overlaps (docs/PERF.md "Pipelining"); each engages
// exactly when its own precondition holds (EnsureStarted). The first two
// share one persistent auxiliary lane (util::AuxLane) that takes one task
// per round, submitted as the validate window closes and joined at the top
// of the next Step() and by stats(). (1) Certification on the lane — the
// task streams round r through the T-interval checker in place, against
// the live topology and the adversary's composition claim or delta_, none
// of which change before the join. (2) Topology prefetch — for oblivious
// adversaries the task then computes round r+1's delta/edge list; calls
// stay sequential and in round order, so the produced graph sequence is
// unchanged. The view's prefetches_topology() reports this, and a spine
// adversary then prepares each era one era ahead on a helper lane of its
// own. (3) Fused send/deliver — DirectSendProgram nodes compose round r+1's
// message right after their round-r OnReceive, into the inactive half of a
// double-buffered outbox; the buffers flip in round r+1's send window,
// after validate/probes, so an abort discards the staged round and the
// books match the serial engine's exactly. test_determinism pins pooled
// RunStats against the serial engine's; EngineTimings::aux_*_ns report the
// overlapped work.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "graph/delta.hpp"
#include "graph/tinterval.hpp"
#include "net/adversary.hpp"
#include "net/bandwidth.hpp"
#include "net/metrics.hpp"
#include "net/program.hpp"
#include "net/trace.hpp"
#include "obs/anomaly.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sdn::net {

struct EngineOptions {
  std::int64_t max_rounds = 2'000'000;
  BandwidthPolicy bandwidth = BandwidthPolicy::Unbounded();
  /// Verify the adversary's T-interval promise while running. When off, no
  /// checker is even constructed and RunStats::tinterval_validated is false
  /// (tinterval_ok is then vacuous, not a verified promise).
  bool validate_tinterval = true;
  /// Stop the run at the first T-interval violation: the engine records
  /// the violating window in RunStats::tinterval_first_bad_window, marks
  /// the run finished and throws CheckError from Step() — same shape as a
  /// bandwidth violation. Off by default: the checker keeps streaming and
  /// the verdict lands in RunStats at the end.
  bool fail_fast_on_tinterval = false;
  /// Number of concurrent flooding probes (node 0 plus random sources) used
  /// to measure d alongside the run. 0 disables measurement. Probe start
  /// rounds are staggered: when a probe completes at round c, its slot
  /// relaunches from a fresh random source at round 2c, so d is sampled at
  /// geometrically spaced start rounds across the whole run (DESIGN.md §1
  /// defines d as a max over sampled start rounds — measuring only from
  /// round 1 underestimates d on adversaries that degrade over time).
  int flood_probes = 4;
  std::uint64_t probe_seed = 0x5eedULL;
  /// Engine threads: 0 = hardware concurrency, 1 = the serial engine (every
  /// phase on the calling thread, a barrier between phases, no overlap).
  /// k > 1 with n >= 128 (two shards) puts the run on the shared
  /// work-stealing pool: send, deliver and the topology's CSR fill run
  /// sharded, with the shards pre-split into k lane blocks, and each of the
  /// three overlaps (topology prefetch, certification on the auxiliary
  /// lane, fused send/deliver) engages where its precondition holds. k is
  /// not a thread cap: every idle pool worker joins and steals
  /// (ThreadPool::ParallelFor). Results are bit-identical at any setting;
  /// only RunStats::timings, which measure wall clock, differ.
  int threads = 0;
  /// Inbox backing for all-sent rounds (see DeliveryMode). Results are
  /// bit-identical across modes (tests pin it) — only wall clock differs,
  /// so kGather is the dense path's test reference.
  DeliveryMode delivery = DeliveryMode::kDense;
  /// Kept only while perfbench assigns it; no branch reads it; false throws.
  bool incremental_topology = true;
  /// Kept only while perfbench assigns it; no branch reads it; false throws.
  bool prefetch_topology = true;
  /// Kept only while perfbench assigns it; no branch reads it; false throws.
  bool async_certification = true;
  /// Kept only while perfbench assigns it; no branch reads it; false throws.
  bool fused_send_deliver = true;
  /// When set, every round's topology is streamed into this delta-encoded
  /// v2 trace writer (net/trace.hpp) — recording without retaining the
  /// graph sequence in memory. Must outlive the engine; the engine does not
  /// Close() it.
  TraceRecorder* record_trace = nullptr;
  /// Flight recorder for round events (phase spans, algorithm-phase
  /// transitions, probe lifecycle, sketch merges, checker windows,
  /// bandwidth high-water marks). Null = the sink is off and every
  /// emission site reduces to one predicted branch — the zero-overhead
  /// default. Must outlive the engine. Events are emitted outside the
  /// timed phase windows and RunStats stays bit-identical with the
  /// recorder attached or not (test_determinism pins it).
  obs::FlightRecorder* recorder = nullptr;
  /// Collect per-round histograms (edges, deliveries, every phase's
  /// latency and the auxiliary lane's join wait) into a metrics registry
  /// snapshotted as RunStats::metrics. Off by default; like the recorder,
  /// off costs one branch per round.
  bool collect_metrics = false;
  /// Always-on anomaly plane: feed every round's memory gauges,
  /// certification state and recorder drop count through
  /// obs::AnomalyEngine (three declarative rules; no wall-clock signal).
  /// Fired records land in RunStats::anomalies; when a flight recorder is
  /// attached each firing also dumps a bounded
  /// `anomaly-<round>-<rule>.jsonl` snapshot. Engages only together with
  /// collect_metrics (the plane lives behind the same registry gate) and,
  /// like every sink, runs after the round's final clock read — the
  /// deterministic core of RunStats is bit-identical on or off.
  bool anomaly = true;
  obs::AnomalyOptions anomaly_options{};
  /// Byte-accounting sink for the engine's deterministic allocations
  /// (outbox slots, program array, live topology). Null = the engine uses
  /// an internal budget, so RunStats::memory is populated either way; pass
  /// one to aggregate engine charges with caller-side subsystems (sketch
  /// pool, trace stream) under a single budget. Must outlive the engine.
  /// Only size-deterministic subsystems are charged — backing-dependent
  /// scratch (the per-shard gather buffers) is excluded, so every gauge is
  /// identical across thread counts and delivery backings except the
  /// outbox, which a fusing (pooled) run doubles.
  util::MemoryBudget* memory_budget = nullptr;
};

template <NodeProgram A>
class Engine final : private AdversaryView {
 public:
  Engine(std::vector<A> nodes, Adversary& adversary, EngineOptions options)
      : nodes_(std::move(nodes)),
        adversary_(adversary),
        options_(options),
        n_(static_cast<graph::NodeId>(nodes_.size())),
        probe_rng_(options_.probe_seed) {
    SDN_CHECK(!nodes_.empty());
    SDN_CHECK_MSG(adversary_.num_nodes() == n_,
                  "adversary built for " << adversary_.num_nodes()
                                         << " nodes, got " << nodes_.size());
    SDN_CHECK(adversary_.interval() >= 1);
    SDN_CHECK(options_.max_rounds >= 1);
    SDN_CHECK(options_.threads >= 0);
    for (const auto& [on, field] :
         {std::pair{options_.incremental_topology, "incremental_topology"},
          std::pair{options_.prefetch_topology, "prefetch_topology"},
          std::pair{options_.async_certification, "async_certification"},
          std::pair{options_.fused_send_deliver, "fused_send_deliver"}}) {
      SDN_CHECK_MSG(on, "EngineOptions::" << field
                                          << " = false is not supported: the "
                                             "engine runs one configuration");
    }
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes one round. Returns false (and does nothing) once the run is
  /// over — every node decided or max_rounds executed. Throws CheckError
  /// (after recording RunStats::bandwidth_violation) when a node's message
  /// exceeds the bandwidth budget; the run is then finished and failed.
  bool Step() {
    EnsureStarted();
    if (finished_) return false;

    RoundClock clock;
    clock.Stamp(kStart);
    if (lane_pending_) {
      // Join the previous round's lane task before round_ or topo_ change
      // (it reads both). Drain orders the task's writes before our reads
      // and rethrows a checker or adversary error, on this call and every
      // later one. The join wait feeds the round_aux_wait_ns histogram.
      lane_.Drain();
      clock.aux_wait_ns = Ns(clock.at[kStart], Clock::now());
      lane_pending_ = false;
    }
    // One topology call per round, in round order: either the lane task
    // prefetched it or it runs here. Both run ProduceTopology, so the
    // adversary sees the identical call sequence.
    if (prefetch_pending_) {
      prefetch_pending_ = false;
      ++round_;
    } else {
      ProduceTopology(++round_);
    }
    // The CSR fill runs on the send/deliver pool (every lane joins right
    // after the prefetch join) and is byte-identical to the serial fill.
    if (topo_assigned_) {
      topo_.CommitEdges(pool_);
      ++topo_direct_rounds_;
    } else {
      topo_.Apply(delta_, pool_);  // CheckError on a contract-violating delta
      ++topo_delta_rounds_;
    }
    const graph::Graph& g = topo_.View();
    if (options_.record_trace != nullptr) {
      options_.record_trace->Push(g, delta_);
    }
    stats_.edges_processed += g.num_edges();
    // Live-topology footprint this round: edge list + CSR adjacency +
    // offsets, plus the reused delta buffer. O(E_round), a pure function
    // of the topology stream — the streaming pipeline's whole point is
    // that this gauge never grows with the number of rounds.
    mem_topology_->SetCurrent(static_cast<std::int64_t>(
        static_cast<std::size_t>(g.num_edges()) *
            (sizeof(graph::Edge) + 2 * sizeof(graph::NodeId)) +
        static_cast<std::size_t>(n_ + 1) * sizeof(std::int64_t) +
        static_cast<std::size_t>(delta_.size()) * sizeof(graph::Edge)));
    // The companion gauges: the DynGraph's maintenance scratch and the
    // adversary's generator buffers. Both are capacity-based pure
    // functions of the call stream (sampled here, after the lane joined),
    // so RunStats::memory stays bit-identical across thread counts.
    mem_topology_scratch_->SetCurrent(topo_.ScratchBytes());
    mem_adversary_->SetCurrent(adversary_.BufferBytes());
    clock.Stamp(kTopologyEnd);

    if (checker_.has_value() && !async_cert_) {
      if (!Certify() && options_.fail_fast_on_tinterval) {
        // Mirror the bandwidth-violation fail shape: record, close the
        // books, surface through the recorder, then throw from Step().
        stats_.rounds = round_;
        stats_.tinterval_first_bad_window = checker_->first_bad_window();
        finished_ = true;
        clock.Stamp(kValidateEnd);
        CloseRound(clock);
        if (rec_ != nullptr) {
          rec_->Emit({.kind = obs::EventKind::kCheckerWindow,
                      .round = round_,
                      .t_ns = rec_->RelNs(clock.at[kValidateEnd]),
                      .a = checker_->stable_edge_count(),
                      .b = 0,
                      .c = checker_->certified_T()});
        }
        SDN_CHECK_MSG(false,
                      "T-interval violation: window starting at round "
                          << checker_->first_bad_window() + 1
                          << " has a disconnected intersection "
                             "(fail_fast_on_tinterval)");
      }
    }
    // The round's off-critical-path work, as one task on the lane: certify
    // this round in place, then build the next one. Everything the task
    // reads (topo_.View(), delta_, the adversary's composition claim)
    // stays untouched until the next Step or stats() joins it, and nothing
    // else reads what it writes (the checker, ProduceTopology's outputs)
    // before then. For an oblivious adversary the build reads no node
    // state, so running it beside the probe, send and deliver phases is
    // race-free. It is submitted before a bandwidth abort can throw, so an
    // aborted run certifies the same rounds as the serial engine.
    const bool prefetch = prefetch_enabled_ && round_ < options_.max_rounds;
    if (async_cert_ || prefetch) {
      lane_pending_ = true;
      prefetch_pending_ = prefetch;
      lane_.Submit([this, prefetch] {
        auto t0 = Clock::now();
        if (async_cert_) {
          (void)Certify();  // only fail-fast reads the verdict mid-run
          const auto t1 = Clock::now();
          aux_validate_ns_ += Ns(t0, t1);
          t0 = t1;
        }
        if (prefetch) {
          ProduceTopology(round_ + 1);
          aux_topology_ns_ += Ns(t0, Clock::now());
        }
      });
    }
    clock.Stamp(kValidateEnd);

    StepProbes(g);
    clock.Stamp(kProbeEnd);

    // Send phase: every node's message lands in its own raw outbox slot
    // (DirectSendProgram composes it in place; the generic path moves the
    // OnSend optional's payload in), with silentness tracked in the
    // separate sent_ byte array. Shard accumulators do the message
    // accounting; budget violations are *recorded* per shard (first in
    // node order) instead of thrown from a worker — the merge below
    // deterministically picks the lowest node and fails the run from this
    // thread.
    //
    // Fused fast path: when the previous round's deliver pass already
    // staged this round's messages (fused_enabled_), the send phase
    // degenerates to a buffer flip — the staged half of the double buffer
    // becomes the live outbox, and the staged accumulators are folded into
    // the stats exactly as a freshly-run send phase's would be. The flip
    // sits here, after validate and probes, so an abort above leaves the
    // staged round unmerged — the serial engine's books at the same round.
    const bool fused_consume = staged_valid_;
    if (fused_consume) {
      staged_valid_ = false;
      live_buf_ ^= 1;
      outbox_ = outbox_bufs_[live_buf_];
      sent_ = sent_bufs_[live_buf_];
    } else {
      ForShards([this](int shard, std::int64_t begin, std::int64_t end) {
        ShardAccum& acc = shard_accum_[static_cast<std::size_t>(shard)];
        acc = ShardAccum{};
        for (std::int64_t u = begin; u < end; ++u) {
          typename A::Message& slot = outbox_[static_cast<std::size_t>(u)];
          bool sent;
          if constexpr (DirectSendProgram<A>) {
            sent = nodes_[static_cast<std::size_t>(u)].OnSendInto(round_, slot);
          } else {
            std::optional<typename A::Message> msg =
                nodes_[static_cast<std::size_t>(u)].OnSend(round_);
            sent = msg.has_value();
            if (sent) slot = std::move(*msg);
          }
          sent_[static_cast<std::size_t>(u)] = sent ? 1 : 0;
          if (!sent) continue;
          const auto bits = static_cast<std::int64_t>(A::MessageBits(slot));
          if (bits > stats_.bit_limit && acc.violation_node < 0) {
            acc.violation_node = static_cast<graph::NodeId>(u);
            acc.violation_bits = bits;
          }
          ++acc.messages_sent;
          ++stats_.sends_per_node[static_cast<std::size_t>(u)];
          acc.total_message_bits += bits;
          acc.max_message_bits = std::max(acc.max_message_bits, bits);
        }
      });
    }
    // The send window ends at the phase barrier (or the fused flip); the
    // shard merge below is engine bookkeeping and lands in other_ns, not
    // send_ns.
    clock.Stamp(kSendEnd);
    std::int64_t round_sent = 0;
    const std::vector<ShardAccum>& send_accums =
        fused_consume ? staged_accum_ : shard_accum_;
    for (const ShardAccum& acc : send_accums) {
      round_sent += acc.messages_sent;
      stats_.messages_sent += acc.messages_sent;
      stats_.total_message_bits += acc.total_message_bits;
      stats_.max_message_bits =
          std::max(stats_.max_message_bits, acc.max_message_bits);
      if (!stats_.bandwidth_violation.has_value() && acc.violation_node >= 0) {
        stats_.bandwidth_violation =
            BandwidthViolation{acc.violation_node, round_, acc.violation_bits};
      }
    }
    if (fused_consume) {
      // Staged stats had to stay discardable until the merge, so the
      // per-node send tally was deferred; fold it in from the sent flags.
      std::int64_t* const spn = stats_.sends_per_node.data();
      const unsigned char* const sent = sent_.data();
      for (std::int64_t u = 0; u < n_; ++u) {
        spn[u] += sent[u];
      }
    }

    if (stats_.bandwidth_violation.has_value()) {
      stats_.rounds = round_;
      finished_ = true;
      CloseRound(clock);
      if (rec_ != nullptr) {
        const BandwidthViolation& v = *stats_.bandwidth_violation;
        rec_->Emit({.kind = obs::EventKind::kBandwidthViolation,
                    .round = round_,
                    .t_ns = rec_->RelNs(clock.at[kSendEnd]),
                    .a = v.bits,
                    .b = v.node});
      }
      const BandwidthViolation& v = *stats_.bandwidth_violation;
      SDN_CHECK_MSG(false, "message of " << v.bits << " bits exceeds budget "
                                         << stats_.bit_limit << " at node "
                                         << v.node << " round " << v.round);
    }

    // Deliver phase. Zero-copy either way. Dense path (all-sent rounds
    // under DeliveryMode::kDense): each receiver's Inbox indexes the outbox
    // through the graph's own CSR neighbor span — no gather at all. Sparse
    // path: gather pointers to the flagged outbox slots into per-shard
    // reusable buffers — the flags live in sent_, so the gather itself
    // never touches a message cache line. Both paths
    // issue a software prefetch for each receiver's message lines before
    // its OnReceive: the slot addresses are data-dependent scatters the
    // hardware prefetcher cannot see, and issuing them back to back buys
    // memory-level parallelism across the receiver's whole inbox. The
    // outbox is not mutated until the next round's send phase. Decisions
    // land in per-node slots plus a per-shard count, reduced below instead
    // of mutated inline.
    const bool dense =
        round_sent == n_ && options_.delivery == DeliveryMode::kDense;
    if (dense) {
      ++dense_rounds_;
    } else {
      ++gather_rounds_;
    }
    // Fused staging: while this round's deliver pass holds each node hot,
    // compose its round r+1 message into the inactive outbox half. The
    // per-node call order (OnReceive(r), OnSendInto(r+1)) is exactly the
    // serial engine's — nothing between them ever touches node state —
    // and the staged stats stay in staged_accum_, discardable until round
    // r+1's flip merges them. sends_per_node is deferred to the merge for
    // the same reason.
    const bool stage_next = fused_enabled_ && round_ < options_.max_rounds;
    clock.Stamp(kDeliverBegin);
    ForShards([this, &g, dense, stage_next](int shard, std::int64_t begin,
                                            std::int64_t end) {
      using Message = typename A::Message;
      ShardAccum& acc = shard_accum_[static_cast<std::size_t>(shard)];
      acc = ShardAccum{};
      const Message* outbox = outbox_.data();
      ShardAccum* sacc = nullptr;
      Message* stage_out = nullptr;
      unsigned char* stage_sent = nullptr;
      if (stage_next) {
        sacc = &staged_accum_[static_cast<std::size_t>(shard)];
        *sacc = ShardAccum{};
        stage_out = outbox_bufs_[live_buf_ ^ 1].data();
        stage_sent = sent_bufs_[live_buf_ ^ 1].data();
      }
      const auto stage_one = [&](std::int64_t u, A& node) {
        if constexpr (DirectSendProgram<A>) {
          Message& slot = stage_out[static_cast<std::size_t>(u)];
          const bool did = node.OnSendInto(round_ + 1, slot);
          stage_sent[static_cast<std::size_t>(u)] = did ? 1 : 0;
          if (!did) return;
          const auto bits = static_cast<std::int64_t>(A::MessageBits(slot));
          if (bits > stats_.bit_limit && sacc->violation_node < 0) {
            sacc->violation_node = static_cast<graph::NodeId>(u);
            sacc->violation_bits = bits;
          }
          ++sacc->messages_sent;
          sacc->total_message_bits += bits;
          sacc->max_message_bits = std::max(sacc->max_message_bits, bits);
        } else {
          (void)u;
          (void)node;
        }
      };
      if (dense) {
        for (std::int64_t u = begin; u < end; ++u) {
          const std::span<const graph::NodeId> ids =
              g.Neighbors(static_cast<graph::NodeId>(u));
          for (const graph::NodeId v : ids) {
            __builtin_prefetch(outbox + v, 0, 3);
          }
          acc.messages_delivered += static_cast<std::int64_t>(ids.size());
          A& node = nodes_[static_cast<std::size_t>(u)];
          const bool was_decided = node.HasDecided();
          node.OnReceive(round_, Inbox<Message>(outbox, ids));
          if (!was_decided && node.HasDecided()) {
            stats_.decide_round[static_cast<std::size_t>(u)] = round_;
            ++acc.decided;
          }
          if (stage_next) stage_one(u, node);
        }
        return;
      }
      const unsigned char* sent = sent_.data();
      std::vector<const Message*>& slots =
          shard_slots_[static_cast<std::size_t>(shard)];
      for (std::int64_t u = begin; u < end; ++u) {
        slots.clear();
        for (const graph::NodeId v :
             g.Neighbors(static_cast<graph::NodeId>(u))) {
          if (sent[static_cast<std::size_t>(v)]) {
            const Message* slot = outbox + v;
            __builtin_prefetch(slot, 0, 3);
            slots.push_back(slot);
          }
        }
        acc.messages_delivered += static_cast<std::int64_t>(slots.size());
        A& node = nodes_[static_cast<std::size_t>(u)];
        const bool was_decided = node.HasDecided();
        node.OnReceive(round_, Inbox<Message>(slots));
        if (!was_decided && node.HasDecided()) {
          stats_.decide_round[static_cast<std::size_t>(u)] = round_;
          ++acc.decided;
        }
        if (stage_next) stage_one(u, node);
      }
    });
    staged_valid_ = stage_next;
    // Deliver window ends at the barrier; merge + decision bookkeeping are
    // other_ns.
    clock.Stamp(kDeliverEnd);
    std::int64_t decided = 0;
    std::int64_t round_delivered = 0;
    for (const ShardAccum& acc : shard_accum_) {
      stats_.messages_delivered += acc.messages_delivered;
      round_delivered += acc.messages_delivered;
      decided += acc.decided;
    }
    if (decided > 0) {
      if (stats_.first_decide_round < 0) stats_.first_decide_round = round_;
      stats_.last_decide_round = round_;
      undecided_ -= decided;
    }
    stats_.rounds = round_;
    if (undecided_ == 0) {
      finished_ = true;
    } else if (round_ >= options_.max_rounds) {
      finished_ = true;
      stats_.hit_max_rounds = true;
    }
    CloseRound(clock);

    // Observability sinks run after the final clock read, so their cost
    // never lands in any timing bucket — and RunStats (including timings)
    // is identical with the sinks on or off.
    if (rec_ != nullptr) ObserveRound(clock, round_delivered);
    if (registry_ != nullptr) {
      hist_round_edges_->Observe(g.num_edges());
      hist_round_deliveries_->Observe(round_delivered);
      if (anomaly_ != nullptr) {
        obs::RoundSignals sig;
        sig.round = round_;
        // When the lane certifies, the checker runs there and reading it
        // here would race; certified_T = -1 means "not sampled" and the
        // cert-regression rule skips the round. Recorder-attached runs (the
        // only ones that can dump) always have the synchronous checker, so
        // dump-capable runs never lose the signal.
        if (checker_.has_value() && !async_cert_) {
          sig.certified_T = checker_->certified_T();
          sig.first_bad_window = checker_->first_bad_window();
        }
        if (rec_ != nullptr) sig.recorder_dropped = rec_->dropped();
        // The gauges Step() sets every round. The checker's is set only by
        // stats(), so a per-round sample of it would be stale.
        const std::array<obs::MemorySample, 5> mem = {{
            {"outbox", mem_outbox_->current()},
            {"programs", mem_programs_->current()},
            {"topology", mem_topology_->current()},
            {"topology_scratch", mem_topology_scratch_->current()},
            {"adversary", mem_adversary_->current()},
        }};
        anomaly_->Observe(sig, mem);
      }
    }
    return true;
  }

  /// Drives Step() to completion; callable once per engine.
  RunStats Run() {
    SDN_CHECK_MSG(!run_called_, "Engine::Run called twice");
    run_called_ = true;
    while (Step()) {
    }
    return stats();
  }

  /// Snapshot of the metrics so far (valid mid-run and after completion).
  [[nodiscard]] RunStats stats() const {
    // Deterministic rendezvous with the lane: the last round is certified
    // — and any checker or adversary error (e.g. a lying composition)
    // rethrown — before a verdict is read, so the snapshot equals the
    // synchronous engine's at the same round.
    lane_.Drain();
    RunStats out = stats_;
    out.timings.aux_topology_ns += aux_topology_ns_;
    out.timings.aux_validate_ns += aux_validate_ns_;
    out.all_decided = started_ && undecided_ == 0;
    out.tinterval_validated = options_.validate_tinterval && started_;
    out.tinterval_ok = !checker_.has_value() || checker_->ok();
    if (checker_.has_value()) {
      out.certified_T = checker_->certified_T();
      out.tinterval_first_bad_window = checker_->first_bad_window();
      out.min_stable_forest = checker_->min_stable_forest();
      // The checker's footprint is a pure function of the rounds pushed —
      // sampled here, post-drain, so the gauge is identical across thread
      // counts.
      if (mem_checker_ != nullptr) {
        mem_checker_->SetCurrent(checker_->ApproxBytes());
      }
    }
    out.flooding = FloodingSnapshot();
    if (budget_ != nullptr) {
      for (const util::MemoryBudget::Entry& e : budget_->Snapshot()) {
        out.memory.push_back({e.subsystem, e.current_bytes, e.peak_bytes});
      }
    }
    if (rec_ != nullptr) {
      // Truth-in-tracing: surfaced even without a registry so OneLine can
      // print `drops=` whenever a trace is no longer complete.
      out.recorder_dropped = rec_->dropped();
    }
    if (anomaly_ != nullptr) out.anomalies = anomaly_->records();
    if (registry_ != nullptr) {
      // Mirror the scalar aggregates into the registry so the snapshot is
      // self-contained (one structure to render or export).
      registry_->GetGauge("messages_sent")->Set(stats_.messages_sent);
      registry_->GetGauge("messages_delivered")->Set(stats_.messages_delivered);
      registry_->GetGauge("edges_processed")->Set(stats_.edges_processed);
      registry_->GetGauge("max_message_bits")->Set(stats_.max_message_bits);
      if constexpr (ObservableProgram<A>) {
        std::int64_t work = 0;
        for (const A& node : nodes_) work += node.ObsPhase().work;
        registry_->GetGauge("algo_work")->Set(work);
      }
      out.metrics = registry_->Snapshot();
    }
    return out;
  }

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] std::int64_t current_round() const { return round_; }
  /// Topology of the most recently executed round (empty before round 1).
  [[nodiscard]] const graph::Graph& last_topology() const {
    return topo_.View();
  }

  /// Per-path round counters (test/bench introspection). Each is a pure
  /// function of the options, the adversary and the send pattern: dense
  /// counts the all-sent rounds under DeliveryMode::kDense and gather the
  /// rest; direct counts the rounds RoundEdgesInto accepted and delta the
  /// rest.
  [[nodiscard]] std::int64_t dense_delivery_rounds() const {
    return dense_rounds_;
  }
  [[nodiscard]] std::int64_t gather_delivery_rounds() const {
    return gather_rounds_;
  }
  [[nodiscard]] std::int64_t topology_direct_rounds() const {
    return topo_direct_rounds_;
  }
  [[nodiscard]] std::int64_t topology_delta_rounds() const {
    return topo_delta_rounds_;
  }
  /// Per-subsystem byte accounting (engine-owned budget unless
  /// EngineOptions::memory_budget redirected the charges).
  [[nodiscard]] const util::MemoryBudget& memory_budget() const {
    SDN_CHECK(budget_ != nullptr);
    return *budget_;
  }

  [[nodiscard]] const A& node(graph::NodeId u) const {
    SDN_CHECK(u >= 0 && u < n_);
    return nodes_[static_cast<std::size_t>(u)];
  }
  [[nodiscard]] graph::NodeId num_nodes() const override { return n_; }

 private:
  /// Sharding floor/cap: boundaries are a pure function of n, never of the
  /// thread count, so the shard-ordered merge is the same computation at
  /// every EngineOptions::threads setting.
  static constexpr std::int64_t kMinShardNodes = 64;
  static constexpr std::int64_t kMaxShards = 64;

  /// Per-shard accumulator for one phase; merged in shard order after the
  /// barrier. Cache-line aligned so neighboring shards don't false-share.
  struct alignas(64) ShardAccum {
    std::int64_t messages_sent = 0;
    std::int64_t total_message_bits = 0;
    std::int64_t max_message_bits = 0;
    std::int64_t messages_delivered = 0;
    std::int64_t decided = 0;
    graph::NodeId violation_node = -1;  // first in node order within shard
    std::int64_t violation_bits = 0;
  };

  using Clock = std::chrono::steady_clock;
  static std::int64_t Ns(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  }

  /// The boundaries Step() stamps, in order. The deliver window opens at
  /// kDeliverBegin, not kSendEnd: the send merge and the prefetch launch
  /// sit between them.
  enum Mark : int {
    kStart,
    kTopologyEnd,
    kValidateEnd,
    kProbeEnd,
    kSendEnd,
    kDeliverBegin,
    kDeliverEnd,
    kEnd,
    kNumMarks,
  };

  /// The phase table: one row per timed phase, with its kPhase span label
  /// (null: no span), its registry histogram, its EngineTimings field and
  /// its clock window. other has no window; CloseRound sets it to the
  /// residual.
  struct PhaseRow {
    const char* span;
    const char* histogram;
    std::int64_t EngineTimings::*field;
    Mark begin;
    Mark end;
  };
  static constexpr std::array<PhaseRow, 7> kPhases = {{
      {"topology", "round_topology_ns", &EngineTimings::topology_ns, kStart,
       kTopologyEnd},
      {"validate", "round_validate_ns", &EngineTimings::validate_ns,
       kTopologyEnd, kValidateEnd},
      {"probe", "round_probe_ns", &EngineTimings::probe_ns, kValidateEnd,
       kProbeEnd},
      {"send", "round_send_ns", &EngineTimings::send_ns, kProbeEnd, kSendEnd},
      {"deliver", "round_deliver_ns", &EngineTimings::deliver_ns,
       kDeliverBegin, kDeliverEnd},
      {nullptr, "round_other_ns", &EngineTimings::other_ns, kEnd, kEnd},
      {nullptr, "round_total_ns", &EngineTimings::total_ns, kStart, kEnd},
  }};
  static constexpr std::size_t kOther = 5;
  static constexpr std::size_t kTotal = 6;

  /// One round's clock: each boundary read once, the auxiliary lane's join
  /// wait, and the per-phase durations CloseRound derives from them.
  struct RoundClock {
    std::array<Clock::time_point, kNumMarks> at{};
    Mark last = kStart;  // the last boundary stamped
    std::int64_t aux_wait_ns = 0;
    std::array<std::int64_t, kPhases.size()> ns{};

    void Stamp(Mark m) {
      at[m] = Clock::now();
      last = m;
    }
  };

  // AdversaryView:
  [[nodiscard]] std::int64_t round() const override { return round_; }
  [[nodiscard]] double PublicState(graph::NodeId u) const override {
    SDN_CHECK(u >= 0 && u < n_);
    return nodes_[static_cast<std::size_t>(u)].PublicState();
  }
  [[nodiscard]] bool prefetches_topology() const override {
    return prefetch_enabled_;
  }

  /// Produces round r's topology for the topology section of Step, which
  /// either calls it inline or joins the lane task that ran it. Takes
  /// RoundEdgesInto whenever the adversary accepts it, running DiffSorted
  /// only when a consumer needs the delta, and DeltaFor otherwise; the
  /// first decline pins DeltaFor for the rest of the run. Writes only state
  /// the probe, send and deliver phases do not read: topo_'s edit buffer,
  /// delta_ and the members declared next to topo_assigned_.
  void ProduceTopology(std::int64_t r) {
    topo_assigned_ = topo_direct_supported_ &&
                     adversary_.RoundEdgesInto(r, *this, topo_.EditBuffer());
    if (topo_assigned_) {
      if (need_delta_) {
        graph::DiffSorted(topo_.View().Edges(), topo_.EditBuffer(), delta_);
      }
      return;
    }
    topo_direct_supported_ = false;
    adversary_.DeltaFor(r, *this, topo_.View(), delta_);
  }

  /// Streams round_'s topology through the checker: by the adversary's
  /// composition claim (cross-checked inside the checker) when it offers
  /// one, else by the delta the topology was built from. Runs in the
  /// validate window or at the head of the lane task. Returns the checker's
  /// verdict so far.
  bool Certify() {
    if (use_composition_) {
      const graph::RoundComposition* comp = adversary_.Composition(round_);
      SDN_CHECK_MSG(comp != nullptr,
                    "adversary advertises has_composition but returned no "
                    "composition for round "
                        << round_);
      return checker_->PushComposition(*comp, topo_.View());
    }
    return checker_->PushDelta(delta_);
  }

  /// Runs fn(shard, begin, end) over all shards — on the pool when parallel,
  /// inline (same shard boundaries, ascending order) when serial.
  void ForShards(const util::ThreadPool::RangeFn& fn) {
    if (pool_ != nullptr) {
      pool_->ParallelFor(n_, static_cast<int>(shards_), lanes_, fn);
      return;
    }
    for (std::int64_t s = 0; s < shards_; ++s) {
      fn(static_cast<int>(s), std::int64_t{n_} * s / shards_,
         std::int64_t{n_} * (s + 1) / shards_);
    }
  }

  /// Closes the round's clock and feeds its durations to the timing
  /// sinks: RunStats::timings, the registry's round_<phase>_ns histograms
  /// (plus round_aux_wait_ns) and the recorder's kPhase spans. Every exit
  /// of Step() calls it once. An aborted round's unopened windows collapse
  /// to zero and get no span. other is the residual, total minus the five
  /// named windows, so the phases partition total exactly (debug-asserted
  /// below, pinned by test_bandwidth_metrics).
  void CloseRound(RoundClock& clock) {
    const Mark reached = clock.last;
    std::fill(clock.at.begin() + reached + 1, clock.at.begin() + kEnd,
              clock.at[reached]);
    clock.Stamp(kEnd);
    std::int64_t named = 0;
    for (std::size_t i = 0; i < kPhases.size(); ++i) {
      clock.ns[i] = Ns(clock.at[kPhases[i].begin], clock.at[kPhases[i].end]);
      if (i < kOther) named += clock.ns[i];
    }
    clock.ns[kOther] = clock.ns[kTotal] - named;
    for (std::size_t i = 0; i < kPhases.size(); ++i) {
      const PhaseRow& row = kPhases[i];
      stats_.timings.*row.field += clock.ns[i];
      if (registry_ != nullptr) hist_phase_[i]->Observe(clock.ns[i]);
      if (rec_ != nullptr && row.span != nullptr && row.end <= reached) {
        rec_->Emit({.kind = obs::EventKind::kPhase,
                    .round = round_,
                    .t_ns = rec_->RelNs(clock.at[row.begin]),
                    .dur_ns = clock.ns[i],
                    .label = row.span});
      }
    }
    if (registry_ != nullptr) hist_aux_wait_ns_->Observe(clock.aux_wait_ns);
#ifndef NDEBUG
    const EngineTimings& tm = stats_.timings;
    SDN_CHECK_MSG(tm.topology_ns + tm.validate_ns + tm.probe_ns + tm.send_ns +
                          tm.deliver_ns + tm.other_ns ==
                      tm.total_ns,
                  "EngineTimings phases must partition total_ns");
#endif
  }

  /// Per-round flight-recorder emission (rec_ != nullptr only) after
  /// CloseRound's phase spans: the algorithm-phase track sampled from
  /// node 0, sketch-merge progress summed over nodes, checker window
  /// state, and bandwidth high-water marks.
  void ObserveRound(const RoundClock& clock, std::int64_t round_delivered) {
    const std::int64_t now = rec_->RelNs(clock.at[kDeliverEnd]);
    if constexpr (ObservableProgram<A>) {
      // The run-level track samples node 0 (all nodes follow the same
      // global schedule; divergence is exactly what the alarm machinery
      // detects). Label identity is pointer identity — labels are static.
      const ProgramPhase phase = nodes_[0].ObsPhase();
      if (phase.label != obs_algo_label_ || phase.index != obs_algo_index_) {
        obs_algo_label_ = phase.label;
        obs_algo_index_ = phase.index;
        rec_->Emit({.kind = obs::EventKind::kAlgoPhase,
                    .round = round_,
                    .t_ns = now,
                    .a = phase.index,
                    .label = phase.label});
      }
      std::int64_t merges = 0;
      for (const A& node : nodes_) merges += node.ObsPhase().work;
      if (merges != obs_merges_total_) {
        rec_->Emit({.kind = obs::EventKind::kSketchMerge,
                    .round = round_,
                    .t_ns = now,
                    .a = merges,
                    .b = merges - obs_merges_total_});
        obs_merges_total_ = merges;
      }
    }
    if (checker_.has_value()) {
      const std::int64_t stable = checker_->stable_edge_count();
      const bool ok = checker_->ok();
      const std::int64_t cert = checker_->certified_T();
      if (stable != obs_stable_edges_ || ok != obs_checker_ok_ ||
          cert != obs_cert_) {
        obs_stable_edges_ = stable;
        obs_checker_ok_ = ok;
        obs_cert_ = cert;
        rec_->Emit({.kind = obs::EventKind::kCheckerWindow,
                    .round = round_,
                    .t_ns = now,
                    .a = stable,
                    .b = ok ? 1 : 0,
                    .c = cert});
      }
    }
    if (stats_.max_message_bits > obs_hw_bits_) {
      obs_hw_bits_ = stats_.max_message_bits;
      rec_->Emit({.kind = obs::EventKind::kBandwidthHighWater,
                  .round = round_,
                  .t_ns = now,
                  .a = obs_hw_bits_});
    }
    rec_->Emit({.kind = obs::EventKind::kCounter,
                .round = round_,
                .t_ns = now,
                .a = round_delivered,
                .label = "deliveries"});
  }

  void EnsureStarted() {
    if (started_) return;
    started_ = true;
    rec_ = options_.recorder;
    if (options_.collect_metrics) {
      registry_ = std::make_unique<obs::MetricsRegistry>();
      hist_round_edges_ = registry_->GetHistogram("round_edges");
      hist_round_deliveries_ = registry_->GetHistogram("round_deliveries");
      for (std::size_t i = 0; i < kPhases.size(); ++i) {
        hist_phase_[i] = registry_->GetHistogram(kPhases[i].histogram,
                                                 /*deterministic=*/false);
      }
      hist_aux_wait_ns_ =
          registry_->GetHistogram("round_aux_wait_ns", /*deterministic=*/false);
      if (options_.anomaly) {
        anomaly_ = std::make_unique<obs::AnomalyEngine>(
            options_.anomaly_options, registry_.get(), rec_);
      }
    }
    stats_.decide_round.assign(static_cast<std::size_t>(n_), -1);
    stats_.sends_per_node.assign(static_cast<std::size_t>(n_), 0);
    stats_.bit_limit = options_.bandwidth.BitLimit(n_);
    if (options_.validate_tinterval) {
      checker_.emplace(n_, adversary_.interval());
    }
    topo_.Reset(n_);
    // Witness certification: a composition-exposing adversary lets the
    // checker certify windows by witness identity, so no delta needs to be
    // materialized for it at all — the topology hot path stays identical
    // to an unvalidated run. A run certified this way took about half the
    // wall time of a delta-checker run at n=1024 and about a tenth at
    // n=65536 (docs/PERF.md "Certification"). Observers keep the witness
    // path: a flight recorder's kCheckerWindow track then carries
    // stable_edge_count() = -1, and a trace recorder gets its deltas
    // through need_delta_.
    use_composition_ = checker_.has_value() && adversary_.has_composition();
    // Deltas are materialized whenever something consumes them: the
    // delta-driven checker or a trace recorder. ProduceTopology derives
    // the delta with one DiffSorted when the adversary assigned the round
    // directly, so every consumer sees a delta every round.
    need_delta_ = (checker_.has_value() && !use_composition_) ||
                  options_.record_trace != nullptr;

    // Parallel geometry. Shard count is a function of n alone; the thread
    // count only decides how many lanes execute those shards, and whether
    // the run is on the pool at all (two lanes or more).
    int threads = options_.threads;
    if (threads == 0) {
      threads = static_cast<int>(std::thread::hardware_concurrency());
      if (threads <= 0) threads = 1;
    }
    shards_ = std::clamp<std::int64_t>(n_ / kMinShardNodes, 1, kMaxShards);
    lanes_ = static_cast<int>(std::min<std::int64_t>(threads, shards_));
    pool_ = lanes_ > 1 ? &util::ThreadPool::Shared() : nullptr;
    // The overlap rule: each overlap engages exactly when the run is on the
    // pool and its own precondition holds, so a serial run keeps the round
    // loop on one thread with a barrier between phases.
    // - Prefetch needs an oblivious adversary: the lane builds round r+1
    //   while deliver mutates node state. It composes with the witness
    //   path: Certify reads the claimed spans before the next build
    //   invalidates them, in the validate window or at the head of the
    //   same lane task.
    // - Certification on the lane excludes exactly the configurations that
    //   read checker state mid-round: fail-fast (the verdict gates the
    //   round, so the abort lands at the serial engine's round) and a
    //   flight recorder (its per-round kCheckerWindow track).
    // - Fusion needs the in-place compose path (OnSendInto) and an
    //   adversary that never samples PublicState between deliver r and
    //   send r+1, i.e. an oblivious one.
    const bool pooled = pool_ != nullptr;
    prefetch_enabled_ = pooled && adversary_.oblivious();
    async_cert_ = pooled && checker_.has_value() &&
                  !options_.fail_fast_on_tinterval && rec_ == nullptr;
    fused_enabled_ = pooled && DirectSendProgram<A> && adversary_.oblivious();

    // Outbox slots start default-constructed and sent flags zero. Fused
    // mode double-buffers both arrays so round r+1's staged messages never
    // alias the slots round r is still delivering.
    const int halves = fused_enabled_ ? 2 : 1;
    for (int h = 0; h < halves; ++h) {
      outbox_bufs_[h] =
          std::vector<typename A::Message>(static_cast<std::size_t>(n_));
      sent_bufs_[h] = std::vector<unsigned char>(static_cast<std::size_t>(n_));
    }
    live_buf_ = 0;
    outbox_ = outbox_bufs_[0];
    sent_ = sent_bufs_[0];
    undecided_ = n_;

    // Memory accounting: resolve the gauges once, charge the fixed
    // per-node structures now; the live-topology gauge is updated per
    // round. All charged sizes are pure functions of n, the thread rule
    // and the topology stream, so RunStats::memory is as deterministic as
    // the rest of the stats at a given pooled-or-serial setting.
    budget_ = options_.memory_budget != nullptr ? options_.memory_budget
                                                : &owned_budget_;
    mem_outbox_ = budget_->Get("outbox");
    mem_programs_ = budget_->Get("programs");
    mem_topology_ = budget_->Get("topology");
    mem_topology_scratch_ = budget_->Get("topology_scratch");
    mem_adversary_ = budget_->Get("adversary");
    if (checker_.has_value()) mem_checker_ = budget_->Get("checker");
    mem_outbox_->SetCurrent(static_cast<std::int64_t>(
        static_cast<std::size_t>(n_) * (sizeof(typename A::Message) + 1) *
        static_cast<std::size_t>(halves)));
    mem_programs_->SetCurrent(
        static_cast<std::int64_t>(static_cast<std::size_t>(n_) * sizeof(A)));
    shard_accum_.assign(static_cast<std::size_t>(shards_), ShardAccum{});
    if (fused_enabled_) {
      staged_accum_.assign(static_cast<std::size_t>(shards_), ShardAccum{});
    }
    shard_slots_.resize(static_cast<std::size_t>(shards_));

    for (int i = 0; i < options_.flood_probes; ++i) {
      const graph::NodeId src = (i == 0) ? graph::NodeId{0} : RandomSource();
      probes_.emplace_back(n_, src, 1);
      probe_started_.push_back(0);
      // n == 1: trivially complete at construction — it did run, so it
      // counts as spawned; leave the slot dead (respawning would complete
      // instantly forever).
      if (probes_.back().complete()) {
        probe_started_.back() = 1;
        ++probes_spawned_;
        RecordProbeCompletion(static_cast<std::size_t>(i), probes_.back());
      }
    }
    for (graph::NodeId u = 0; u < n_; ++u) {
      if (nodes_[static_cast<std::size_t>(u)].HasDecided()) {
        RecordDecision(u, 0);
      }
    }
    if (undecided_ == 0) finished_ = true;
  }

  [[nodiscard]] graph::NodeId RandomSource() {
    return static_cast<graph::NodeId>(
        probe_rng_.UniformU64(static_cast<std::uint64_t>(n_)));
  }

  void StepProbes(const graph::Graph& g) {
    for (std::size_t i = 0; i < probes_.size(); ++i) {
      FloodProbe& p = probes_[i];
      if (p.complete()) continue;  // dead slot (n == 1)
      // A probe counts as spawned only once an executed round reaches its
      // start round — a staggered respawn whose start lies beyond the end
      // of the run never becomes a probe (it would otherwise show up as a
      // phantom never-started probe and understate the completion rate).
      if (probe_started_[i] == 0) {
        if (round_ < p.start_round()) continue;
        probe_started_[i] = 1;
        ++probes_spawned_;
        if (rec_ != nullptr) {
          rec_->Emit({.kind = obs::EventKind::kProbeSpawn,
                      .round = round_,
                      .t_ns = rec_->NowNs(),
                      .a = static_cast<std::int64_t>(i),
                      .b = p.source()});
        }
      }
      p.Push(round_, g);
      if (!p.complete()) continue;
      RecordProbeCompletion(i, p);
      // Stagger: relaunch this slot from a fresh source at round 2c. Start
      // rounds are sampled at geometrically spaced points of the run, and
      // the probe work stays O(E·d·log rounds) total instead of O(E·rounds).
      p = FloodProbe(n_, RandomSource(), 2 * round_);
      probe_started_[i] = 0;
    }
  }

  void RecordProbeCompletion(std::size_t slot, const FloodProbe& p) {
    ++probes_completed_;
    probe_max_rounds_ = std::max(probe_max_rounds_, p.completion_rounds());
    probe_total_rounds_ += static_cast<double>(p.completion_rounds());
    if (rec_ != nullptr) {
      rec_->Emit({.kind = obs::EventKind::kProbeComplete,
                  .round = round_,
                  .t_ns = rec_->NowNs(),
                  .a = static_cast<std::int64_t>(slot),
                  .b = p.completion_rounds()});
    }
  }

  [[nodiscard]] FloodingSummary FloodingSnapshot() const {
    FloodingSummary s;
    s.probes = probes_spawned_;
    s.completed = probes_completed_;
    s.max_rounds = probe_max_rounds_;
    if (probes_completed_ > 0) {
      s.mean_rounds =
          probe_total_rounds_ / static_cast<double>(probes_completed_);
    }
    return s;
  }

  void RecordDecision(graph::NodeId u, std::int64_t at) {
    stats_.decide_round[static_cast<std::size_t>(u)] = at;
    if (stats_.first_decide_round < 0) stats_.first_decide_round = at;
    stats_.last_decide_round = std::max(stats_.last_decide_round, at);
    --undecided_;
  }

  std::vector<A> nodes_;
  Adversary& adversary_;
  EngineOptions options_;
  graph::NodeId n_ = 0;
  util::Rng probe_rng_;

  // Run state (lazily initialized by the first Step()).
  bool started_ = false;
  bool finished_ = false;
  bool run_called_ = false;
  std::int64_t round_ = 0;
  std::int64_t undecided_ = 0;
  RunStats stats_;
  std::optional<graph::TIntervalChecker> checker_;
  std::vector<FloodProbe> probes_;
  std::vector<char> probe_started_;  // parallel to probes_
  std::int64_t probes_spawned_ = 0;
  std::int64_t probes_completed_ = 0;
  std::int64_t probe_max_rounds_ = -1;
  double probe_total_rounds_ = 0.0;
  std::span<typename A::Message> outbox_;  // live half: one slot per node
  std::span<unsigned char> sent_;          // 1 iff the slot is live
  bool need_delta_ = false;        // a checker or trace consumes deltas
  bool use_composition_ = false;   // checker rides the adversary's
                                   // composition claim — no delta needed
  graph::DynGraph topo_{0};        // the one live topology
  graph::TopologyDelta delta_;     // reused round-over-round delta buffer

  // ProduceTopology's output, consumed by Step's topology section: the
  // round list sits in topo_'s edit buffer (topo_assigned_) or delta_
  // holds the round's delta.
  bool topo_assigned_ = false;
  bool topo_direct_supported_ = true;  // RoundEdgesInto has not declined

  // Per-path round counters (see dense_delivery_rounds()).
  std::int64_t topo_direct_rounds_ = 0;
  std::int64_t topo_delta_rounds_ = 0;
  std::int64_t dense_rounds_ = 0;
  std::int64_t gather_rounds_ = 0;

  // Parallel geometry (EnsureStarted) and per-shard state.
  util::ThreadPool* pool_ = nullptr;
  int lanes_ = 1;
  std::int64_t shards_ = 1;
  bool prefetch_enabled_ = false;
  bool async_cert_ = false;
  bool fused_enabled_ = false;
  std::vector<ShardAccum> shard_accum_;
  std::vector<std::vector<const typename A::Message*>> shard_slots_;

  // Pipelining state. The double-buffered outbox halves (the second stays
  // empty unless fused; fused mode flips live_buf_ each round and
  // outbox_/sent_ above always alias the live half),
  // the staged-send accumulators, and the pending lane task (when it
  // prefetches, it writes the ProduceTopology outputs above, read after
  // the join at the top of the next Step). aux_*_ns_ are lane-side wall
  // clocks that stats() adds to EngineTimings::aux_*_ns after its join.
  std::vector<typename A::Message> outbox_bufs_[2];
  std::vector<unsigned char> sent_bufs_[2];
  int live_buf_ = 0;
  bool staged_valid_ = false;
  std::vector<ShardAccum> staged_accum_;
  bool lane_pending_ = false;      // a lane task awaits the next join
  bool prefetch_pending_ = false;  // that task builds the next round
  std::int64_t aux_topology_ns_ = 0;
  std::int64_t aux_validate_ns_ = 0;

  // Memory accounting (EnsureStarted): budget_ points at the caller's
  // MemoryBudget or the engine-owned fallback; gauge pointers are resolved
  // once and stable.
  util::MemoryBudget owned_budget_;
  util::MemoryBudget* budget_ = nullptr;
  util::MemoryGauge* mem_outbox_ = nullptr;
  util::MemoryGauge* mem_programs_ = nullptr;
  util::MemoryGauge* mem_topology_ = nullptr;
  util::MemoryGauge* mem_topology_scratch_ = nullptr;
  util::MemoryGauge* mem_adversary_ = nullptr;
  util::MemoryGauge* mem_checker_ = nullptr;

  // Observability sinks (EnsureStarted): both null/off by default. The
  // recorder pointer gate is the whole off-switch — no event code runs
  // without it. Emission happens outside the timed windows, and nothing
  // here feeds back into the run, so RunStats is bit-identical either way.
  obs::FlightRecorder* rec_ = nullptr;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  obs::Histogram* hist_round_edges_ = nullptr;
  obs::Histogram* hist_round_deliveries_ = nullptr;
  std::array<obs::Histogram*, kPhases.size()> hist_phase_{};  // per kPhases
  obs::Histogram* hist_aux_wait_ns_ = nullptr;
  /// Anomaly plane (EngineOptions::anomaly, behind the registry gate).
  /// Observed after the final clock read; never consulted by the engine.
  std::unique_ptr<obs::AnomalyEngine> anomaly_;
  const char* obs_algo_label_ = nullptr;  // last emitted algo-phase label
  std::int64_t obs_algo_index_ = -1;
  std::int64_t obs_merges_total_ = 0;
  std::int64_t obs_stable_edges_ = -1;  // last emitted checker state
  bool obs_checker_ok_ = true;
  std::int64_t obs_cert_ = -1;          // last emitted certified-T
  std::int64_t obs_hw_bits_ = 0;  // last emitted bandwidth high water

  // The auxiliary pipelining lane — declared last so its destructor
  // (which joins a running task) runs before the members the task touches
  // (adversary_, topo_, delta_, checker_, ProduceTopology's outputs) are
  // destroyed. Mutable because const stats() is a deterministic
  // rendezvous.
  mutable util::AuxLane lane_;
};

}  // namespace sdn::net
