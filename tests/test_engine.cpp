#include "net/engine.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "adversary/factory.hpp"
#include "adversary/replay.hpp"
#include "adversary/static_adversary.hpp"
#include "algo/flood_max.hpp"
#include "graph/generators.hpp"
#include "net/trace.hpp"
#include "obs/recorder.hpp"
#include "util/check.hpp"

namespace sdn::net {
namespace {

using adversary::StaticAdversary;
using algo::FloodMaxKnownN;

/// Minimal test program: counts how many neighbor messages it has ever seen
/// and decides after a fixed number of rounds.
class InboxCounter {
 public:
  struct Message {
    std::int32_t payload = 7;
  };
  using Output = std::int64_t;

  InboxCounter(Round decide_after, bool silent = false)
      : decide_after_(decide_after), silent_(silent) {}

  std::optional<Message> OnSend(Round) {
    if (silent_) return std::nullopt;
    return Message{};
  }
  void OnReceive(Round r, Inbox<Message> inbox) {
    seen_ += static_cast<std::int64_t>(inbox.size());
    if (r >= decide_after_) decided_ = true;
  }
  [[nodiscard]] bool HasDecided() const { return decided_; }
  [[nodiscard]] std::optional<Output> output() const {
    return decided_ ? std::optional<Output>(seen_) : std::nullopt;
  }
  [[nodiscard]] double PublicState() const {
    return static_cast<double>(seen_);
  }
  static std::size_t MessageBits(const Message&) { return 32; }

 private:
  Round decide_after_;
  bool silent_;
  std::int64_t seen_ = 0;
  bool decided_ = false;
};

static_assert(NodeProgram<InboxCounter>);
static_assert(NodeProgram<FloodMaxKnownN>);

TEST(Engine, DeliversToNeighborsOnly) {
  // Path 0-1-2: after 1 round, middle node saw 2 messages, ends saw 1.
  StaticAdversary adv(graph::Path(3));
  std::vector<InboxCounter> nodes(3, InboxCounter(1));
  Engine<InboxCounter> engine(std::move(nodes), adv, {});
  const RunStats stats = engine.Run();
  EXPECT_TRUE(stats.all_decided);
  EXPECT_EQ(stats.rounds, 1);
  EXPECT_EQ(engine.node(0).output(), 1);
  EXPECT_EQ(engine.node(1).output(), 2);
  EXPECT_EQ(engine.node(2).output(), 1);
}

TEST(Engine, SilentNodesSendNothing) {
  StaticAdversary adv(graph::Complete(4));
  std::vector<InboxCounter> nodes;
  nodes.emplace_back(1, false);
  nodes.emplace_back(1, true);
  nodes.emplace_back(1, true);
  nodes.emplace_back(1, true);
  Engine<InboxCounter> engine(std::move(nodes), adv, {});
  const RunStats stats = engine.Run();
  EXPECT_EQ(stats.messages_sent, 1);
  ASSERT_EQ(stats.sends_per_node.size(), 4u);
  EXPECT_EQ(stats.sends_per_node[0], 1);
  EXPECT_EQ(stats.sends_per_node[1], 0);
  EXPECT_EQ(engine.node(0).output(), 0);  // others silent
  EXPECT_EQ(engine.node(1).output(), 1);
}

TEST(Engine, CountsBitsAndMessages) {
  StaticAdversary adv(graph::Path(3));
  std::vector<InboxCounter> nodes(3, InboxCounter(2));
  Engine<InboxCounter> engine(std::move(nodes), adv, {});
  const RunStats stats = engine.Run();
  EXPECT_EQ(stats.rounds, 2);
  EXPECT_EQ(stats.messages_sent, 6);
  EXPECT_EQ(stats.total_message_bits, 6 * 32);
  EXPECT_EQ(stats.max_message_bits, 32);
  EXPECT_DOUBLE_EQ(stats.AvgBitsPerMessage(), 32.0);
  EXPECT_DOUBLE_EQ(stats.BitsPerNodeRound(3), 32.0);
}

TEST(Engine, BandwidthBudgetEnforced) {
  StaticAdversary adv(graph::Path(3));
  std::vector<InboxCounter> nodes(3, InboxCounter(1));
  EngineOptions opts;
  // 32-bit messages against a ~1.6-bit budget (floor 1) must trip the check.
  opts.bandwidth = BandwidthPolicy::BoundedLogN(1.0, 1);
  Engine<InboxCounter> engine(std::move(nodes), adv, opts);
  EXPECT_THROW(engine.Run(), util::CheckError);
}

TEST(Engine, BandwidthViolationAttributedInStats) {
  // The thrown CheckError must leave the violation inspectable: the lowest
  // violating node of the violating round, with the offending message size.
  StaticAdversary adv(graph::Path(3));
  std::vector<InboxCounter> nodes(3, InboxCounter(1));
  EngineOptions opts;
  opts.bandwidth = BandwidthPolicy::BoundedLogN(1.0, 1);
  Engine<InboxCounter> engine(std::move(nodes), adv, opts);
  EXPECT_THROW(engine.Run(), util::CheckError);
  const RunStats stats = engine.stats();
  ASSERT_TRUE(stats.bandwidth_violation.has_value());
  EXPECT_EQ(stats.bandwidth_violation->node, 0);  // all violate; lowest wins
  EXPECT_EQ(stats.bandwidth_violation->round, 1);
  EXPECT_EQ(stats.bandwidth_violation->bits, 32);
  EXPECT_GT(stats.bandwidth_violation->bits, stats.bit_limit);
  EXPECT_TRUE(engine.finished());
  EXPECT_FALSE(stats.all_decided);
}

TEST(Engine, MaxRoundsStopsUndecidedRun) {
  StaticAdversary adv(graph::Path(3));
  std::vector<InboxCounter> nodes(3, InboxCounter(1000));
  EngineOptions opts;
  opts.max_rounds = 10;
  Engine<InboxCounter> engine(std::move(nodes), adv, opts);
  const RunStats stats = engine.Run();
  EXPECT_FALSE(stats.all_decided);
  EXPECT_TRUE(stats.hit_max_rounds);
  EXPECT_EQ(stats.rounds, 10);
  EXPECT_EQ(stats.decide_round[0], -1);
}

TEST(Engine, CompletedRunIsNotFlaggedTruncated) {
  StaticAdversary adv(graph::Path(3));
  std::vector<InboxCounter> nodes(3, InboxCounter(2));
  Engine<InboxCounter> engine(std::move(nodes), adv, {});
  const RunStats stats = engine.Run();
  EXPECT_TRUE(stats.all_decided);
  EXPECT_FALSE(stats.hit_max_rounds);
}

TEST(Engine, DecideRoundsRecorded) {
  StaticAdversary adv(graph::Path(4));
  std::vector<InboxCounter> nodes;
  for (Round r = 1; r <= 4; ++r) nodes.emplace_back(r);
  Engine<InboxCounter> engine(std::move(nodes), adv, {});
  const RunStats stats = engine.Run();
  EXPECT_TRUE(stats.all_decided);
  EXPECT_EQ(stats.first_decide_round, 1);
  EXPECT_EQ(stats.last_decide_round, 4);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(stats.decide_round[static_cast<std::size_t>(i)], i + 1);
  }
}

/// Steps `engine` to completion, copying every round's topology.
template <typename A>
RunStats RunRecordingTopologies(Engine<A>& engine,
                                std::vector<graph::Graph>& trace) {
  while (engine.Step()) trace.push_back(engine.last_topology());
  return engine.stats();
}

TEST(Engine, LastTopologyIsEachRoundsGraph) {
  StaticAdversary adv(graph::Cycle(5));
  std::vector<InboxCounter> nodes(5, InboxCounter(3));
  Engine<InboxCounter> engine(std::move(nodes), adv, {});
  std::vector<graph::Graph> trace;
  (void)RunRecordingTopologies(engine, trace);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0], graph::Cycle(5));
}

TEST(Engine, RecordedRunReplaysIdentically) {
  // Record the topologies of one run, replay them through ReplayAdversary:
  // a deterministic algorithm must produce the identical execution.
  adversary::AdversaryConfig config;
  config.kind = "spine-rtree";
  config.n = 12;
  config.T = 2;
  config.seed = 31;
  const auto original = adversary::MakeAdversary(config);

  const auto make_nodes = [] {
    std::vector<FloodMaxKnownN> nodes;
    for (graph::NodeId u = 0; u < 12; ++u) {
      nodes.emplace_back(u, 12, static_cast<algo::Value>((u * 5) % 7));
    }
    return nodes;
  };

  std::vector<graph::Graph> trace;
  Engine<FloodMaxKnownN> first(make_nodes(), *original, {});
  const RunStats first_stats = RunRecordingTopologies(first, trace);

  adversary::ReplayAdversary replay(trace, 2);
  std::vector<graph::Graph> trace2;
  Engine<FloodMaxKnownN> second(make_nodes(), replay, {});
  const RunStats second_stats = RunRecordingTopologies(second, trace2);

  EXPECT_EQ(first_stats.rounds, second_stats.rounds);
  EXPECT_EQ(first_stats.messages_sent, second_stats.messages_sent);
  EXPECT_EQ(first_stats.total_message_bits, second_stats.total_message_bits);
  for (graph::NodeId u = 0; u < 12; ++u) {
    EXPECT_EQ(first.node(u).output(), second.node(u).output());
  }
  // Recording a replayed run must reproduce the trace exactly.
  EXPECT_EQ(trace, trace2);
}

TEST(Engine, MeasuresFloodingTime) {
  StaticAdversary adv(graph::Path(8));
  std::vector<InboxCounter> nodes(8, InboxCounter(20));
  EngineOptions opts;
  opts.flood_probes = 3;
  Engine<InboxCounter> engine(std::move(nodes), adv, opts);
  const RunStats stats = engine.Run();
  // Completed probe slots respawn at staggered start rounds, so the spawn
  // count grows past the requested 3.
  EXPECT_GE(stats.flooding.probes, 3);
  EXPECT_GE(stats.flooding.completed, 3);
  // Probe from node 0 on a path takes exactly 7 rounds; no source takes more.
  EXPECT_EQ(stats.flooding.max_rounds, 7);
}

/// Fast then slow: complete graph for the first 20 rounds, then a path.
class DegradingAdversary final : public Adversary {
 public:
  explicit DegradingAdversary(graph::NodeId n)
      : fast_(graph::Complete(n)), slow_(graph::Path(n)) {}
  [[nodiscard]] graph::NodeId num_nodes() const override {
    return fast_.num_nodes();
  }
  [[nodiscard]] int interval() const override { return 1; }
  graph::Graph TopologyFor(std::int64_t round, const AdversaryView&) override {
    return round <= 20 ? fast_ : slow_;
  }
  [[nodiscard]] std::string name() const override { return "degrading"; }

 private:
  graph::Graph fast_;
  graph::Graph slow_;
};

TEST(Engine, RespawnedProbeBeyondRunEndIsNotCounted) {
  // Path(8), one probe from node 0: completes at round 7, respawns with
  // start round 14 — past max_rounds 10, so it never runs a round. The
  // summary must not count the never-started respawn as a spawned probe
  // (it would read as a phantom incomplete probe and understate d coverage).
  StaticAdversary adv(graph::Path(8));
  std::vector<InboxCounter> nodes(8, InboxCounter(1000));
  EngineOptions opts;
  opts.flood_probes = 1;
  opts.max_rounds = 10;
  Engine<InboxCounter> engine(std::move(nodes), adv, opts);
  const RunStats stats = engine.Run();
  EXPECT_EQ(stats.flooding.completed, 1);
  EXPECT_EQ(stats.flooding.probes, 1);
  EXPECT_EQ(stats.flooding.max_rounds, 7);
}

TEST(Engine, StaggeredProbesSeeDegradedFloodingTime) {
  // Probes that all start in round 1 complete in 1 round on the complete
  // phase and would report d = 1 forever; the respawned probes sample start
  // rounds deep into the path phase, where every source needs >= 8 rounds on
  // Path(16).
  DegradingAdversary adv(16);
  std::vector<InboxCounter> nodes(16, InboxCounter(300));
  EngineOptions opts;
  opts.flood_probes = 1;
  opts.max_rounds = 300;
  Engine<InboxCounter> engine(std::move(nodes), adv, opts);
  const RunStats stats = engine.Run();
  EXPECT_GT(stats.flooding.probes, 1);
  EXPECT_GE(stats.flooding.max_rounds, 8);
}

TEST(Engine, FloodMaxDecidesTrueMaxOnStaticPath) {
  const graph::NodeId n = 16;
  StaticAdversary adv(graph::Path(n));
  std::vector<FloodMaxKnownN> nodes;
  for (graph::NodeId u = 0; u < n; ++u) {
    nodes.emplace_back(u, n, static_cast<algo::Value>(u * 10 % 70));
  }
  Engine<FloodMaxKnownN> engine(std::move(nodes), adv, {});
  const RunStats stats = engine.Run();
  EXPECT_TRUE(stats.all_decided);
  EXPECT_EQ(stats.rounds, n - 1);
  for (graph::NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(engine.node(u).output(), 60);
  }
}

TEST(Engine, SingleNodeDecidesAtRoundZero) {
  StaticAdversary adv(graph::Graph(1));
  std::vector<FloodMaxKnownN> nodes;
  nodes.emplace_back(0, 1, 42);
  Engine<FloodMaxKnownN> engine(std::move(nodes), adv, {});
  const RunStats stats = engine.Run();
  EXPECT_TRUE(stats.all_decided);
  EXPECT_EQ(stats.rounds, 0);
  EXPECT_EQ(engine.node(0).output(), 42);
}

/// Program whose Message counts copy operations — the zero-copy delivery
/// contract says a run performs none.
class CopySpy {
 public:
  struct Message {
    std::int64_t payload = 0;
    Message() = default;
    explicit Message(std::int64_t p) : payload(p) {}
    Message(const Message& other) : payload(other.payload) { ++copies; }
    Message& operator=(const Message& other) {
      payload = other.payload;
      ++copies;
      return *this;
    }
    Message(Message&&) = default;
    Message& operator=(Message&&) = default;
    static inline std::int64_t copies = 0;
  };
  using Output = std::int64_t;

  explicit CopySpy(Round decide_after) : decide_after_(decide_after) {}

  std::optional<Message> OnSend(Round r) { return Message(r); }
  void OnReceive(Round r, Inbox<Message> inbox) {
    for (const Message& m : inbox) sum_ += m.payload;
    if (r >= decide_after_) decided_ = true;
  }
  [[nodiscard]] bool HasDecided() const { return decided_; }
  [[nodiscard]] std::optional<Output> output() const {
    return decided_ ? std::optional<Output>(sum_) : std::nullopt;
  }
  [[nodiscard]] double PublicState() const { return 0.0; }
  static std::size_t MessageBits(const Message&) { return 64; }

 private:
  Round decide_after_;
  std::int64_t sum_ = 0;
  bool decided_ = false;
};

static_assert(NodeProgram<CopySpy>);

TEST(Engine, DeliveryMakesZeroMessageCopies) {
  // Every node sends, so dense_delivery=true exercises the CSR path and
  // dense_delivery=false the pointer gather; both are zero-copy.
  for (const bool dense : {true, false}) {
    CopySpy::Message::copies = 0;
    StaticAdversary adv(graph::Complete(6));
    std::vector<CopySpy> nodes(6, CopySpy(4));
    EngineOptions opts;
    opts.delivery = dense ? DeliveryMode::kDense : DeliveryMode::kGather;
    Engine<CopySpy> engine(std::move(nodes), adv, opts);
    const RunStats stats = engine.Run();
    EXPECT_EQ(CopySpy::Message::copies, 0) << "dense=" << dense;
    // 6 nodes x 5 neighbors x 4 rounds delivered, never copied.
    EXPECT_EQ(stats.messages_delivered, 6 * 5 * 4) << "dense=" << dense;
  }
}

/// Records the address and payload of every received message so a test can
/// assert that all receivers of one broadcast alias the same object.
class AliasProbe {
 public:
  struct Message {
    std::int64_t payload = 0;
  };
  using Output = std::int64_t;

  AliasProbe(graph::NodeId id, Round decide_after, bool all_send = false)
      : id_(id), decide_after_(decide_after), all_send_(all_send) {}

  std::optional<Message> OnSend(Round r) {
    if (!all_send_ && id_ != 0) return std::nullopt;
    return Message{id_ == 0 ? r * 100 : id_ * 1000 + r};
  }
  void OnReceive(Round r, Inbox<Message> inbox) {
    if (inbox.dense()) ++dense_rounds_;
    for (const Message& m : inbox) {
      seen_addrs_.push_back(&m);
      seen_payloads_.push_back(m.payload);
    }
    if (r >= decide_after_) decided_ = true;
  }
  [[nodiscard]] bool HasDecided() const { return decided_; }
  [[nodiscard]] std::optional<Output> output() const {
    return decided_ ? std::optional<Output>(0) : std::nullopt;
  }
  [[nodiscard]] double PublicState() const { return 0.0; }
  static std::size_t MessageBits(const Message&) { return 64; }

  [[nodiscard]] const std::vector<const void*>& seen_addrs() const {
    return seen_addrs_;
  }
  [[nodiscard]] const std::vector<std::int64_t>& seen_payloads() const {
    return seen_payloads_;
  }
  [[nodiscard]] std::int64_t dense_rounds() const { return dense_rounds_; }

 private:
  graph::NodeId id_;
  Round decide_after_;
  bool all_send_;
  std::vector<const void*> seen_addrs_;
  std::vector<std::int64_t> seen_payloads_;
  std::int64_t dense_rounds_ = 0;
  bool decided_ = false;
};

static_assert(NodeProgram<AliasProbe>);

TEST(Engine, ReceiversShareOneMessageInstance) {
  // Star: node 0 broadcasts to 5 leaves. Every leaf's inbox entry must be
  // the very same object (zero-copy aliasing), and since OnReceive only gets
  // const access, the payload each leaf reads must be the pristine one.
  std::vector<graph::Edge> edges;
  for (graph::NodeId v = 1; v <= 5; ++v) edges.emplace_back(0, v);
  StaticAdversary adv(graph::Graph(6, edges));
  std::vector<AliasProbe> nodes;
  for (graph::NodeId u = 0; u < 6; ++u) nodes.emplace_back(u, 3);
  Engine<AliasProbe> engine(std::move(nodes), adv, {});
  (void)engine.Run();
  for (Round r = 1; r <= 3; ++r) {
    const auto i = static_cast<std::size_t>(r - 1);
    ASSERT_EQ(engine.node(1).seen_addrs().size(), 3u);
    const void* addr = engine.node(1).seen_addrs()[i];
    for (graph::NodeId u = 1; u <= 5; ++u) {
      ASSERT_EQ(engine.node(u).seen_addrs().size(), 3u);
      EXPECT_EQ(engine.node(u).seen_addrs()[i], addr);
      EXPECT_EQ(engine.node(u).seen_payloads()[i], r * 100);
    }
  }
  // Only node 0 sends, so every round stays on the sparse gather path.
  for (graph::NodeId u = 0; u < 6; ++u) {
    EXPECT_EQ(engine.node(u).dense_rounds(), 0);
  }
}

TEST(Engine, DenseDeliveryAliasesOutboxSlots) {
  // Complete(4) with everyone sending and the dense backing forced: each
  // round is an all-sender round, so every round takes the dense CSR path.
  // The aliasing contract is the same as the gather path's: every receiver
  // of sender v's round-r message reads the very same object (the sender's
  // outbox slot), zero copies.
  StaticAdversary adv(graph::Complete(4));
  std::vector<AliasProbe> nodes;
  for (graph::NodeId u = 0; u < 4; ++u) {
    nodes.emplace_back(u, 3, /*all_send=*/true);
  }
  EngineOptions opts;
  opts.delivery = DeliveryMode::kDense;
  Engine<AliasProbe> engine(std::move(nodes), adv, opts);
  (void)engine.Run();
  for (graph::NodeId u = 0; u < 4; ++u) {
    EXPECT_EQ(engine.node(u).dense_rounds(), 3);
    ASSERT_EQ(engine.node(u).seen_addrs().size(), 9u);  // 3 neighbors x 3
  }
  // Group observed addresses by payload (payloads are unique per
  // sender-round); all receivers of a payload must have seen one address.
  for (Round r = 1; r <= 3; ++r) {
    for (graph::NodeId v = 0; v < 4; ++v) {
      const std::int64_t want = v == 0 ? r * 100 : v * 1000 + r;
      const void* addr = nullptr;
      int receivers = 0;
      for (graph::NodeId u = 0; u < 4; ++u) {
        if (u == v) continue;
        const auto& payloads = engine.node(u).seen_payloads();
        for (std::size_t i = 0; i < payloads.size(); ++i) {
          if (payloads[i] != want) continue;
          ++receivers;
          if (addr == nullptr) addr = engine.node(u).seen_addrs()[i];
          EXPECT_EQ(engine.node(u).seen_addrs()[i], addr)
              << "sender " << v << " round " << r;
        }
      }
      EXPECT_EQ(receivers, 3) << "sender " << v << " round " << r;
    }
  }
}

/// Sends from everyone on even rounds but only from even ids on odd rounds,
/// so a run mixes dense (all-sender) and sparse (gather) rounds.
class Alternator {
 public:
  struct Message {
    std::int64_t payload = 0;
  };
  using Output = std::int64_t;

  Alternator(graph::NodeId id, Round decide_after)
      : id_(id), decide_after_(decide_after) {}

  std::optional<Message> OnSend(Round r) {
    if (r % 2 == 1 && id_ % 2 == 1) return std::nullopt;
    return Message{r * 31 + id_};
  }
  void OnReceive(Round r, Inbox<Message> inbox) {
    if (inbox.dense()) ++dense_rounds_;
    for (const Message& m : inbox) sum_ += m.payload;
    if (r >= decide_after_) decided_ = true;
  }
  [[nodiscard]] bool HasDecided() const { return decided_; }
  [[nodiscard]] std::optional<Output> output() const {
    return decided_ ? std::optional<Output>(sum_) : std::nullopt;
  }
  [[nodiscard]] double PublicState() const { return 0.0; }
  static std::size_t MessageBits(const Message&) { return 64; }
  [[nodiscard]] std::int64_t dense_rounds() const { return dense_rounds_; }

 private:
  graph::NodeId id_;
  Round decide_after_;
  std::int64_t sum_ = 0;
  std::int64_t dense_rounds_ = 0;
  bool decided_ = false;
};

static_assert(NodeProgram<Alternator>);

TEST(Engine, DenseAndGatherAgreeAcrossSilentRounds) {
  // Rounds alternate between all-sender (dense eligible) and half-silent
  // (gather only). Forcing the gather path everywhere must not change any
  // stat or any node's payload sum — the two backings are interchangeable.
  const auto run = [](bool dense) {
    StaticAdversary adv(graph::Cycle(12));
    std::vector<Alternator> nodes;
    for (graph::NodeId u = 0; u < 12; ++u) nodes.emplace_back(u, 8);
    EngineOptions opts;
    opts.delivery = dense ? DeliveryMode::kDense : DeliveryMode::kGather;
    Engine<Alternator> engine(std::move(nodes), adv, opts);
    const RunStats stats = engine.Run();
    std::vector<std::int64_t> outputs;
    std::int64_t dense_rounds = 0;
    for (graph::NodeId u = 0; u < 12; ++u) {
      outputs.push_back(*engine.node(u).output());
      dense_rounds += engine.node(u).dense_rounds();
    }
    return std::tuple(stats, outputs, dense_rounds);
  };
  const auto [dense_stats, dense_out, dense_rounds] = run(true);
  const auto [gather_stats, gather_out, gather_rounds] = run(false);
  // 4 of 8 rounds are all-sender; the dense run must actually take the
  // dense path there (12 nodes each), and the forced-gather run never.
  EXPECT_EQ(dense_rounds, 4 * 12);
  EXPECT_EQ(gather_rounds, 0);
  EXPECT_EQ(dense_out, gather_out);
  EXPECT_EQ(dense_stats.rounds, gather_stats.rounds);
  EXPECT_EQ(dense_stats.messages_sent, gather_stats.messages_sent);
  EXPECT_EQ(dense_stats.messages_delivered, gather_stats.messages_delivered);
  EXPECT_EQ(dense_stats.total_message_bits, gather_stats.total_message_bits);
  EXPECT_EQ(dense_stats.decide_round, gather_stats.decide_round);
  EXPECT_EQ(dense_stats.sends_per_node, gather_stats.sends_per_node);
}

/// Promises T=2 but alternates between edge-disjoint spanning trees (the
/// path on odd rounds; node 0's star over 2..n-1 plus {1, n-1} on even
/// ones), so no 2-window has a stable connected subgraph.
class FlickerAdversary final : public Adversary {
 public:
  explicit FlickerAdversary(graph::NodeId n = 4)
      : odd_(graph::Path(n)), even_(n, EvenEdges(n)) {}
  [[nodiscard]] graph::NodeId num_nodes() const override {
    return odd_.num_nodes();
  }
  [[nodiscard]] int interval() const override { return 2; }
  graph::Graph TopologyFor(std::int64_t round, const AdversaryView&) override {
    return round % 2 == 1 ? odd_ : even_;
  }
  [[nodiscard]] std::string name() const override { return "flicker"; }

 private:
  static std::vector<graph::Edge> EvenEdges(graph::NodeId n) {
    std::vector<graph::Edge> edges;
    for (graph::NodeId v = 2; v < n; ++v) edges.push_back({0, v});
    edges.push_back({1, n - 1});
    return edges;
  }
  graph::Graph odd_;
  graph::Graph even_;
};

TEST(Engine, ValidationOffIsReportedHonestly) {
  // With validation off the engine must not claim the promise held: ok stays
  // vacuously true but tinterval_validated says no check ran.
  FlickerAdversary adv;
  std::vector<InboxCounter> nodes(4, InboxCounter(4));
  EngineOptions opts;
  opts.validate_tinterval = false;
  Engine<InboxCounter> engine(std::move(nodes), adv, opts);
  const RunStats stats = engine.Run();
  EXPECT_FALSE(stats.tinterval_validated);
  EXPECT_TRUE(stats.tinterval_ok);
}

TEST(Engine, ValidationOnCatchesBrokenPromise) {
  FlickerAdversary adv;
  std::vector<InboxCounter> nodes(4, InboxCounter(4));
  Engine<InboxCounter> engine(std::move(nodes), adv, {});
  const RunStats stats = engine.Run();
  EXPECT_TRUE(stats.tinterval_validated);
  EXPECT_FALSE(stats.tinterval_ok);
}

TEST(Engine, RunTwiceRejected) {
  StaticAdversary adv(graph::Path(2));
  std::vector<InboxCounter> nodes(2, InboxCounter(1));
  Engine<InboxCounter> engine(std::move(nodes), adv, {});
  (void)engine.Run();
  EXPECT_THROW(engine.Run(), util::CheckError);
}

TEST(Engine, ParallelStatsMatchSerial) {
  // n = 200 -> 3 shards, so threads = 4 genuinely exercises the pool path;
  // every stat except wall-clock timings must be bit-identical to serial.
  const graph::NodeId n = 200;
  const auto run = [n](int threads) {
    StaticAdversary adv(graph::Cycle(n));
    std::vector<InboxCounter> nodes(
        static_cast<std::size_t>(n), InboxCounter(25));
    EngineOptions opts;
    opts.threads = threads;
    Engine<InboxCounter> engine(std::move(nodes), adv, opts);
    return engine.Run();
  };
  const RunStats serial = run(1);
  const RunStats parallel = run(4);
  EXPECT_EQ(serial.rounds, parallel.rounds);
  EXPECT_EQ(serial.messages_sent, parallel.messages_sent);
  EXPECT_EQ(serial.messages_delivered, parallel.messages_delivered);
  EXPECT_EQ(serial.total_message_bits, parallel.total_message_bits);
  EXPECT_EQ(serial.max_message_bits, parallel.max_message_bits);
  EXPECT_EQ(serial.decide_round, parallel.decide_round);
  EXPECT_EQ(serial.sends_per_node, parallel.sends_per_node);
  EXPECT_EQ(serial.flooding.probes, parallel.flooding.probes);
  EXPECT_EQ(serial.flooding.max_rounds, parallel.flooding.max_rounds);
}

TEST(Engine, WrongSizeAdversaryRejected) {
  StaticAdversary adv(graph::Path(3));
  std::vector<InboxCounter> nodes(2, InboxCounter(1));
  EXPECT_THROW((Engine<InboxCounter>(std::move(nodes), adv, {})),
               util::CheckError);
}

// ---------------------------------------------------------------------------
// Direct-send (OnSendInto) programs.

/// Alternator twin that composes its message in place via OnSendInto. The
/// engine must produce the identical run, and silent decisions (return
/// false) must keep the stale slot contents out of every inbox.
class DirectAlternator {
 public:
  using Message = Alternator::Message;
  using Output = std::int64_t;

  DirectAlternator(graph::NodeId id, Round decide_after)
      : id_(id), decide_after_(decide_after) {}

  std::optional<Message> OnSend(Round r) {
    Message m;
    if (!OnSendInto(r, m)) return std::nullopt;
    return m;
  }
  bool OnSendInto(Round r, Message& m) {
    if (r % 2 == 1 && id_ % 2 == 1) {
      m.payload = -1;  // deliberately poison the slot: must never be seen
      return false;
    }
    m.payload = r * 31 + id_;
    return true;
  }
  void OnReceive(Round r, Inbox<Message> inbox) {
    for (const Message& m : inbox) {
      SDN_CHECK(m.payload >= 0);  // a poisoned slot leaked into an inbox
      sum_ += m.payload;
    }
    if (r >= decide_after_) decided_ = true;
  }
  [[nodiscard]] bool HasDecided() const { return decided_; }
  [[nodiscard]] std::optional<Output> output() const {
    return decided_ ? std::optional<Output>(sum_) : std::nullopt;
  }
  [[nodiscard]] double PublicState() const { return 0.0; }
  static std::size_t MessageBits(const Message&) { return 64; }

 private:
  graph::NodeId id_;
  Round decide_after_;
  std::int64_t sum_ = 0;
  bool decided_ = false;
};

static_assert(DirectSendProgram<DirectAlternator>);
// Plain programs must keep taking the optional-returning path.
static_assert(NodeProgram<Alternator> && !DirectSendProgram<Alternator>);

TEST(Engine, DirectSendMatchesOptionalSend) {
  // The same protocol via OnSendInto (composed in place in the outbox slot)
  // and via OnSend (optional returned, moved into the slot) must produce
  // bit-identical runs — and the DirectAlternator's OnReceive SDN_CHECK
  // proves a declined slot's poisoned contents never reach an inbox.
  const auto run = [](auto make_node) {
    StaticAdversary adv(graph::Cycle(10));
    using Node = decltype(make_node(graph::NodeId{0}));
    std::vector<Node> nodes;
    for (graph::NodeId u = 0; u < 10; ++u) nodes.push_back(make_node(u));
    Engine<Node> engine(std::move(nodes), adv, {});
    const RunStats stats = engine.Run();
    std::vector<std::int64_t> outputs;
    for (graph::NodeId u = 0; u < 10; ++u) {
      outputs.push_back(*engine.node(u).output());
    }
    return std::pair(stats, outputs);
  };
  const auto [direct_stats, direct_out] =
      run([](graph::NodeId u) { return DirectAlternator(u, 8); });
  const auto [optional_stats, optional_out] =
      run([](graph::NodeId u) { return Alternator(u, 8); });
  EXPECT_EQ(direct_out, optional_out);
  EXPECT_EQ(direct_stats.rounds, optional_stats.rounds);
  EXPECT_EQ(direct_stats.messages_sent, optional_stats.messages_sent);
  EXPECT_EQ(direct_stats.messages_delivered,
            optional_stats.messages_delivered);
  EXPECT_EQ(direct_stats.sends_per_node, optional_stats.sends_per_node);
  EXPECT_EQ(direct_stats.decide_round, optional_stats.decide_round);
}

// ---------------------------------------------------------------------------
// The from-scratch reference and delta gating.

/// The from-scratch reference: forwards TopologyFor and nothing faster (no
/// RoundEdgesInto, no DeltaFor override, no composition claim), so the
/// engine runs the base DeltaFor — Diff(previous round, TopologyFor) — and
/// certifies by delta. Size, T, name and obliviousness are forwarded
/// because the engine's rules read them.
class FromScratchAdversary final : public Adversary {
 public:
  explicit FromScratchAdversary(Adversary& inner) : inner_(inner) {}
  [[nodiscard]] graph::NodeId num_nodes() const override {
    return inner_.num_nodes();
  }
  [[nodiscard]] int interval() const override { return inner_.interval(); }
  graph::Graph TopologyFor(std::int64_t round,
                           const AdversaryView& view) override {
    return inner_.TopologyFor(round, view);
  }
  [[nodiscard]] bool oblivious() const override { return inner_.oblivious(); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  Adversary& inner_;
};

/// Every deterministic RunStats field (timings and memory excluded).
auto CoreStats(const RunStats& s) {
  return std::tie(s.rounds, s.all_decided, s.hit_max_rounds,
                  s.first_decide_round, s.last_decide_round, s.decide_round,
                  s.messages_sent, s.sends_per_node, s.total_message_bits,
                  s.max_message_bits, s.edges_processed, s.messages_delivered,
                  s.tinterval_validated, s.tinterval_ok, s.certified_T,
                  s.min_stable_forest, s.tinterval_first_bad_window,
                  s.flooding.probes, s.flooding.completed,
                  s.flooding.max_rounds);
}

TEST(Engine, FromScratchReferenceMatchesEveryAdversaryPath) {
  // Each factory adversary runs through its fastest path (RoundEdgesInto,
  // its own DeltaFor, a composition claim); wrapped, the same adversary
  // runs from scratch. Both must give identical RunStats, serial and
  // pooled (n = 192 is three shards), validated or not.
  const graph::NodeId n = 192;
  for (const char* kind : {"spine-gnp", "spine-expander", "static-path",
                           "adaptive-desc", "mobile"}) {
    for (const int threads : {1, 2}) {
      for (const bool validate : {true, false}) {
        SCOPED_TRACE(std::string(kind) + " threads=" +
                     std::to_string(threads) +
                     " validate=" + std::to_string(validate));
        adversary::AdversaryConfig config;
        config.kind = kind;
        config.n = n;
        config.T = 2;
        config.seed = 11;
        const auto run = [&](bool scratch) {
          const auto adv = adversary::MakeAdversary(config);
          FromScratchAdversary wrapped(*adv);
          std::vector<FloodMaxKnownN> nodes;
          for (graph::NodeId u = 0; u < n; ++u) {
            nodes.emplace_back(u, n, (u * 37) % n);
          }
          EngineOptions opts;
          opts.threads = threads;
          opts.validate_tinterval = validate;
          Engine<FloodMaxKnownN> engine(
              std::move(nodes), scratch ? wrapped : *adv, opts);
          return engine.Run();
        };
        const RunStats native = run(false);
        const RunStats scratch = run(true);
        EXPECT_TRUE(native.all_decided);
        EXPECT_TRUE(native.tinterval_ok);
        EXPECT_EQ(CoreStats(native), CoreStats(scratch));
      }
    }
  }
}

TEST(Engine, ConsumersSeeEveryDeltaOnIncrementalPath) {
  // Regression for the delta-gating audit: the direct topology path skips
  // delta production unless a consumer needs one, and the topology trace
  // is such a consumer. Attach it together with the T-interval checker and
  // the flight recorder and pin the recorded trace against the
  // from-scratch reference's topologies.
  adversary::AdversaryConfig config;
  config.kind = "spine-gnp";
  config.n = 32;
  config.T = 2;
  config.seed = 77;
  const auto run = [&config](bool scratch, std::vector<graph::Graph>* trace,
                             TraceRecorder* trace_file,
                             obs::FlightRecorder* rec) {
    const auto adv = adversary::MakeAdversary(config);
    FromScratchAdversary wrapped(*adv);
    std::vector<InboxCounter> nodes(32, InboxCounter(40));
    EngineOptions opts;
    opts.record_trace = trace_file;
    opts.recorder = rec;
    Engine<InboxCounter> engine(std::move(nodes), scratch ? wrapped : *adv,
                                opts);
    return RunRecordingTopologies(engine, *trace);
  };
  const std::string path = ::testing::TempDir() + "sdn_consumers.trace";
  std::vector<graph::Graph> inc_trace;
  std::vector<graph::Graph> scratch_trace;
  TraceRecorder trace_file(path, 32, 2);
  obs::FlightRecorder rec;
  const RunStats inc = run(false, &inc_trace, &trace_file, &rec);
  trace_file.Close();
  const RunStats scratch = run(true, &scratch_trace, nullptr, nullptr);
  EXPECT_EQ(LoadTrace(path).rounds, inc_trace);
  std::remove(path.c_str());
  EXPECT_TRUE(inc.tinterval_validated);
  EXPECT_TRUE(inc.tinterval_ok);
  EXPECT_EQ(inc.rounds, scratch.rounds);
  EXPECT_EQ(inc.messages_delivered, scratch.messages_delivered);
  EXPECT_EQ(inc_trace, scratch_trace);
  EXPECT_GT(rec.total_emitted(), 0u);
}

// ---------------------------------------------------------------------------
// Always-on certification (PR 7): certified-T reporting, fail-fast, and the
// composition fast path.

TEST(Engine, CertifiedTAndFirstBadWindowRecorded) {
  // FlickerAdversary keeps every round connected (T=1 holds) but adjacent
  // rounds share no edges, so no 2-window certifies: the run must report
  // the observed level, not just a boolean.
  FlickerAdversary adv;
  std::vector<InboxCounter> nodes(4, InboxCounter(4));
  Engine<InboxCounter> engine(std::move(nodes), adv, {});
  const RunStats stats = engine.Run();
  EXPECT_TRUE(stats.tinterval_validated);
  EXPECT_FALSE(stats.tinterval_ok);
  EXPECT_EQ(stats.certified_T, 1);
  EXPECT_EQ(stats.tinterval_first_bad_window, 0);
}

TEST(Engine, CertifiedTEqualsTOnHonestRuns) {
  adversary::AdversaryConfig config;
  config.kind = "spine-gnp";
  config.n = 32;
  config.T = 3;
  config.seed = 9;
  const auto adv = adversary::MakeAdversary(config);
  std::vector<InboxCounter> nodes(32, InboxCounter(20));
  Engine<InboxCounter> engine(std::move(nodes), *adv, {});
  const RunStats stats = engine.Run();
  EXPECT_TRUE(stats.tinterval_ok);
  EXPECT_EQ(stats.certified_T, 3);
  EXPECT_EQ(stats.tinterval_first_bad_window, -1);
  EXPECT_EQ(stats.min_stable_forest, 31);
}

TEST(Engine, FailFastAtAPooledSizeAbortsAtTheSerialRound) {
  // Fail-fast keeps the checker off the lane (the verdict gates the round),
  // so a pooled run — n = 128 is two shards, threads = 2 — must throw at
  // exactly the serial engine's abort round, while the lane still
  // prefetches. Like a bandwidth violation, the books are closed before
  // the throw, so the violating window is in the stats snapshot.
  const auto run_fail_fast = [](int threads) {
    FlickerAdversary adv(128);
    std::vector<InboxCounter> nodes(128, InboxCounter(4));
    EngineOptions opts;
    opts.fail_fast_on_tinterval = true;
    opts.threads = threads;
    Engine<InboxCounter> engine(std::move(nodes), adv, opts);
    EXPECT_THROW(engine.Run(), util::CheckError);
    return engine.stats();
  };
  const RunStats serial = run_fail_fast(/*threads=*/1);
  const RunStats pooled = run_fail_fast(/*threads=*/2);
  EXPECT_EQ(serial.rounds, 2);
  EXPECT_EQ(serial.rounds, pooled.rounds);
  EXPECT_EQ(serial.tinterval_first_bad_window,
            pooled.tinterval_first_bad_window);
  EXPECT_EQ(pooled.tinterval_first_bad_window, 0);
  EXPECT_FALSE(pooled.tinterval_ok);
  EXPECT_EQ(serial.messages_delivered, pooled.messages_delivered);
  EXPECT_EQ(pooled.timings.aux_validate_ns, 0);
  EXPECT_GT(pooled.timings.aux_topology_ns, 0);
}

TEST(Engine, CompositionPathMatchesGeneralCheckerPath) {
  // The certification fast path (witness ids) and the delta-driven exact
  // checker must agree on every reported verdict field; only the internal
  // mechanism differs. Replaying the spine run's rounds through
  // ReplayAdversary, which publishes no composition, feeds the same
  // topology stream to the delta checker.
  adversary::AdversaryConfig config;
  config.kind = "spine-gnp";
  config.n = 48;
  config.T = 2;
  config.seed = 21;
  const auto spine = adversary::MakeAdversary(config);
  ASSERT_TRUE(spine->has_composition());
  std::vector<graph::Graph> rounds;
  Engine<InboxCounter> witness(std::vector<InboxCounter>(48, InboxCounter(40)),
                               *spine, {});
  const RunStats fast = RunRecordingTopologies(witness, rounds);
  adversary::ReplayAdversary replay(rounds, config.T);
  ASSERT_FALSE(replay.has_composition());
  Engine<InboxCounter> delta(std::vector<InboxCounter>(48, InboxCounter(40)),
                             replay, {});
  const RunStats general = delta.Run();
  EXPECT_EQ(fast.tinterval_ok, general.tinterval_ok);
  EXPECT_EQ(fast.certified_T, general.certified_T);
  EXPECT_EQ(fast.tinterval_first_bad_window,
            general.tinterval_first_bad_window);
  EXPECT_EQ(fast.min_stable_forest, general.min_stable_forest);
  EXPECT_EQ(fast.rounds, general.rounds);
  EXPECT_EQ(fast.messages_delivered, general.messages_delivered);
}

TEST(Engine, RecorderKeepsTheWitnessPath) {
  // Observation must not change how a run is certified: with a flight
  // recorder attached the spine run still certifies by witness identity,
  // so its checker track carries no stable edge count (-1).
  adversary::AdversaryConfig config;
  config.kind = "spine-gnp";
  config.n = 48;
  config.T = 2;
  config.seed = 21;
  const auto adv = adversary::MakeAdversary(config);
  obs::FlightRecorder rec;
  EngineOptions opts;
  opts.recorder = &rec;
  Engine<InboxCounter> engine(std::vector<InboxCounter>(48, InboxCounter(40)),
                              *adv, opts);
  const RunStats stats = engine.Run();
  EXPECT_EQ(stats.certified_T, 2);
  int windows = 0;
  for (const obs::Event& e : rec.Drain()) {
    if (e.kind != obs::EventKind::kCheckerWindow) continue;
    ++windows;
    EXPECT_EQ(e.a, -1) << "round " << e.round;
  }
  EXPECT_GT(windows, 0);
}

TEST(Engine, TopologyAndDeliveryPathCountersPartitionRounds) {
  // Every round takes exactly one topology path (direct or delta) and one
  // delivery backing (dense or gather) — the accessors the bench and PERF
  // docs cite must account for all of them.
  adversary::AdversaryConfig config;
  config.kind = "spine-gnp";
  config.n = 24;
  config.T = 2;
  config.seed = 5;
  const auto adv = adversary::MakeAdversary(config);
  std::vector<InboxCounter> nodes(24, InboxCounter(30));
  EngineOptions opts;
  opts.validate_tinterval = false;
  Engine<InboxCounter> engine(std::move(nodes), *adv, opts);
  const RunStats stats = engine.Run();
  EXPECT_EQ(engine.topology_direct_rounds() + engine.topology_delta_rounds(),
            stats.rounds);
  EXPECT_EQ(engine.dense_delivery_rounds() + engine.gather_delivery_rounds(),
            stats.rounds);
}

TEST(Engine, AllSentRoundsDeliverDenseByDefault) {
  // The default backing is dense on every all-sent round; kGather gathers
  // on every round. n = 256 is 4 shards, so threads = 2 runs both backings
  // on the pool. StaticAdversary keeps the default RoundEdgesInto, which
  // declines: the first decline pins DeltaFor, so no round is assigned
  // directly (at threads = 2 the decline happens on the engine's lane).
  const graph::NodeId n = 256;
  for (const int threads : {1, 2}) {
    for (const bool gather : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   (gather ? " gather" : " default"));
      StaticAdversary adv(graph::Cycle(n));
      std::vector<InboxCounter> nodes(static_cast<std::size_t>(n),
                                      InboxCounter(12));
      EngineOptions opts;
      opts.threads = threads;
      if (gather) opts.delivery = DeliveryMode::kGather;
      Engine<InboxCounter> engine(std::move(nodes), adv, opts);
      const RunStats stats = engine.Run();
      EXPECT_EQ(stats.rounds, 12);
      EXPECT_EQ(engine.dense_delivery_rounds(), gather ? 0 : stats.rounds);
      EXPECT_EQ(engine.gather_delivery_rounds(), gather ? stats.rounds : 0);
      EXPECT_EQ(engine.topology_direct_rounds(), 0);
      EXPECT_EQ(engine.topology_delta_rounds(), stats.rounds);
    }
  }
}

TEST(Engine, SilentRoundsGatherUnderTheDefaultBacking) {
  // Alternator silences the odd ids on odd rounds: exactly those rounds
  // gather, and every all-sent (even) round is dense.
  const graph::NodeId n = 256;
  for (const int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    StaticAdversary adv(graph::Cycle(n));
    std::vector<Alternator> nodes;
    for (graph::NodeId u = 0; u < n; ++u) nodes.emplace_back(u, 8);
    EngineOptions opts;
    opts.threads = threads;
    Engine<Alternator> engine(std::move(nodes), adv, opts);
    const RunStats stats = engine.Run();
    EXPECT_EQ(stats.rounds, 8);
    EXPECT_EQ(engine.gather_delivery_rounds(), 4);
    EXPECT_EQ(engine.dense_delivery_rounds(), 4);
  }
}

TEST(Engine, TopologyAssignsDirectlyWheneverTheAdversaryAccepts) {
  // spine-gnp implements RoundEdgesInto. A topology trace makes the run a
  // delta consumer, and every round is still assigned directly, with the
  // delta diffed from it. threads = 2 at n = 256 runs the producer on the
  // engine's lane.
  adversary::AdversaryConfig config;
  config.kind = "spine-gnp";
  config.n = 256;
  config.T = 2;
  config.seed = 13;
  const std::string path = ::testing::TempDir() + "sdn_direct.trace";
  for (const int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto adv = adversary::MakeAdversary(config);
    std::vector<InboxCounter> nodes(256, InboxCounter(30));
    TraceRecorder trace(path, 256, 2);
    EngineOptions opts;
    opts.threads = threads;
    opts.record_trace = &trace;
    Engine<InboxCounter> engine(std::move(nodes), *adv, opts);
    const RunStats stats = engine.Run();
    trace.Close();
    EXPECT_TRUE(stats.tinterval_ok);
    EXPECT_EQ(trace.rounds_written(), stats.rounds);
    EXPECT_EQ(engine.topology_delta_rounds(), 0);
    EXPECT_EQ(engine.topology_direct_rounds(), stats.rounds);
  }
  std::remove(path.c_str());
}

/// Oblivious cycle whose direct round list throws at round 5. Under a
/// prefetching engine that call runs on the lane, one round early.
class ThrowingCycleAdversary final : public Adversary {
 public:
  explicit ThrowingCycleAdversary(graph::NodeId n) : cycle_(graph::Cycle(n)) {}
  [[nodiscard]] graph::NodeId num_nodes() const override {
    return cycle_.num_nodes();
  }
  [[nodiscard]] int interval() const override { return 1; }
  graph::Graph TopologyFor(std::int64_t, const AdversaryView&) override {
    return cycle_;
  }
  bool RoundEdgesInto(std::int64_t round, const AdversaryView&,
                      std::vector<graph::Edge>& out) override {
    out.clear();
    if (round == 5) throw std::runtime_error("round 5 failed");
    out.assign(cycle_.Edges().begin(), cycle_.Edges().end());
    return true;
  }
  [[nodiscard]] std::string name() const override { return "throwing"; }

 private:
  graph::Graph cycle_;
};

TEST(Engine, FailedLaneTaskFailsEveryLaterStep) {
  // Round 5's topology is built on the lane during round 4 and fails. The
  // Step that joins it throws, and so must every retry and stats(): a
  // retry that went on would commit whatever the failed call left in the
  // edit buffer as round 5.
  const graph::NodeId n = 256;
  ThrowingCycleAdversary adv(n);
  EngineOptions opts;
  opts.threads = 2;
  opts.validate_tinterval = false;
  Engine<InboxCounter> engine(
      std::vector<InboxCounter>(static_cast<std::size_t>(n), InboxCounter(30)),
      adv, opts);
  for (int r = 1; r <= 4; ++r) ASSERT_TRUE(engine.Step()) << "round " << r;
  EXPECT_THROW(engine.Step(), std::runtime_error);
  EXPECT_THROW(engine.Step(), std::runtime_error);
  EXPECT_THROW((void)engine.stats(), std::runtime_error);
  EXPECT_EQ(engine.current_round(), 4);
}

TEST(Engine, LaneWorkFollowsTheOverlapRule) {
  // The engine's one lane certifies a round and then builds the next one.
  // Each half shows in its lane-side clock exactly when the overlap rule
  // engages it: certification on pooled runs with a checker and neither
  // fail-fast nor a recorder, prefetch on pooled runs of an oblivious
  // adversary. A run is pooled at threads > 1 and n >= 128. Neither half
  // moves a core stat.
  struct Row {
    const char* kind;
    graph::NodeId n;
    int threads;
    bool validate;
    bool fail_fast;
    bool recorder;
  };
  constexpr Row kRows[] = {
      {"spine-gnp", 256, 1, true, false, false},
      {"spine-gnp", 256, 2, true, false, false},
      {"spine-gnp", 256, 2, false, false, false},
      {"spine-gnp", 256, 2, true, true, false},
      {"spine-gnp", 256, 2, true, false, true},
      {"spine-gnp", 64, 2, true, false, false},
      {"adaptive-desc", 256, 1, true, false, false},
      {"adaptive-desc", 256, 2, true, false, false},
  };
  std::map<std::pair<std::string, graph::NodeId>, RunStats> reference;
  for (const Row& row : kRows) {
    SCOPED_TRACE(std::string(row.kind) + " n=" + std::to_string(row.n) +
                 " threads=" + std::to_string(row.threads) +
                 " validate=" + std::to_string(row.validate) +
                 " fail_fast=" + std::to_string(row.fail_fast) +
                 " recorder=" + std::to_string(row.recorder));
    adversary::AdversaryConfig config;
    config.kind = row.kind;
    config.n = row.n;
    config.T = 2;
    config.seed = 17;
    const auto adv = adversary::MakeAdversary(config);
    obs::FlightRecorder rec;
    EngineOptions opts;
    opts.threads = row.threads;
    opts.validate_tinterval = row.validate;
    opts.fail_fast_on_tinterval = row.fail_fast;
    if (row.recorder) opts.recorder = &rec;
    Engine<InboxCounter> engine(
        std::vector<InboxCounter>(static_cast<std::size_t>(row.n),
                                  InboxCounter(30)),
        *adv, opts);
    const RunStats stats = engine.Run();
    const bool pooled = row.threads > 1 && row.n >= 128;
    EXPECT_EQ(stats.timings.aux_validate_ns > 0,
              pooled && row.validate && !row.fail_fast && !row.recorder);
    EXPECT_EQ(stats.timings.aux_topology_ns > 0, pooled && adv->oblivious());
    if (!row.validate) continue;  // the certification fields differ
    EXPECT_EQ(stats.certified_T, 2);  // fail-fast is inert on honest runs
    const auto [it, first] =
        reference.emplace(std::pair{std::string(row.kind), row.n}, stats);
    if (!first) {
      EXPECT_EQ(CoreStats(it->second), CoreStats(stats));
    }
  }
}

}  // namespace
}  // namespace sdn::net
