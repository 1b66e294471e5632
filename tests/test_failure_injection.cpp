// Failure injection: what happens when the adversary breaks its promise or
// the algorithm's safety knobs are dialed to zero. The engine must *detect*
// promise violations (so no experiment silently reports results from an
// invalid adversary), and the hjswy phase machinery must rely on the alarm
// suffix (removing it must make premature decisions observable).
#include <gtest/gtest.h>

#include <memory>

#include "adversary/static_adversary.hpp"
#include "algo/census.hpp"
#include "algo/flood_max.hpp"
#include "algo/hjswy.hpp"
#include "algo/sketch_pool.hpp"
#include "graph/generators.hpp"
#include "net/engine.hpp"
#include "util/rng.hpp"

namespace sdn::net {
namespace {

/// Claims 2-interval connectivity but delivers alternating spanning trees
/// that share only the single edge (0,1) — every round is connected (T=1
/// would be honest) yet no 2-round window has a *spanning* stable subgraph.
class LyingAdversary final : public Adversary {
 public:
  explicit LyingAdversary(graph::NodeId n) : n_(n) {
    a_ = graph::Path(n);
    std::vector<graph::Edge> edges;
    // Even chain 0-2-4-..., odd chain 1-3-5-..., bridged by (0,1).
    for (graph::NodeId u = 2; u < n; ++u) edges.emplace_back(u - 2, u);
    edges.emplace_back(graph::NodeId{0}, graph::NodeId{1});
    b_ = graph::Graph(n, edges);
  }
  [[nodiscard]] graph::NodeId num_nodes() const override { return n_; }
  [[nodiscard]] int interval() const override { return 2; }  // a lie
  graph::Graph TopologyFor(std::int64_t round, const AdversaryView&) override {
    return (round % 2 == 0) ? a_ : b_;
  }
  [[nodiscard]] std::string name() const override { return "liar"; }

 private:
  graph::NodeId n_;
  graph::Graph a_{0};
  graph::Graph b_{0};
};

/// Splits the network into two halves that never hear each other — violates
/// even 1-interval connectivity.
class PartitionAdversary final : public Adversary {
 public:
  explicit PartitionAdversary(graph::NodeId n) : n_(n) {}
  [[nodiscard]] graph::NodeId num_nodes() const override { return n_; }
  [[nodiscard]] int interval() const override { return 1; }  // a lie
  graph::Graph TopologyFor(std::int64_t, const AdversaryView&) override {
    std::vector<graph::Edge> edges;
    const graph::NodeId half = n_ / 2;
    for (graph::NodeId u = 0; u + 1 < half; ++u) edges.emplace_back(u, u + 1);
    for (graph::NodeId u = half; u + 1 < n_; ++u) edges.emplace_back(u, u + 1);
    return graph::Graph(n_, edges);
  }
  [[nodiscard]] std::string name() const override { return "partition"; }

 private:
  graph::NodeId n_;
};

TEST(FailureInjection, EngineFlagsSlidingWindowViolation) {
  LyingAdversary adv(8);
  std::vector<algo::FloodMaxKnownN> nodes;
  for (graph::NodeId u = 0; u < 8; ++u) nodes.emplace_back(u, 8, u);
  Engine<algo::FloodMaxKnownN> engine(std::move(nodes), adv, {});
  const RunStats stats = engine.Run();
  EXPECT_FALSE(stats.tinterval_ok);
}

TEST(FailureInjection, PartitionBreaksFloodMaxAndIsDetected) {
  PartitionAdversary adv(10);
  std::vector<algo::FloodMaxKnownN> nodes;
  for (graph::NodeId u = 0; u < 10; ++u) {
    nodes.emplace_back(u, 10, static_cast<algo::Value>(u));
  }
  Engine<algo::FloodMaxKnownN> engine(std::move(nodes), adv, {});
  const RunStats stats = engine.Run();
  EXPECT_FALSE(stats.tinterval_ok);  // experiment knows the run is invalid
  ASSERT_TRUE(stats.all_decided);
  // The left half never hears the global max 9 — the promise was load-bearing.
  EXPECT_NE(engine.node(0).output(), 9);
  EXPECT_EQ(engine.node(9).output(), 9);
}

TEST(FailureInjection, PartitionMakesHjswyHalvesDisagreeOnCount) {
  PartitionAdversary adv(32);
  algo::HjswyOptions options;
  options.T = 1;
  options.exact_census = true;
  util::Rng base(3);
  algo::SketchPool pool(32, algo::HjswyProgram::RequiredPoolColumns(options));
  std::vector<algo::HjswyProgram> nodes;
  for (graph::NodeId u = 0; u < 32; ++u) {
    nodes.emplace_back(u, u, options, base.Fork(static_cast<std::uint64_t>(u)),
                       &pool);
  }
  EngineOptions opts;
  opts.max_rounds = 100000;
  Engine<algo::HjswyProgram> engine(std::move(nodes), adv, opts);
  const RunStats stats = engine.Run();
  EXPECT_FALSE(stats.tinterval_ok);
  ASSERT_TRUE(stats.all_decided);
  // Each half sees a quiet, internally consistent world of 16 nodes: the
  // alarm machinery cannot (and should not) conjure the missing half.
  EXPECT_EQ(engine.node(0).output()->count, 16);
  EXPECT_EQ(engine.node(31).output()->count, 16);
}

TEST(FailureInjection, PartitionMakesCensusCountHalves) {
  // The census verification's soundness theorem (docs/MODEL.md §3) assumes
  // per-round connectivity: under a hard partition each half is a perfectly
  // consistent 16-node world and (correctly, per its assumptions) decides
  // count 16. The run is flagged invalid by the engine's validator.
  PartitionAdversary adv(32);
  algo::CensusOptions options;
  options.pipeline_T = 1;
  std::vector<algo::CensusProgram> nodes;
  for (graph::NodeId u = 0; u < 32; ++u) {
    nodes.emplace_back(u, u, options);
  }
  EngineOptions opts;
  opts.max_rounds = 1000000;
  Engine<algo::CensusProgram> engine(std::move(nodes), adv, opts);
  const RunStats stats = engine.Run();
  EXPECT_FALSE(stats.tinterval_ok);
  ASSERT_TRUE(stats.all_decided);
  EXPECT_EQ(engine.node(0).output()->count, 16);
  EXPECT_EQ(engine.node(31).output()->count, 16);
}

TEST(FailureInjection, AlarmRaisedOnDivergentSuffixNeighbor) {
  // Drive one node by hand to a suffix round and feed it a message whose
  // fingerprint cannot match: the alarm must latch.
  algo::HjswyOptions options;
  options.T = 1;
  util::Rng base(5);
  algo::SketchPool pool(2, algo::HjswyProgram::RequiredPoolColumns(options));
  algo::HjswyProgram node(0, 7, options, base.Fork(0), &pool);
  algo::HjswyProgram stranger(1, 12345, options, base.Fork(1), &pool);

  // Find the first suffix round of phase 0.
  Round suffix_round = 1;
  while (!node.Locate(suffix_round).in_suffix) ++suffix_round;

  // Quiet pre-suffix rounds: nothing received, no alarm possible.
  for (Round r = 1; r < suffix_round; ++r) {
    (void)node.OnSend(r);
    node.OnReceive(r, {});
    (void)stranger.OnSend(r);
    stranger.OnReceive(r, {});
  }
  EXPECT_FALSE(node.alarm_raised());

  const auto msg = stranger.OnSend(suffix_round);
  ASSERT_TRUE(msg.has_value());
  (void)node.OnSend(suffix_round);
  const algo::HjswyProgram::Message* slots[] = {&*msg};
  node.OnReceive(suffix_round, Inbox<algo::HjswyProgram::Message>(slots));
  EXPECT_TRUE(node.alarm_raised());
}

TEST(FailureInjection, QuietIdenticalSuffixRaisesNoAlarm) {
  algo::HjswyOptions options;
  options.T = 1;
  util::Rng base(5);
  // Two replicas of the same node state (same seed): identical sketches,
  // each in its own pool (both are node 0).
  const int columns = algo::HjswyProgram::RequiredPoolColumns(options);
  algo::SketchPool node_pool(1, columns);
  algo::SketchPool twin_pool(1, columns);
  algo::HjswyProgram node(0, 7, options, base.Fork(0), &node_pool);
  algo::HjswyProgram twin(0, 7, options, base.Fork(0), &twin_pool);
  Round suffix_round = 1;
  while (!node.Locate(suffix_round).in_suffix) ++suffix_round;
  for (Round r = 1; r <= suffix_round; ++r) {
    const auto msg = twin.OnSend(r);
    ASSERT_TRUE(msg.has_value());
    (void)node.OnSend(r);
    const algo::HjswyProgram::Message* slots[] = {&*msg};
    node.OnReceive(r, Inbox<algo::HjswyProgram::Message>(slots));
  }
  EXPECT_FALSE(node.alarm_raised());
}

TEST(FailureInjection, EarlyPhasesRejectedWhenHorizonBelowFloodingTime) {
  // On a static path (d = N-1) the accepted horizon must have grown to the
  // same order as d; tiny early phases are rejected by the alarm machinery.
  adversary::StaticAdversary adv(graph::Path(64), 1);
  algo::HjswyOptions options;
  options.T = 1;
  options.exact_census = true;
  options.initial_horizon = 1;
  util::Rng base(9);
  algo::SketchPool pool(64, algo::HjswyProgram::RequiredPoolColumns(options));
  std::vector<algo::HjswyProgram> nodes;
  for (graph::NodeId u = 0; u < 64; ++u) {
    nodes.emplace_back(u, u, options, base.Fork(static_cast<std::uint64_t>(u)),
                       &pool);
  }
  EngineOptions opts;
  opts.max_rounds = 100000;
  Engine<algo::HjswyProgram> engine(std::move(nodes), adv, opts);
  const RunStats stats = engine.Run();
  ASSERT_TRUE(stats.all_decided);
  for (graph::NodeId u = 0; u < 64; ++u) {
    EXPECT_EQ(engine.node(u).output()->count, 64);
    EXPECT_GE(engine.node(u).output()->accepted_horizon, 16);
  }
}

TEST(FailureInjection, DefaultSuffixSurvivesTheSameScenario) {
  adversary::StaticAdversary adv(graph::Path(64), 1);
  algo::HjswyOptions options;
  options.T = 1;
  options.exact_census = true;
  util::Rng base(9);
  algo::SketchPool pool(64, algo::HjswyProgram::RequiredPoolColumns(options));
  std::vector<algo::HjswyProgram> nodes;
  for (graph::NodeId u = 0; u < 64; ++u) {
    nodes.emplace_back(u, u, options, base.Fork(static_cast<std::uint64_t>(u)),
                       &pool);
  }
  EngineOptions opts;
  opts.max_rounds = 100000;
  Engine<algo::HjswyProgram> engine(std::move(nodes), adv, opts);
  const RunStats stats = engine.Run();
  ASSERT_TRUE(stats.all_decided);
  for (graph::NodeId u = 0; u < 64; ++u) {
    EXPECT_EQ(engine.node(u).output()->count, 64);
  }
}

}  // namespace
}  // namespace sdn::net
