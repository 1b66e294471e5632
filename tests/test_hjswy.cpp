#include "algo/hjswy.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "adversary/factory.hpp"
#include "algo/sketch_pool.hpp"
#include "net/engine.hpp"
#include "util/rng.hpp"

namespace sdn::algo {
namespace {

struct HjswyRun {
  net::RunStats stats;
  std::vector<HjswyOutput> outputs;
};

HjswyRun RunHjswy(graph::NodeId n, int T, const std::string& kind,
                  std::uint64_t seed, HjswyOptions options,
                  std::int64_t volatile_edges = -1) {
  adversary::AdversaryConfig config;
  config.kind = kind;
  config.n = n;
  config.T = T;
  config.seed = seed;
  config.volatile_edges = volatile_edges;
  const auto adv = adversary::MakeAdversary(config);

  options.T = T;
  util::Rng base(seed * 7919 + 13);
  SketchPool pool(static_cast<std::size_t>(n),
                  HjswyProgram::RequiredPoolColumns(options));
  std::vector<HjswyProgram> nodes;
  for (graph::NodeId u = 0; u < n; ++u) {
    nodes.emplace_back(u, static_cast<Value>((u * 7) % 53 - 20), options,
                       base.Fork(static_cast<std::uint64_t>(u)), &pool);
  }
  net::EngineOptions opts;
  opts.bandwidth = options.exact_census
                       ? net::BandwidthPolicy::Unbounded()
                       : net::BandwidthPolicy::BoundedLogN(64.0);
  opts.max_rounds = 1'000'000;
  net::Engine<HjswyProgram> engine(std::move(nodes), *adv, opts);
  HjswyRun run;
  run.stats = engine.Run();
  for (graph::NodeId u = 0; u < n; ++u) {
    const auto out = engine.node(u).output();
    if (out.has_value()) run.outputs.push_back(*out);
  }
  return run;
}

Value ExpectedMax(graph::NodeId n) {
  Value best = kValueMin;
  for (graph::NodeId u = 0; u < n; ++u) {
    best = std::max(best, static_cast<Value>((u * 7) % 53 - 20));
  }
  return best;
}

using Param = std::tuple<graph::NodeId, int, std::string, std::uint64_t>;

class HjswyCorrectnessTest : public ::testing::TestWithParam<Param> {};

TEST_P(HjswyCorrectnessTest, ExactCensusModeSolvesAllThreeProblems) {
  const auto& [n, T, kind, seed] = GetParam();
  HjswyOptions options;
  options.exact_census = true;
  const HjswyRun run = RunHjswy(n, T, kind, seed, options);
  ASSERT_TRUE(run.stats.all_decided);
  EXPECT_TRUE(run.stats.tinterval_ok);
  ASSERT_EQ(run.outputs.size(), static_cast<std::size_t>(n));
  for (const HjswyOutput& out : run.outputs) {
    EXPECT_EQ(out.count, n);
    EXPECT_EQ(out.max_value, ExpectedMax(n));
    EXPECT_EQ(out.consensus_value, -20);  // node 0's input
  }
}

TEST_P(HjswyCorrectnessTest, BoundedModeMaxAndConsensusExactCountApprox) {
  const auto& [n, T, kind, seed] = GetParam();
  HjswyOptions options;
  options.sketch_len = 96;  // rel stddev ≈ 0.10
  const HjswyRun run = RunHjswy(n, T, kind, seed, options);
  ASSERT_TRUE(run.stats.all_decided);
  ASSERT_EQ(run.outputs.size(), static_cast<std::size_t>(n));
  for (const HjswyOutput& out : run.outputs) {
    EXPECT_EQ(out.max_value, ExpectedMax(n));
    EXPECT_EQ(out.consensus_value, -20);
    // 6 sigma: fails with negligible probability over the whole grid.
    EXPECT_NEAR(out.count_estimate, n, 0.65 * n + 0.6);
    // All nodes converged to the same estimate.
    EXPECT_DOUBLE_EQ(out.count_estimate, run.outputs.front().count_estimate);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HjswyCorrectnessTest,
    ::testing::Combine(::testing::Values<graph::NodeId>(1, 2, 16, 64, 150),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values("static-path", "spine-rtree",
                                         "spine-expander", "spine-gnp",
                                         "mobile", "adaptive-desc"),
                       ::testing::Values<std::uint64_t>(11, 23)),
    [](const ::testing::TestParamInfo<Param>& pi) {
      auto name = "n" + std::to_string(std::get<0>(pi.param)) + "_T" +
                  std::to_string(std::get<1>(pi.param)) + "_" +
                  std::get<2>(pi.param) + "_s" +
                  std::to_string(std::get<3>(pi.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Hjswy, RoundsTrackFloodingTimeNotN) {
  // The headline claim: on low-diameter churn, quadrupling N should barely
  // move the decision round (d stays ~log N), far below linear growth.
  HjswyOptions options;
  options.exact_census = true;
  const HjswyRun small = RunHjswy(64, 2, "spine-expander", 3, options);
  const HjswyRun large = RunHjswy(256, 2, "spine-expander", 3, options);
  ASSERT_TRUE(small.stats.all_decided);
  ASSERT_TRUE(large.stats.all_decided);
  EXPECT_LT(large.stats.rounds, 2 * small.stats.rounds + 64);
  EXPECT_LT(large.stats.rounds, 256);  // well below the N-1 flooding baseline
}

TEST(Hjswy, RoundsGrowWithFloodingTimeOnPaths) {
  // d = Θ(N) on a static path (no volatile shortcut edges, no relabeling —
  // fresh random spines every era actually *speed up* flooding): complexity
  // must degrade towards linear.
  HjswyOptions options;
  options.exact_census = true;
  const HjswyRun d_small = RunHjswy(32, 2, "static-path", 9, options, 0);
  const HjswyRun d_large = RunHjswy(128, 2, "static-path", 9, options, 0);
  ASSERT_TRUE(d_small.stats.all_decided);
  ASSERT_TRUE(d_large.stats.all_decided);
  EXPECT_GT(d_large.stats.rounds, d_small.stats.rounds);
  EXPECT_GE(d_large.stats.flooding.max_rounds, 32);
}

TEST(Hjswy, StrictModeWaitsForHorizonCoveringN) {
  HjswyOptions lax;
  HjswyOptions strict;
  strict.strict = true;
  const HjswyRun fast = RunHjswy(96, 2, "spine-expander", 5, lax);
  const HjswyRun safe = RunHjswy(96, 2, "spine-expander", 5, strict);
  ASSERT_TRUE(fast.stats.all_decided);
  ASSERT_TRUE(safe.stats.all_decided);
  EXPECT_GT(safe.stats.rounds, fast.stats.rounds);
  EXPECT_GE(safe.outputs.front().accepted_horizon,
            static_cast<std::int64_t>(0.8 * 96));
}

TEST(Hjswy, PhaseScheduleDoublesHorizons) {
  HjswyOptions options;
  util::Rng rng(1);
  SketchPool pool(1, HjswyProgram::RequiredPoolColumns(options));
  const HjswyProgram node(0, 0, options, rng.Fork(0), &pool);
  std::int64_t last_horizon = 0;
  for (net::Round r = 1; r <= 5000; ++r) {
    const auto pos = node.Locate(r);
    if (pos.horizon != last_horizon) {
      if (last_horizon != 0) {
        EXPECT_EQ(pos.horizon, 2 * last_horizon);
      }
      EXPECT_EQ(pos.round_in_phase, 0);
      last_horizon = pos.horizon;
    }
    EXPECT_EQ(pos.in_suffix,
              pos.round_in_phase >= node.DisseminationLength(pos.horizon));
  }
  EXPECT_GT(last_horizon, options.initial_horizon);
}

TEST(Hjswy, LocateFastMatchesLocate) {
  HjswyOptions options;
  util::Rng rng(1);
  SketchPool pool(1, HjswyProgram::RequiredPoolColumns(options));
  const HjswyProgram node(0, 0, options, rng.Fork(0), &pool);
  const auto expect_same = [&node](net::Round r) {
    const auto slow = node.Locate(r);
    const auto fast = node.LocateFast(r);
    EXPECT_EQ(fast.phase, slow.phase) << "r=" << r;
    EXPECT_EQ(fast.horizon, slow.horizon) << "r=" << r;
    EXPECT_EQ(fast.round_in_phase, slow.round_in_phase) << "r=" << r;
    EXPECT_EQ(fast.in_suffix, slow.in_suffix) << "r=" << r;
    EXPECT_EQ(fast.last_round_of_phase, slow.last_round_of_phase) << "r=" << r;
  };
  // Forward (the engine's access pattern: O(1) amortized cursor hits)...
  for (net::Round r = 1; r <= 5000; ++r) expect_same(r);
  // ...and arbitrary-order probes (cursor resets on backward queries).
  util::Rng jump(99);
  for (int i = 0; i < 200; ++i) {
    expect_same(1 + static_cast<net::Round>(jump.UniformU64(5000)));
  }
}

TEST(Hjswy, BoundedMessageFitsLogBudget) {
  HjswyOptions options;
  util::Rng rng(2);
  SketchPool pool(1, HjswyProgram::RequiredPoolColumns(options));
  HjswyProgram node(0, 1234, options, rng.Fork(0), &pool);
  const auto msg = node.OnSend(1);
  ASSERT_TRUE(msg.has_value());
  // Default knobs must fit 64·log2(16) = 256 bits so N >= 16 benches run.
  EXPECT_LE(HjswyProgram::MessageBits(*msg), 256u);
}

TEST(Hjswy, DecidedNodesKeepBroadcasting) {
  HjswyOptions options;
  const HjswyRun run = RunHjswy(8, 1, "static-star", 4, options);
  ASSERT_TRUE(run.stats.all_decided);
  // Every node sent a message in every executed round (nobody went silent).
  EXPECT_EQ(run.stats.messages_sent, 8 * run.stats.rounds);
}

TEST(Hjswy, TrackSumEstimatesTotalWeight) {
  HjswyOptions options;
  options.track_sum = true;
  options.sketch_len = 128;
  const HjswyRun run = RunHjswy(80, 2, "spine-expander", 21, options);
  ASSERT_TRUE(run.stats.all_decided);
  double expected = 0.0;
  for (graph::NodeId u = 0; u < 80; ++u) {
    const auto v = static_cast<Value>((u * 7) % 53 - 20);
    if (v > 0) expected += static_cast<double>(v);
  }
  for (const HjswyOutput& out : run.outputs) {
    // Converged sketch: same estimate everywhere, within ~6 sigma of truth.
    EXPECT_DOUBLE_EQ(out.sum_estimate, run.outputs.front().sum_estimate);
    EXPECT_NEAR(out.sum_estimate, expected, 0.55 * expected);
  }
}

TEST(Hjswy, CombinedCensusAndSumMode) {
  // All features at once: exact census count + sum sketch + aggregates.
  HjswyOptions options;
  options.exact_census = true;
  options.track_sum = true;
  options.sketch_len = 128;
  const HjswyRun run = RunHjswy(60, 2, "spine-gnp", 31, options);
  ASSERT_TRUE(run.stats.all_decided);
  double expected_sum = 0.0;
  for (graph::NodeId u = 0; u < 60; ++u) {
    const auto v = static_cast<Value>((u * 7) % 53 - 20);
    if (v > 0) expected_sum += static_cast<double>(v);
  }
  for (const HjswyOutput& out : run.outputs) {
    EXPECT_EQ(out.count, 60);  // exact despite the extra payload
    EXPECT_EQ(out.max_value, ExpectedMax(60));
    EXPECT_NEAR(out.sum_estimate, expected_sum, 0.55 * expected_sum);
  }
}

TEST(Hjswy, SumDisabledByDefault) {
  HjswyOptions options;
  const HjswyRun run = RunHjswy(16, 2, "spine-rtree", 5, options);
  ASSERT_TRUE(run.stats.all_decided);
  EXPECT_EQ(run.outputs.front().sum_estimate, 0.0);
}

TEST(Hjswy, EstimateIsSharedByAllNodes) {
  HjswyOptions options;
  const HjswyRun run = RunHjswy(40, 2, "spine-rtree", 6, options);
  ASSERT_TRUE(run.stats.all_decided);
  for (const HjswyOutput& out : run.outputs) {
    EXPECT_DOUBLE_EQ(out.count_estimate, run.outputs.front().count_estimate);
    EXPECT_EQ(out.max_value, run.outputs.front().max_value);
    EXPECT_EQ(out.consensus_value, run.outputs.front().consensus_value);
  }
}

/// OnReceive reduces an inbox of same-window messages to one block merge per
/// sketch. A decoy with a different window placed first sends every later
/// message down the per-coordinate MergeCoord path instead, and the decoy
/// itself is neutral (+inf coordinate, no better aggregate). Both paths must
/// leave the twins' sketch rows bit-identical, +inf and 0 lanes included.
TEST(Hjswy, InboxReductionMatchesCoordinateMerges) {
  using Message = HjswyProgram::Message;
  constexpr std::uint32_t kInfBits = 0x7f800000u;
  HjswyOptions options;
  options.track_sum = true;
  const int columns = HjswyProgram::RequiredPoolColumns(options);
  util::Rng draws(17);
  const auto lane = [&draws]() -> std::uint32_t {
    switch (draws.UniformU64(8)) {
      case 0:
        return kInfBits;
      case 1:
        return 0;
      default:
        return std::bit_cast<std::uint32_t>(
            static_cast<float>(2.0 * draws.UniformDouble()));
    }
  };
  for (const std::int32_t len : {1, 4, 7, HjswyProgram::kMaxCoordsPerMsg}) {
    for (const int k : {1, 3, 32}) {
      SCOPED_TRACE("len=" + std::to_string(len) + " k=" + std::to_string(k));
      SketchPool block_pool(1, columns);
      SketchPool coord_pool(1, columns);
      HjswyProgram block_node(0, 9, options, util::Rng(5), &block_pool);
      HjswyProgram coord_node(0, 9, options, util::Rng(5), &coord_pool);
      std::vector<std::uint32_t> initial;
      for (int col = 0; col < columns; ++col) {
        initial.push_back(block_pool.LoadBits(0, static_cast<std::size_t>(col)));
      }

      std::vector<Message> messages(static_cast<std::size_t>(k));
      for (Message& m : messages) {
        m.coord_base = 2 * len;
        m.num_coords = len;
        m.has_sum = true;
        m.min_id = 3;
        m.min_id_value = 4;
        m.max_value = 11;
        for (std::size_t i = 0; i < static_cast<std::size_t>(len); ++i) {
          m.coords[i] = lane();
          m.sum_coords[i] = lane();
        }
      }
      messages.front().coords[0] = 0;  // at least one coordinate decreases
      Message decoy;
      decoy.coord_base = 3 * len;
      decoy.num_coords = 1;
      decoy.coords[0] = kInfBits;
      decoy.min_id = std::numeric_limits<NodeId>::max();
      decoy.max_value = kValueMin;

      std::vector<const Message*> block_inbox;
      std::vector<const Message*> coord_inbox = {&decoy};
      for (const Message& m : messages) {
        block_inbox.push_back(&m);
        coord_inbox.push_back(&m);
      }
      block_node.OnReceive(1, net::Inbox<Message>(block_inbox));
      coord_node.OnReceive(1, net::Inbox<Message>(coord_inbox));

      int decreased = 0;
      for (int col = 0; col < columns; ++col) {
        const auto c = static_cast<std::size_t>(col);
        ASSERT_EQ(block_pool.LoadBits(0, c), coord_pool.LoadBits(0, c))
            << "column " << col;
        if (block_pool.LoadBits(0, c) != initial[c]) ++decreased;
      }
      EXPECT_GT(decreased, 0);
    }
  }
}

}  // namespace
}  // namespace sdn::algo
