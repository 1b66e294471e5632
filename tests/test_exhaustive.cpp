// Exhaustive adversary-space model checking at small N.
//
// For tiny networks the 1-interval adversary space is fully enumerable:
// every sequence of connected graphs. These tests run the algorithms against
// EVERY such sequence (with the tail repeated once the recorded prefix
// ends, which is what ReplayAdversary does) — not sampled, exhaustive. This
// is the strongest correctness statement the simulation can make without a
// proof: no 3-node (resp. 4-node) adversary whatsoever can break these
// algorithms' grades.
#include <gtest/gtest.h>

#include <vector>

#include "adversary/replay.hpp"
#include "algo/census.hpp"
#include "algo/flood_max.hpp"
#include "algo/hjswy.hpp"
#include "algo/sketch_pool.hpp"
#include "graph/algorithms.hpp"
#include "net/engine.hpp"
#include "util/rng.hpp"

namespace sdn {
namespace {

using graph::Edge;
using graph::Graph;
using graph::NodeId;

/// All connected graphs on n nodes (n small), by edge-subset enumeration.
std::vector<Graph> ConnectedGraphs(NodeId n) {
  std::vector<Edge> all_edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) all_edges.emplace_back(u, v);
  }
  std::vector<Graph> out;
  for (std::uint32_t mask = 0; mask < (1u << all_edges.size()); ++mask) {
    std::vector<Edge> edges;
    for (std::size_t e = 0; e < all_edges.size(); ++e) {
      if ((mask >> e) & 1u) edges.push_back(all_edges[e]);
    }
    Graph g(n, edges);
    if (graph::IsConnected(g)) out.push_back(std::move(g));
  }
  return out;
}

/// Iterates all length-L sequences over `alphabet` (odometer-style).
class SequenceEnumerator {
 public:
  SequenceEnumerator(std::size_t alphabet, int length)
      : alphabet_(alphabet), digits_(static_cast<std::size_t>(length), 0) {}

  [[nodiscard]] const std::vector<std::size_t>& digits() const {
    return digits_;
  }
  bool Next() {
    for (auto& d : digits_) {
      if (++d < alphabet_) return true;
      d = 0;
    }
    return false;
  }

 private:
  std::size_t alphabet_;
  std::vector<std::size_t> digits_;
};

TEST(Exhaustive, FloodMaxCorrectAgainstEveryThreeNodeAdversary) {
  const NodeId n = 3;
  const auto graphs = ConnectedGraphs(n);
  ASSERT_EQ(graphs.size(), 4u);
  SequenceEnumerator seqs(graphs.size(), /*length=*/n - 1);
  std::int64_t checked = 0;
  do {
    std::vector<Graph> sequence;
    for (const std::size_t g : seqs.digits()) sequence.push_back(graphs[g]);
    adversary::ReplayAdversary adv(sequence, 1);
    std::vector<algo::FloodMaxKnownN> nodes;
    for (NodeId u = 0; u < n; ++u) {
      nodes.emplace_back(u, n, static_cast<algo::Value>(10 - u));
    }
    net::Engine<algo::FloodMaxKnownN> engine(std::move(nodes), adv, {});
    const net::RunStats stats = engine.Run();
    ASSERT_TRUE(stats.all_decided);
    ASSERT_LE(stats.rounds, n - 1);
    for (NodeId u = 0; u < n; ++u) {
      ASSERT_EQ(engine.node(u).output(), 10) << "sequence #" << checked;
    }
    ++checked;
  } while (seqs.Next());
  EXPECT_EQ(checked, 16);  // 4^2 sequences
}

TEST(Exhaustive, FloodAlgorithmsCorrectAgainstEveryFourNodeAdversary) {
  const NodeId n = 4;
  const auto graphs = ConnectedGraphs(n);
  ASSERT_EQ(graphs.size(), 38u);
  SequenceEnumerator seqs(graphs.size(), /*length=*/n - 1);
  std::int64_t checked = 0;
  do {
    std::vector<Graph> sequence;
    for (const std::size_t g : seqs.digits()) sequence.push_back(graphs[g]);
    adversary::ReplayAdversary adv(sequence, 1);

    std::vector<algo::ConsensusFloodKnownN> nodes;
    for (NodeId u = 0; u < n; ++u) {
      nodes.emplace_back(u, n, static_cast<algo::Value>(100 + u));
    }
    net::EngineOptions opts;
    opts.flood_probes = 0;  // keep the exhaustive sweep cheap
    net::Engine<algo::ConsensusFloodKnownN> engine(std::move(nodes), adv,
                                                   opts);
    const net::RunStats stats = engine.Run();
    ASSERT_TRUE(stats.all_decided);
    for (NodeId u = 0; u < n; ++u) {
      // Agreement on node 0's input (the min id always floods in n-1 rounds).
      ASSERT_EQ(engine.node(u).output(), 100) << "sequence #" << checked;
    }
    ++checked;
  } while (seqs.Next());
  EXPECT_EQ(checked, 38 * 38 * 38);
}

TEST(Exhaustive, CensusExactAgainstEveryThreeNodePrefixAdversary) {
  // Census runs for many guesses; enumerate all 4-round prefixes (the tail
  // repeats the last graph). Soundness must hold for every one: the decided
  // count is exactly 3 at every node.
  const NodeId n = 3;
  const auto graphs = ConnectedGraphs(n);
  SequenceEnumerator seqs(graphs.size(), /*length=*/4);
  do {
    std::vector<Graph> sequence;
    for (const std::size_t g : seqs.digits()) sequence.push_back(graphs[g]);
    adversary::ReplayAdversary adv(sequence, 1);
    algo::CensusOptions options;
    options.pipeline_T = 1;
    std::vector<algo::CensusProgram> nodes;
    for (NodeId u = 0; u < n; ++u) nodes.emplace_back(u, u, options);
    net::EngineOptions opts;
    opts.flood_probes = 0;
    opts.max_rounds = 10000;
    net::Engine<algo::CensusProgram> engine(std::move(nodes), adv, opts);
    const net::RunStats stats = engine.Run();
    ASSERT_TRUE(stats.all_decided);
    for (NodeId u = 0; u < n; ++u) {
      ASSERT_EQ(engine.node(u).output()->count, 3);
    }
  } while (seqs.Next());
}

TEST(Exhaustive, HjswyCensusExactAgainstEveryThreeNodePrefixAdversary) {
  const NodeId n = 3;
  const auto graphs = ConnectedGraphs(n);
  SequenceEnumerator seqs(graphs.size(), /*length=*/4);
  util::Rng base(77);
  do {
    std::vector<Graph> sequence;
    for (const std::size_t g : seqs.digits()) sequence.push_back(graphs[g]);
    adversary::ReplayAdversary adv(sequence, 1);
    algo::HjswyOptions options;
    options.T = 1;
    options.exact_census = true;
    algo::SketchPool pool(static_cast<std::size_t>(n),
                          algo::HjswyProgram::RequiredPoolColumns(options));
    std::vector<algo::HjswyProgram> nodes;
    for (NodeId u = 0; u < n; ++u) {
      nodes.emplace_back(u, u, options,
                         base.Fork(static_cast<std::uint64_t>(u)), &pool);
    }
    net::EngineOptions opts;
    opts.flood_probes = 0;
    opts.max_rounds = 10000;
    net::Engine<algo::HjswyProgram> engine(std::move(nodes), adv, opts);
    const net::RunStats stats = engine.Run();
    ASSERT_TRUE(stats.all_decided);
    for (NodeId u = 0; u < n; ++u) {
      ASSERT_EQ(engine.node(u).output()->count, 3);
      ASSERT_EQ(engine.node(u).output()->max_value, 2);
      ASSERT_EQ(engine.node(u).output()->consensus_value, 0);
    }
  } while (seqs.Next());
}

}  // namespace
}  // namespace sdn
