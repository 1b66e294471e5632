// Tests for the delta-based incremental topology pipeline: TopologyDelta /
// DynGraph semantics, the pooled CSR fill against the serial one, the
// Adversary::DeltaFor contract across every factory kind, the delta-driven
// streaming T-interval checker, and bit-identical RunStats between the
// incremental and from-scratch engine paths.
#include "graph/delta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "adversary/factory.hpp"
#include "core/api.hpp"
#include "graph/generators.hpp"
#include "graph/tinterval.hpp"
#include "net/adversary.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sdn::graph {
namespace {

TEST(DiffSorted, ComputesAddedAndRemoved) {
  const Graph from(5, std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}});
  const Graph to(5, std::vector<Edge>{{0, 1}, {2, 3}, {3, 4}, {0, 4}});
  const TopologyDelta delta = Diff(from, to);
  EXPECT_EQ(delta.added, (std::vector<Edge>{{0, 4}, {2, 3}}));
  EXPECT_EQ(delta.removed, (std::vector<Edge>{{1, 2}}));
  EXPECT_EQ(delta.size(), 3);
}

TEST(DiffSorted, IdenticalGraphsGiveEmptyDelta) {
  const Graph g = Path(6);
  EXPECT_TRUE(Diff(g, g).empty());
}

TEST(DiffSorted, FromEmptyIsAllAdded) {
  const Graph g = Star(5);
  const TopologyDelta delta = Diff(Graph(5), g);
  EXPECT_EQ(delta.added.size(), static_cast<std::size_t>(g.num_edges()));
  EXPECT_TRUE(delta.removed.empty());
}

TEST(CheckDeltaWellFormed, RejectsUnsortedOverlapOrOutOfRange) {
  TopologyDelta unsorted;
  unsorted.added = {{2, 3}, {0, 1}};
  EXPECT_THROW(CheckDeltaWellFormed(unsorted, 5), util::CheckError);

  TopologyDelta dup;
  dup.removed = {{0, 1}, {0, 1}};
  EXPECT_THROW(CheckDeltaWellFormed(dup, 5), util::CheckError);

  TopologyDelta overlap;
  overlap.added = {{0, 1}};
  overlap.removed = {{0, 1}};
  EXPECT_THROW(CheckDeltaWellFormed(overlap, 5), util::CheckError);

  TopologyDelta out_of_range;
  out_of_range.added = {{0, 7}};
  EXPECT_THROW(CheckDeltaWellFormed(out_of_range, 5), util::CheckError);

  TopologyDelta ok;
  ok.added = {{0, 1}, {1, 2}};
  ok.removed = {{0, 2}};
  EXPECT_NO_THROW(CheckDeltaWellFormed(ok, 5));
}

TEST(DynGraph, EmptyDeltaIsIdentityInPlace) {
  DynGraph dyn(Path(8));
  const Graph* before = &dyn.View();
  const Graph& after = dyn.Apply(TopologyDelta{});
  EXPECT_EQ(before, &after);
  EXPECT_EQ(after, Path(8));
}

TEST(DynGraph, ApplyRejectsContractViolationsAndLeavesGraphUntouched) {
  DynGraph dyn(Path(5));  // edges (0,1)(1,2)(2,3)(3,4)
  const Graph snapshot = dyn.View();

  TopologyDelta removes_absent;
  removes_absent.removed = {{0, 4}};
  EXPECT_THROW(dyn.Apply(removes_absent), util::CheckError);
  EXPECT_EQ(dyn.View(), snapshot);

  TopologyDelta adds_present;
  adds_present.added = {{1, 2}};
  EXPECT_THROW(dyn.Apply(adds_present), util::CheckError);
  EXPECT_EQ(dyn.View(), snapshot);
}

/// Random edit scripts: DynGraph under deltas == Graph rebuilt from scratch,
/// including the CSR internals (operator== compares edges, adjacency and
/// offsets member-wise) and the Neighbors/Degree views.
TEST(DynGraph, RandomEditScriptsMatchFromScratch) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId n = 24;
    Graph reference = Gnp(n, 0.15, rng);
    DynGraph dyn(reference);
    for (int step = 0; step < 25; ++step) {
      // Random delta: flip a handful of node pairs.
      TopologyDelta delta;
      for (int k = 0; k < 6; ++k) {
        const auto u =
            static_cast<NodeId>(rng.UniformU64(static_cast<std::uint64_t>(n)));
        auto v = static_cast<NodeId>(
            rng.UniformU64(static_cast<std::uint64_t>(n) - 1));
        if (v >= u) ++v;
        const Edge e(u, v);
        if (reference.HasEdge(e.u, e.v)) {
          delta.removed.push_back(e);
        } else {
          delta.added.push_back(e);
        }
      }
      const auto dedup = [](std::vector<Edge>& edges) {
        std::sort(edges.begin(), edges.end());
        edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
      };
      dedup(delta.added);
      dedup(delta.removed);

      std::vector<Edge> next(reference.Edges().begin(),
                             reference.Edges().end());
      for (const Edge& e : delta.removed) {
        next.erase(std::find(next.begin(), next.end(), e));
      }
      next.insert(next.end(), delta.added.begin(), delta.added.end());
      reference = Graph(n, next);

      const Graph& incremental = dyn.Apply(delta);
      ASSERT_EQ(incremental, reference) << "trial " << trial << " step "
                                        << step;
      for (NodeId u = 0; u < n; ++u) {
        ASSERT_EQ(incremental.Degree(u), reference.Degree(u));
      }
    }
  }
}

TEST(VerifySortedEdges, ToggleGatesTheSortednessScan) {
  const bool old = VerifySortedEdges();
  SetVerifySortedEdges(true);
  std::vector<Edge> unsorted{{2, 3}, {0, 1}};
  EXPECT_THROW(Graph(4, std::move(unsorted), Graph::SortedEdges{}),
               util::CheckError);
  // Range checking is not gated: an out-of-range edge throws regardless.
  SetVerifySortedEdges(false);
  std::vector<Edge> out_of_range{{0, 9}};
  EXPECT_THROW(Graph(4, std::move(out_of_range), Graph::SortedEdges{}),
               util::CheckError);
  SetVerifySortedEdges(old);
}

class ZeroView final : public net::AdversaryView {
 public:
  explicit ZeroView(NodeId n) : n_(n) {}
  [[nodiscard]] std::int64_t round() const override { return 1; }
  [[nodiscard]] double PublicState(NodeId) const override { return 0.0; }
  [[nodiscard]] NodeId num_nodes() const override { return n_; }

 private:
  NodeId n_;
};

/// The DeltaFor contract, property-tested across every factory kind × seeds
/// × T ∈ {1, 2, 4}: driving a DynGraph by DeltaFor must reproduce, round by
/// round, exactly the graphs TopologyFor builds from scratch (two instances
/// of the same adversary, identical seeds, so RNG streams must line up too).
TEST(AdversaryDelta, MatchesTopologyForEveryKindSeedAndT) {
  const NodeId n = 32;
  const ZeroView view(n);
  for (const std::string& kind : adversary::KnownAdversaryKinds()) {
    for (const std::uint64_t seed : {1ULL, 7ULL}) {
      for (const int T : {1, 2, 4}) {
        adversary::AdversaryConfig config;
        config.kind = kind;
        config.n = n;
        config.T = T;
        config.seed = seed;
        const auto scratch = adversary::MakeAdversary(config);
        const auto incremental = adversary::MakeAdversary(config);
        DynGraph dyn(n);
        TopologyDelta delta;
        for (std::int64_t r = 1; r <= 30; ++r) {
          const Graph expected = scratch->TopologyFor(r, view);
          incremental->DeltaFor(r, view, dyn.View(), delta);
          const Graph& got = dyn.Apply(delta);
          ASSERT_EQ(got, expected)
              << kind << " seed=" << seed << " T=" << T << " round=" << r;
        }
      }
    }
  }
}

/// The RoundEdgesInto contract, property-tested the same way: when an
/// adversary takes the direct-assignment fast path (filling a DynGraph's
/// EditBuffer with the round's full edge list), CommitEdges must reproduce
/// exactly the graphs TopologyFor builds from scratch. Adversaries that
/// decline the fast path (return false) fall back to TopologyFor on the same
/// instance, which keeps their RNG streams aligned for later rounds.
TEST(AdversaryFastPath, RoundEdgesIntoMatchesTopologyForEveryKindSeedAndT) {
  const NodeId n = 32;
  const ZeroView view(n);
  int fast_rounds = 0;
  for (const std::string& kind : adversary::KnownAdversaryKinds()) {
    for (const std::uint64_t seed : {1ULL, 7ULL}) {
      for (const int T : {1, 2, 4}) {
        adversary::AdversaryConfig config;
        config.kind = kind;
        config.n = n;
        config.T = T;
        config.seed = seed;
        const auto scratch = adversary::MakeAdversary(config);
        const auto fast = adversary::MakeAdversary(config);
        DynGraph dyn(n);
        for (std::int64_t r = 1; r <= 30; ++r) {
          const Graph expected = scratch->TopologyFor(r, view);
          if (fast->RoundEdgesInto(r, view, dyn.EditBuffer())) {
            ++fast_rounds;
            const Graph& got = dyn.CommitEdges();
            ASSERT_EQ(got, expected)
                << kind << " seed=" << seed << " T=" << T << " round=" << r;
          } else {
            // Abandoned edit: View() must be untouched, streams stay aligned.
            ASSERT_EQ(fast->TopologyFor(r, view), expected)
                << kind << " seed=" << seed << " T=" << T << " round=" << r;
          }
        }
      }
    }
  }
  // The native implementations (spine/adaptive/static/replay families) must
  // actually exercise the fast path, not silently fall back everywhere.
  EXPECT_GT(fast_rounds, 0);
}

/// Streaming checker (both Push and PushDelta) vs the batch validator, on
/// honest adversary sequences and on corrupted ones.
TEST(TIntervalChecker, AgreesWithBatchValidator) {
  const NodeId n = 20;
  const ZeroView view(n);
  util::Rng corrupt_rng(99);
  for (const std::string& kind :
       {std::string("spine-gnp"), std::string("spine-rtree"),
        std::string("static-path"), std::string("mobile")}) {
    for (const int T : {1, 2, 3}) {
      adversary::AdversaryConfig config;
      config.kind = kind;
      config.n = n;
      config.T = T;
      config.seed = 5;
      const auto adv = adversary::MakeAdversary(config);
      std::vector<Graph> seq;
      for (std::int64_t r = 1; r <= 24; ++r) {
        seq.push_back(adv->TopologyFor(r, view));
      }
      for (const bool corrupt : {false, true}) {
        if (corrupt) {
          // Break one mid-sequence round (drop all edges of a random node).
          const auto at = 8 + corrupt_rng.UniformU64(8);
          std::vector<Edge> pruned;
          for (const Edge& e : seq[at].Edges()) {
            if (e.u != 0 && e.v != 0) pruned.push_back(e);
          }
          seq[at] = Graph(n, pruned);
        }
        // Only ok/first_bad_window are compared: early exit suffices.
        const TIntervalReport batch =
            ValidateTInterval(seq, T, ValidateMode::kEarlyExit);
        TIntervalChecker push_checker(n, T);
        TIntervalChecker delta_checker(n, T);
        Graph prev(n);
        TopologyDelta delta;
        for (const Graph& g : seq) {
          const bool a = push_checker.Push(g);
          DiffSorted(prev.Edges(), g.Edges(), delta);
          const bool b = delta_checker.PushDelta(delta);
          ASSERT_EQ(a, b);
          prev = g;
        }
        ASSERT_EQ(push_checker.ok(), batch.ok)
            << kind << " T=" << T << " corrupt=" << corrupt;
        ASSERT_EQ(push_checker.first_bad_window(), batch.first_bad_window)
            << kind << " T=" << T << " corrupt=" << corrupt;
        ASSERT_EQ(delta_checker.first_bad_window(), batch.first_bad_window);
      }
    }
  }
}

TEST(TIntervalChecker, FlagsFirstBadWindowOfAbruptCut) {
  // Path for 5 rounds, then edgeless: with T=2 the first bad window is the
  // one spanning rounds {5, 6}, i.e. 0-based start 4.
  TIntervalChecker checker(6, 2);
  for (int r = 0; r < 5; ++r) EXPECT_TRUE(checker.Push(Path(6)));
  EXPECT_FALSE(checker.Push(Graph(6)));
  EXPECT_FALSE(checker.ok());
  EXPECT_EQ(checker.first_bad_window(), 4);
}

/// Comparable RunStats fields (timings excluded — wall clock).
void ExpectSameStats(const net::RunStats& a, const net::RunStats& b,
                     const std::string& label) {
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.all_decided, b.all_decided) << label;
  EXPECT_EQ(a.hit_max_rounds, b.hit_max_rounds) << label;
  EXPECT_EQ(a.first_decide_round, b.first_decide_round) << label;
  EXPECT_EQ(a.last_decide_round, b.last_decide_round) << label;
  EXPECT_EQ(a.decide_round, b.decide_round) << label;
  EXPECT_EQ(a.messages_sent, b.messages_sent) << label;
  EXPECT_EQ(a.sends_per_node, b.sends_per_node) << label;
  EXPECT_EQ(a.total_message_bits, b.total_message_bits) << label;
  EXPECT_EQ(a.max_message_bits, b.max_message_bits) << label;
  EXPECT_EQ(a.edges_processed, b.edges_processed) << label;
  EXPECT_EQ(a.messages_delivered, b.messages_delivered) << label;
  EXPECT_EQ(a.tinterval_ok, b.tinterval_ok) << label;
  EXPECT_EQ(a.tinterval_validated, b.tinterval_validated) << label;
  EXPECT_EQ(a.flooding.probes, b.flooding.probes) << label;
  EXPECT_EQ(a.flooding.completed, b.flooding.completed) << label;
  EXPECT_EQ(a.flooding.max_rounds, b.flooding.max_rounds) << label;
}

/// End to end: the incremental engine path produces bit-identical RunStats
/// to the from-scratch path, with validation and probes on.
TEST(IncrementalEngine, RunStatsMatchFromScratchPath) {
  // n = 192 at threads = 2 runs both paths' topology producer on the
  // prefetch lane (oblivious adversaries only).
  for (const int threads : {1, 2}) {
    for (const std::string& kind :
         {std::string("spine-gnp"), std::string("spine-expander"),
          std::string("static-path"), std::string("adaptive-desc"),
          std::string("mobile")}) {
      RunConfig config;
      config.n = threads == 1 ? 48 : 192;
      config.T = 2;
      config.seed = 11;
      config.adversary.kind = kind;
      config.threads = threads;

      config.incremental_topology = true;
      const RunResult inc = RunAlgorithm(Algorithm::kFloodMaxKnownN, config);
      config.incremental_topology = false;
      const RunResult scratch =
          RunAlgorithm(Algorithm::kFloodMaxKnownN, config);

      const std::string label = kind + " threads=" + std::to_string(threads);
      ExpectSameStats(inc.stats, scratch.stats, label);
      EXPECT_TRUE(inc.Ok()) << label;
      EXPECT_TRUE(scratch.Ok()) << label;
    }
  }
}

/// Same end-to-end comparison with validation off: with no checker and no
/// trace recorder nothing consumes deltas, so adversaries with
/// RoundEdgesInto assign each round directly with no DiffSorted at all, and
/// that too must be bit-identical to the from-scratch path.
TEST(IncrementalEngine, FastPathStatsMatchScratchWithValidationOff) {
  for (const std::string& kind :
       {std::string("spine-gnp"), std::string("spine-expander"),
        std::string("static-path"), std::string("adaptive-desc"),
        std::string("mobile")}) {
    RunConfig config;
    config.n = 48;
    config.T = 2;
    config.seed = 11;
    config.adversary.kind = kind;
    config.threads = 1;
    config.validate_tinterval = false;

    config.incremental_topology = true;
    const RunResult fast = RunAlgorithm(Algorithm::kFloodMaxKnownN, config);
    config.incremental_topology = false;
    const RunResult scratch = RunAlgorithm(Algorithm::kFloodMaxKnownN, config);

    ExpectSameStats(fast.stats, scratch.stats, kind);
    EXPECT_FALSE(fast.stats.tinterval_validated) << kind;
    EXPECT_TRUE(fast.Ok()) << kind;
    EXPECT_TRUE(scratch.Ok()) << kind;
  }
}

/// Independent CSR oracle: every node's neighbours collected and sorted.
std::vector<std::vector<NodeId>> NaiveNeighbors(NodeId n,
                                                std::span<const Edge> edges) {
  std::vector<std::vector<NodeId>> out(static_cast<std::size_t>(n));
  for (const Edge& e : edges) {
    out[static_cast<std::size_t>(e.u)].push_back(e.v);
    out[static_cast<std::size_t>(e.v)].push_back(e.u);
  }
  for (std::vector<NodeId>& nbrs : out) std::sort(nbrs.begin(), nbrs.end());
  return out;
}

/// Commits `edges` serially and on the shared pool: the two views must be
/// byte-identical (Graph == compares edges, offsets and adjacency), so must
/// the scratch footprints, and both must match the naive oracle.
void ExpectPooledCommitMatchesSerial(NodeId n, const std::vector<Edge>& edges,
                                     const std::string& what) {
  DynGraph serial(n);
  DynGraph pooled(n);
  serial.EditBuffer() = edges;
  pooled.EditBuffer() = edges;
  serial.CommitEdges();
  pooled.CommitEdges(&util::ThreadPool::Shared());
  ASSERT_EQ(pooled.View(), serial.View()) << what;
  EXPECT_EQ(pooled.ScratchBytes(), serial.ScratchBytes()) << what;
  const auto naive = NaiveNeighbors(n, edges);
  for (NodeId u = 0; u < n; ++u) {
    const auto got = pooled.View().Neighbors(u);
    ASSERT_TRUE(std::equal(got.begin(), got.end(),
                           naive[static_cast<std::size_t>(u)].begin(),
                           naive[static_cast<std::size_t>(u)].end()))
        << what << " node " << u;
  }
}

/// `count` distinct random edges on n nodes, sorted.
std::vector<Edge> RandomEdges(NodeId n, std::int64_t count, util::Rng& rng) {
  std::vector<Edge> edges;
  while (static_cast<std::int64_t>(edges.size()) < count) {
    while (static_cast<std::int64_t>(edges.size()) < count) {
      const auto u =
          static_cast<NodeId>(rng.UniformU64(static_cast<std::uint64_t>(n)));
      auto v = static_cast<NodeId>(
          rng.UniformU64(static_cast<std::uint64_t>(n) - 1));
      if (v >= u) ++v;
      edges.emplace_back(u, v);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }
  return edges;
}

TEST(CsrBuilder, ChunkCountDependsOnTheEdgeCountOnly) {
  constexpr std::int64_t kChunk = CsrBuilder::kChunkEdges;
  EXPECT_EQ(CsrBuilder::Chunks(0), 1);
  EXPECT_EQ(CsrBuilder::Chunks(kChunk), 1);
  EXPECT_EQ(CsrBuilder::Chunks(kChunk + 1), 2);
  EXPECT_EQ(CsrBuilder::Chunks(3 * kChunk), 3);
  EXPECT_EQ(CsrBuilder::Chunks(kChunk * CsrBuilder::kMaxChunks),
            CsrBuilder::kMaxChunks);
  EXPECT_EQ(CsrBuilder::Chunks(kChunk * CsrBuilder::kMaxChunks * 16),
            CsrBuilder::kMaxChunks);
}

/// The scale workload's own rounds: n = 65536 spine-gnp at T = 2 alternates
/// plain rounds (one spine) and era-boundary rounds (two spines unioned),
/// about 0.75M and 1.5M edges. Both commit paths and the pooled delta path
/// must build the same view.
TEST(PooledCommit, SpineGnpRoundsAt65536MatchTheSerialFill) {
  const NodeId n = 65536;
  const ZeroView view(n);
  adversary::AdversaryConfig config;
  config.kind = "spine-gnp";
  config.n = n;
  config.T = 2;
  config.seed = 20220711;
  const auto adv = adversary::MakeAdversary(config);
  DynGraph by_delta(n);
  TopologyDelta delta;
  std::vector<Edge> edges;
  std::int64_t plain_edges = 0;
  for (std::int64_t r = 1; r <= 3; ++r) {
    ASSERT_TRUE(adv->RoundEdgesInto(r, view, edges));
    ASSERT_GT(CsrBuilder::Chunks(static_cast<std::int64_t>(edges.size())), 1);
    ExpectPooledCommitMatchesSerial(n, edges, "round " + std::to_string(r));
    DiffSorted(by_delta.View().Edges(), edges, delta);
    by_delta.Apply(delta, &util::ThreadPool::Shared());
    const Graph serial(n, edges, Graph::SortedEdges{});
    ASSERT_EQ(by_delta.View(), serial) << "pooled Apply, round " << r;
    if (r == 2) plain_edges = static_cast<std::int64_t>(edges.size());
  }
  // Round 3 opens era 1 and carries both spines.
  EXPECT_GT(static_cast<std::int64_t>(edges.size()), plain_edges * 3 / 2);
}

TEST(PooledCommit, ListsAroundTheChunkThresholdMatchTheSerialFill) {
  constexpr std::int64_t kChunk = CsrBuilder::kChunkEdges;
  util::Rng rng(91);
  for (const std::int64_t count :
       {kChunk - 1, kChunk, kChunk + 1, 2 * kChunk + 3,
        kChunk * CsrBuilder::kMaxChunks + 5}) {
    const NodeId n = 4096;
    ExpectPooledCommitMatchesSerial(n, RandomEdges(n, count, rng),
                                    "count " + std::to_string(count));
  }
}

TEST(PooledCommit, IsolatedNodesMatchTheSerialFill) {
  // Edges only between even nodes below n/3: two thirds of the nodes, and
  // every odd one, have empty buckets interleaved with full ones.
  const NodeId n = 60000;
  util::Rng rng(92);
  std::vector<Edge> edges = RandomEdges(n / 6, 3 * CsrBuilder::kChunkEdges, rng);
  for (Edge& e : edges) e = Edge(2 * e.u, 2 * e.v);
  std::sort(edges.begin(), edges.end());
  ExpectPooledCommitMatchesSerial(n, edges, "isolated");
}

TEST(PooledCommit, StarRunLongerThanAChunkMatchesTheSerialFill) {
  // Centre 0: its u-run spans every chunk. Centre n-1: every chunk scatters
  // into its one bucket from the v side.
  const NodeId n = static_cast<NodeId>(3 * CsrBuilder::kChunkEdges);
  for (const NodeId centre : {NodeId{0}, n - 1}) {
    std::vector<Edge> edges;
    for (NodeId v = 0; v < n; ++v) {
      if (v != centre) edges.emplace_back(centre, v);
    }
    std::sort(edges.begin(), edges.end());
    ExpectPooledCommitMatchesSerial(n, edges,
                                    "star centre " + std::to_string(centre));
  }
}

TEST(PooledCommit, OutOfRangeEdgeDeepInALargeListLeavesTheViewUntouched) {
  const NodeId n = 4096;
  util::Rng rng(93);
  const std::vector<Edge> valid = RandomEdges(n, 5 * CsrBuilder::kChunkEdges, rng);
  // The sortedness scan would reject the bad lists too; switch it off so
  // the always-on range check inside the pooled fill is what fires.
  const bool old_verify = VerifySortedEdges();
  SetVerifySortedEdges(false);
  DynGraph dyn(n);
  dyn.EditBuffer() = valid;
  dyn.CommitEdges(&util::ThreadPool::Shared());
  const Graph snapshot = dyn.View();

  // Three quarters in: a chunk other than the first owns the bad edge.
  const std::size_t at = valid.size() * 3 / 4;
  for (const NodeId bad_v : {n, NodeId{-1}}) {
    std::vector<Edge> bad = RandomEdges(n, 5 * CsrBuilder::kChunkEdges, rng);
    bad[at].v = bad_v;
    dyn.EditBuffer() = bad;
    EXPECT_THROW(dyn.CommitEdges(&util::ThreadPool::Shared()),
                 util::CheckError);
    EXPECT_EQ(dyn.View(), snapshot) << "bad v " << bad_v;
  }
  // A rejected commit leaves nothing behind: the next one succeeds.
  dyn.EditBuffer() = valid;
  dyn.CommitEdges(&util::ThreadPool::Shared());
  EXPECT_EQ(dyn.View(), snapshot);
  SetVerifySortedEdges(old_verify);
}

}  // namespace
}  // namespace sdn::graph
