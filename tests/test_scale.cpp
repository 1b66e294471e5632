// The million-node scaffolding: per-subsystem memory accounting, the SoA
// sketch pool's layout, and streaming topology at n=65536 (docs/PERF.md
// "Scale").
//
// The load-bearing contracts:
//   * RunStats::memory is deterministic (thread-count invariant) and only
//     charges size-deterministic subsystems;
//   * a streaming (TraceStreamReader-driven) replay of a recorded trace is
//     bit-identical to the fully materialized ReplayAdversary path while
//     holding O(E_round) live graph bytes, not O(rounds·E).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "adversary/factory.hpp"
#include "adversary/replay.hpp"
#include "adversary/streaming_trace.hpp"
#include "algo/hjswy.hpp"
#include "algo/sketch_pool.hpp"
#include "core/api.hpp"
#include "graph/delta.hpp"
#include "net/engine.hpp"
#include "net/trace.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace sdn {
namespace {

TEST(MemoryBudget, GaugesTrackCurrentAndPeak) {
  util::MemoryBudget budget;
  util::MemoryGauge* g = budget.Get("outbox");
  EXPECT_EQ(g, budget.Get("outbox"));  // stable pointer, no duplicate
  g->SetCurrent(100);
  g->Add(50);
  g->SetCurrent(30);
  EXPECT_EQ(g->current(), 30);
  EXPECT_EQ(g->peak(), 150);
  budget.Get("pool")->SetCurrent(1000);
  EXPECT_EQ(budget.PeakBytes("outbox"), 150);
  EXPECT_EQ(budget.PeakBytes("pool"), 1000);
  EXPECT_EQ(budget.PeakBytes("absent"), 0);
  EXPECT_EQ(budget.TotalPeakBytes(), 1150);
  const auto snapshot = budget.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].subsystem, "outbox");
  EXPECT_EQ(snapshot[0].current_bytes, 30);
  EXPECT_EQ(snapshot[0].peak_bytes, 150);
}

TEST(SketchPool, StoresFloat32ColumnMajor) {
  algo::SketchPool pool(/*nodes=*/8, /*columns=*/4);
  EXPECT_EQ(pool.bytes(), 8 * 4 * sizeof(float));
  pool.Store(3, 2, 1.5f);
  EXPECT_EQ(pool.Load(3, 2), 1.5f);
  EXPECT_EQ(pool.LoadBits(3, 2), std::bit_cast<std::uint32_t>(1.5f));
  pool.StoreBits(7, 0, std::bit_cast<std::uint32_t>(0.25f));
  EXPECT_EQ(pool.Load(7, 0), 0.25f);
  // Untouched slots are zero.
  EXPECT_EQ(pool.Load(0, 0), 0.0f);
}

// RunStats::memory reports the deterministic footprint breakdown: the
// engine-owned subsystems always, the sketch pool when a shared budget is
// wired through RunConfig, and the identical bytes, with identical core
// RunStats, at threads 1, 2 and hardware. The second input, spine-gnp at
// n=8192 (~74k edges in a plain round, ~148k at an era boundary), is above
// CsrBuilder::kChunkEdges, so its topology fill is chunked and runs on the
// pool; the chunk count, and with it the topology_scratch gauge, follows
// the edge count alone.
TEST(MemoryAccounting, RunStatsMemoryIsPopulatedAndThreadInvariant) {
  struct Input {
    graph::NodeId n;
    std::int64_t max_rounds;
  };
  for (const Input input :
       {Input{192, RunConfig{}.max_rounds}, Input{8192, 6}}) {
    SCOPED_TRACE("n=" + std::to_string(input.n));
    util::MemoryBudget budget;
    RunConfig config;
    config.n = input.n;
    config.T = 2;
    config.seed = 3;
    config.adversary.kind = "spine-gnp";
    config.max_rounds = input.max_rounds;
    config.threads = 1;
    config.memory_budget = &budget;
    const RunResult serial = RunAlgorithm(Algorithm::kHjswyEstimate, config);

    bool saw_pool = false;
    for (const net::MemoryUse& m : serial.stats.memory) {
      if (m.subsystem == "sketch_pool") {
        saw_pool = true;
        // n rows × (count + sum columns reserved only when track_sum) × f32.
        EXPECT_EQ(m.peak_bytes, std::int64_t{input.n} * 64 * 4);
      }
    }
    EXPECT_TRUE(saw_pool);
    for (const char* subsystem : {"outbox", "programs", "topology"}) {
      bool found = false;
      for (const net::MemoryUse& m : serial.stats.memory) {
        if (m.subsystem == subsystem) {
          found = true;
          EXPECT_GT(m.peak_bytes, 0) << subsystem;
        }
      }
      EXPECT_TRUE(found) << subsystem;
    }
    ASSERT_GT(serial.stats.rounds, 0);
    if (input.n == 8192) {
      EXPECT_GT(serial.stats.edges_processed / serial.stats.rounds,
                graph::CsrBuilder::kChunkEdges);
    }

    for (const int threads : {2, 0}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      util::MemoryBudget parallel_budget;
      config.memory_budget = &parallel_budget;
      config.threads = threads;
      const net::RunStats parallel =
          RunAlgorithm(Algorithm::kHjswyEstimate, config).stats;
      EXPECT_EQ(serial.stats.rounds, parallel.rounds);
      EXPECT_EQ(serial.stats.all_decided, parallel.all_decided);
      EXPECT_EQ(serial.stats.decide_round, parallel.decide_round);
      EXPECT_EQ(serial.stats.messages_sent, parallel.messages_sent);
      EXPECT_EQ(serial.stats.total_message_bits, parallel.total_message_bits);
      EXPECT_EQ(serial.stats.max_message_bits, parallel.max_message_bits);
      EXPECT_EQ(serial.stats.edges_processed, parallel.edges_processed);
      EXPECT_EQ(serial.stats.messages_delivered, parallel.messages_delivered);
      EXPECT_EQ(serial.stats.flooding.completed, parallel.flooding.completed);
      EXPECT_EQ(serial.stats.flooding.max_rounds, parallel.flooding.max_rounds);
      EXPECT_EQ(serial.stats.tinterval_ok, parallel.tinterval_ok);
      EXPECT_EQ(serial.stats.certified_T, parallel.certified_T);
      ASSERT_EQ(serial.stats.memory.size(), parallel.memory.size());
      for (std::size_t i = 0; i < serial.stats.memory.size(); ++i) {
        const net::MemoryUse& a = serial.stats.memory[i];
        const net::MemoryUse& b = parallel.memory[i];
        EXPECT_EQ(a.subsystem, b.subsystem);
        EXPECT_EQ(a.current_bytes, b.current_bytes) << a.subsystem;
        EXPECT_EQ(a.peak_bytes, b.peak_bytes) << a.subsystem;
      }
    }
  }
  // The engine-internal budget (no RunConfig::memory_budget) still reports
  // the engine subsystems.
  RunConfig config;
  config.n = 192;
  config.T = 2;
  config.seed = 3;
  config.adversary.kind = "spine-gnp";
  config.threads = 1;
  const RunResult internal = RunAlgorithm(Algorithm::kHjswyEstimate, config);
  EXPECT_FALSE(internal.stats.memory.empty());
}

class NullView final : public net::AdversaryView {
 public:
  [[nodiscard]] std::int64_t round() const override { return 1; }
  [[nodiscard]] double PublicState(graph::NodeId) const override { return 0; }
  [[nodiscard]] graph::NodeId num_nodes() const override { return 0; }
};

net::RunStats RunHjswyAgainst(net::Adversary& adversary,
                              util::MemoryBudget* budget) {
  const graph::NodeId n = adversary.num_nodes();
  algo::HjswyOptions options;
  options.T = adversary.interval();
  algo::SketchPool pool(static_cast<std::size_t>(n),
                        algo::HjswyProgram::RequiredPoolColumns(options));
  util::Rng base(99);
  std::vector<algo::HjswyProgram> nodes;
  nodes.reserve(static_cast<std::size_t>(n));
  for (graph::NodeId u = 0; u < n; ++u) {
    nodes.emplace_back(u, u, options, base.Fork(static_cast<std::uint64_t>(u)),
                       &pool);
  }
  net::EngineOptions opts;
  opts.flood_probes = 0;
  opts.threads = 1;
  opts.max_rounds = 40;  // throughput/equality pin, not time-to-decide
  opts.memory_budget = budget;
  net::Engine<algo::HjswyProgram> engine(std::move(nodes), adversary, opts);
  return engine.Run();
}

// Satellite: streaming topology at n=65536. Record a keyframe+delta trace,
// then replay it (a) fully materialized through LoadTrace+ReplayAdversary
// and (b) streamed through TraceStreamReader — identical RunStats, and the
// streaming side's live graph bytes bounded by O(E_round), not O(rounds·E).
TEST(StreamingTopology, LargeTraceStreamsBitIdenticalWithBoundedMemory) {
  const graph::NodeId n = 65536;
  const std::int64_t recorded_rounds = 24;
  adversary::AdversaryConfig config;
  config.kind = "spine-expander";
  config.n = n;
  config.T = 2;
  config.seed = 11;
  const auto source = adversary::MakeAdversary(config);

  const std::string path =
      ::testing::TempDir() + "sdn_scale_stream_trace.txt";
  {
    net::TraceRecorder recorder(path, n, /*interval=*/2, /*keyframe_every=*/8);
    graph::DynGraph dyn(n);
    graph::TopologyDelta delta;
    NullView view;
    for (std::int64_t r = 1; r <= recorded_rounds; ++r) {
      source->DeltaFor(r, view, dyn.View(), delta);
      dyn.Apply(delta);
      recorder.Push(dyn.View(), delta);
    }
    recorder.Close();
  }

  // Arm A: the whole trace materialized (rounds · Graph in memory).
  net::RunStats materialized;
  {
    net::Trace trace = net::LoadTrace(path);
    adversary::ReplayAdversary replay(std::move(trace.rounds), trace.interval);
    materialized = RunHjswyAgainst(replay, nullptr);
  }

  // Arm B: streamed from the file, one record at a time.
  util::MemoryBudget budget;
  adversary::StreamingTraceAdversary streaming(path, &budget);
  const net::RunStats streamed = RunHjswyAgainst(streaming, &budget);

  EXPECT_EQ(materialized.rounds, streamed.rounds);
  EXPECT_EQ(materialized.decide_round, streamed.decide_round);
  EXPECT_EQ(materialized.messages_sent, streamed.messages_sent);
  EXPECT_EQ(materialized.sends_per_node, streamed.sends_per_node);
  EXPECT_EQ(materialized.total_message_bits, streamed.total_message_bits);
  EXPECT_EQ(materialized.edges_processed, streamed.edges_processed);
  EXPECT_EQ(materialized.messages_delivered, streamed.messages_delivered);

  // The O(E_round) bound. E_max is the largest single round; the streaming
  // reader may hold one full keyframe edge list plus the delta window (in
  // reused buffers), and the engine one CSR + delta — each a small constant
  // times E_max bytes, nowhere near the rounds·E a materialized sequence
  // costs.
  const std::int64_t e_max = streaming.max_round_edges();
  ASSERT_GT(e_max, n / 2);  // sanity: the expander rounds are E = Θ(n)
  const auto edge_bytes = static_cast<std::int64_t>(sizeof(graph::Edge));
  const std::int64_t stream_peak = budget.PeakBytes("trace_stream");
  EXPECT_GT(stream_peak, 0);
  EXPECT_LE(stream_peak, 8 * (e_max + 64) * edge_bytes);
  const std::int64_t topology_peak = budget.PeakBytes("topology");
  EXPECT_GT(topology_peak, 0);
  // One CSR (edges + adjacency) + offsets + delta window, with 2x slack.
  EXPECT_LE(topology_peak,
            2 * (e_max * (edge_bytes + 2 * edge_bytes) +
                 static_cast<std::int64_t>(n + 1) * 8));
  // And the whole streaming accounting is a sliver of the materialized
  // alternative (rounds·E edges held at once).
  EXPECT_LT(stream_peak + topology_peak,
            materialized.edges_processed * edge_bytes);

  std::remove(path.c_str());
}

}  // namespace
}  // namespace sdn
