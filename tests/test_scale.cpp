// The million-node scaffolding: arena allocation, per-subsystem memory
// accounting, the SoA sketch pool's layout, and streaming topology at
// n=65536 (docs/PERF.md "Scale").
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

TEST(Arena, AllocatesAlignedAndZeroInitialized) {
  util::Arena arena(/*chunk_bytes=*/256);
  const std::span<unsigned char> flags = arena.MakeArray<unsigned char>(100);
  ASSERT_EQ(flags.size(), 100u);
  for (const unsigned char f : flags) EXPECT_EQ(f, 0);

  struct alignas(64) Slot {
    std::int64_t payload[8];
  };
  const std::span<Slot> slots = arena.MakeArray<Slot>(10);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(slots.data()) % 64, 0u);
  for (const Slot& s : slots) {
    for (const std::int64_t v : s.payload) EXPECT_EQ(v, 0);
  }
  EXPECT_GE(arena.bytes_allocated(), 100 + 10 * sizeof(Slot));
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_allocated());
}

TEST(Arena, OversizedRequestGetsDedicatedChunk) {
  util::Arena arena(/*chunk_bytes=*/64);
  const std::span<std::int64_t> big = arena.MakeArray<std::int64_t>(10'000);
  ASSERT_EQ(big.size(), 10'000u);
  big[0] = 1;
  big[9'999] = 2;  // the whole span is addressable
  EXPECT_EQ(big[0] + big[9'999], 3);
  // A following small allocation still works (new chunk, old one full).
  const std::span<int> small = arena.MakeArray<int>(4);
  EXPECT_EQ(small.size(), 4u);
}

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
// wired through RunConfig, and the identical bytes at any thread count.
TEST(MemoryAccounting, RunStatsMemoryIsPopulatedAndThreadInvariant) {
  util::MemoryBudget budget;
  RunConfig config;
  config.n = 192;
  config.T = 2;
  config.seed = 3;
  config.adversary.kind = "spine-gnp";
  config.threads = 1;
  config.memory_budget = &budget;
  const RunResult serial = RunAlgorithm(Algorithm::kHjswyEstimate, config);

  bool saw_pool = false;
  for (const net::MemoryUse& m : serial.stats.memory) {
    if (m.subsystem == "sketch_pool") {
      saw_pool = true;
      // n rows × (count + sum columns reserved only when track_sum) × f32.
      EXPECT_EQ(m.peak_bytes, 192 * 64 * 4);
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

  util::MemoryBudget budget2;
  config.memory_budget = &budget2;
  config.threads = 2;
  const RunResult parallel = RunAlgorithm(Algorithm::kHjswyEstimate, config);
  ASSERT_EQ(serial.stats.memory.size(), parallel.stats.memory.size());
  for (std::size_t i = 0; i < serial.stats.memory.size(); ++i) {
    EXPECT_EQ(serial.stats.memory[i].subsystem,
              parallel.stats.memory[i].subsystem);
    EXPECT_EQ(serial.stats.memory[i].peak_bytes,
              parallel.stats.memory[i].peak_bytes)
        << serial.stats.memory[i].subsystem;
  }
  // The engine-internal budget (no RunConfig::memory_budget) still reports
  // the engine subsystems.
  config.memory_budget = nullptr;
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
