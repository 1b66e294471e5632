// Thread-count and overlap-toggle invariance of the parallel engine
// (docs/PERF.md).
//
// EngineOptions::threads is documented as a pure throughput knob: every
// statistic except the wall-clock timings must be bit-identical whether the
// send/deliver phases ran serially, on two lanes, or on every hardware lane
// (with topology prefetch on oblivious adversaries). These tests pin that
// contract for representative algorithms on an oblivious adversary
// (spine-gnp, prefetch exercised) and an adaptive one (adaptive-desc,
// prefetch disabled, parallel phases still on). n = 192 gives 3 shards, so
// threads > 1 genuinely takes the pool path.
//
// The pipelining overlaps (prefetch_topology, async_certification,
// fused_send_deliver) carry the same contract: each is a pure scheduling
// change, so the overlap matrix below runs every toggle individually and
// all together, across thread counts and across oblivious / adaptive /
// streaming-trace adversaries, against an all-overlaps-off serial
// reference.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "adversary/replay.hpp"
#include "adversary/streaming_trace.hpp"
#include "algo/flood_max.hpp"
#include "algo/hjswy.hpp"
#include "algo/sketch_pool.hpp"
#include "core/api.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "net/engine.hpp"
#include "net/trace.hpp"
#include "obs/anomaly.hpp"
#include "obs/openmetrics.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace sdn {
namespace {

void ExpectIdenticalRuns(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.all_decided, b.stats.all_decided);
  EXPECT_EQ(a.stats.hit_max_rounds, b.stats.hit_max_rounds);
  EXPECT_EQ(a.stats.first_decide_round, b.stats.first_decide_round);
  EXPECT_EQ(a.stats.last_decide_round, b.stats.last_decide_round);
  EXPECT_EQ(a.stats.decide_round, b.stats.decide_round);
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);
  EXPECT_EQ(a.stats.sends_per_node, b.stats.sends_per_node);
  EXPECT_EQ(a.stats.total_message_bits, b.stats.total_message_bits);
  EXPECT_EQ(a.stats.max_message_bits, b.stats.max_message_bits);
  EXPECT_EQ(a.stats.bandwidth_violation.has_value(),
            b.stats.bandwidth_violation.has_value());
  EXPECT_EQ(a.stats.edges_processed, b.stats.edges_processed);
  EXPECT_EQ(a.stats.messages_delivered, b.stats.messages_delivered);
  EXPECT_EQ(a.stats.flooding.probes, b.stats.flooding.probes);
  EXPECT_EQ(a.stats.flooding.completed, b.stats.flooding.completed);
  EXPECT_EQ(a.stats.flooding.max_rounds, b.stats.flooding.max_rounds);
  EXPECT_EQ(a.count_exact, b.count_exact);
  EXPECT_EQ(a.max_correct, b.max_correct);
  EXPECT_EQ(a.consensus_agreement, b.consensus_agreement);
}

void CheckThreadInvariance(Algorithm algorithm, const std::string& adversary,
                           std::int64_t max_rounds) {
  RunConfig config;
  config.n = 192;
  config.T = 2;
  config.seed = 12345;
  config.adversary.kind = adversary;
  config.max_rounds = max_rounds;
  config.validate_tinterval = false;

  // 1 = serial reference, 2 = minimal parallel, 0 = every hardware lane.
  config.threads = 1;
  const RunResult serial = RunAlgorithm(algorithm, config);
  for (const int threads : {2, 0}) {
    config.threads = threads;
    const RunResult parallel = RunAlgorithm(algorithm, config);
    SCOPED_TRACE(std::string(ToString(algorithm)) + " on " + adversary +
                 " threads=" + std::to_string(threads));
    ExpectIdenticalRuns(serial, parallel);
  }
}

// One overlap-matrix sweep: an all-overlaps-off serial run is the
// reference; each pipelining toggle alone, and all three together, must
// reproduce it bit-for-bit at threads 1, 2 and hardware. Certification is
// ON here (unlike the thread-invariance tests above) so certification on
// the engine's lane is genuinely exercised and its verdict fields are
// compared against the synchronous checker's.
void CheckOverlapInvariance(Algorithm algorithm, const std::string& adversary,
                            std::int64_t max_rounds) {
  RunConfig config;
  config.n = 192;
  config.T = 2;
  config.seed = 12345;
  config.adversary.kind = adversary;
  config.max_rounds = max_rounds;
  config.validate_tinterval = true;

  config.threads = 1;
  config.prefetch_topology = false;
  config.async_certification = false;
  config.fused_send_deliver = false;
  const RunResult reference = RunAlgorithm(algorithm, config);
  EXPECT_TRUE(reference.stats.tinterval_validated);
  EXPECT_TRUE(reference.stats.tinterval_ok);

  // {prefetch_topology, async_certification, fused_send_deliver}.
  constexpr bool kRows[4][3] = {{true, false, false},
                                {false, true, false},
                                {false, false, true},
                                {true, true, true}};
  for (const auto& row : kRows) {
    for (const int threads : {1, 2, 0}) {
      config.prefetch_topology = row[0];
      config.async_certification = row[1];
      config.fused_send_deliver = row[2];
      config.threads = threads;
      SCOPED_TRACE(std::string(ToString(algorithm)) + " on " + adversary +
                   " prefetch=" + std::to_string(row[0]) +
                   " async_cert=" + std::to_string(row[1]) +
                   " fused=" + std::to_string(row[2]) +
                   " threads=" + std::to_string(threads));
      const RunResult run = RunAlgorithm(algorithm, config);
      ExpectIdenticalRuns(reference, run);
      EXPECT_EQ(reference.stats.tinterval_validated,
                run.stats.tinterval_validated);
      EXPECT_EQ(reference.stats.tinterval_ok, run.stats.tinterval_ok);
      EXPECT_EQ(reference.stats.certified_T, run.stats.certified_T);
      EXPECT_EQ(reference.stats.min_stable_forest, run.stats.min_stable_forest);
      EXPECT_EQ(reference.stats.tinterval_first_bad_window,
                run.stats.tinterval_first_bad_window);
    }
  }
}

TEST(Determinism, HjswyCensusOnObliviousSpine) {
  CheckThreadInvariance(Algorithm::kHjswyCensus, "spine-gnp", 100'000);
}

TEST(Determinism, HjswyCensusOnAdaptiveAdversary) {
  CheckThreadInvariance(Algorithm::kHjswyCensus, "adaptive-desc", 100'000);
}

// Census needs ~N²/T rounds at this N; cap it (like the committee below) so
// the suite stays fast even under sanitizers. hjswy above covers the
// run-to-completion (all_decided) path.
TEST(Determinism, KloCensusOnObliviousSpine) {
  CheckThreadInvariance(Algorithm::kKloCensusT, "spine-gnp", 3'000);
}

TEST(Determinism, KloCensusOnAdaptiveAdversary) {
  CheckThreadInvariance(Algorithm::kKloCensusT, "adaptive-desc", 3'000);
}

// The committee protocol is O(N²) rounds; a tight max_rounds keeps the test
// fast and additionally pins that *truncated* runs are thread-invariant too.
TEST(Determinism, KloCommitteeOnObliviousSpine) {
  CheckThreadInvariance(Algorithm::kKloCommittee, "spine-gnp", 2'000);
}

TEST(Determinism, KloCommitteeOnAdaptiveAdversary) {
  CheckThreadInvariance(Algorithm::kKloCommittee, "adaptive-desc", 2'000);
}

// Overlap matrix, oblivious arm: spine-gnp claims compositions, so the
// async-certification rows here certify composition claims in place on
// the engine's lane, and prefetch + fusion both engage at threads > 1.
TEST(Determinism, OverlapTogglesOnObliviousSpine) {
  CheckOverlapInvariance(Algorithm::kHjswyCensus, "spine-gnp", 100'000);
}

// Overlap matrix, adaptive arm: prefetch and fusion are gated off by the
// engine (the adversary samples PublicState between rounds), so these rows
// pin that the toggles are safe no-ops there while the async checker still
// consumes per-round deltas off the critical path.
TEST(Determinism, OverlapTogglesOnAdaptiveAdversary) {
  CheckOverlapInvariance(Algorithm::kKloCensusT, "adaptive-desc", 3'000);
}

// Overlap matrix, streaming arm: record a spine trace to disk, then replay
// it through StreamingTraceAdversary — delta-native, strictly sequential
// DeltaFor, not registered in the factory, so this row runs the engine
// directly. The lane must preserve the reader's in-order contract, and the
// async checker must certify each round's delta before the prefetch
// behind it in the same lane task overwrites that delta.
TEST(Determinism, OverlapTogglesOnStreamingTrace) {
  const graph::NodeId n = 192;
  const std::int64_t recorded_rounds = 48;
  adversary::AdversaryConfig source_config;
  source_config.kind = "spine-gnp";
  source_config.n = n;
  source_config.T = 2;
  source_config.seed = 12345;
  const auto source = adversary::MakeAdversary(source_config);

  class NullView final : public net::AdversaryView {
   public:
    [[nodiscard]] std::int64_t round() const override { return 1; }
    [[nodiscard]] double PublicState(graph::NodeId) const override {
      return 0;
    }
    [[nodiscard]] graph::NodeId num_nodes() const override { return 0; }
  };

  const std::string path =
      ::testing::TempDir() + "sdn_determinism_overlap_trace.txt";
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

  const auto run_streamed = [&path](bool overlaps, int threads) {
    adversary::StreamingTraceAdversary streaming(path);
    algo::HjswyOptions options;
    options.T = streaming.interval();
    algo::SketchPool pool(
        static_cast<std::size_t>(streaming.num_nodes()),
        algo::HjswyProgram::RequiredPoolColumns(options));
    util::Rng base(99);
    std::vector<algo::HjswyProgram> nodes;
    nodes.reserve(static_cast<std::size_t>(streaming.num_nodes()));
    for (graph::NodeId u = 0; u < streaming.num_nodes(); ++u) {
      nodes.emplace_back(u, u, options,
                         base.Fork(static_cast<std::uint64_t>(u)), &pool);
    }
    net::EngineOptions opts;
    opts.flood_probes = 0;
    opts.threads = threads;
    opts.max_rounds = 40;  // stays inside the recorded trace
    opts.prefetch_topology = overlaps;
    opts.async_certification = overlaps;
    opts.fused_send_deliver = overlaps;
    net::Engine<algo::HjswyProgram> engine(std::move(nodes), streaming, opts);
    return engine.Run();
  };

  const net::RunStats reference = run_streamed(/*overlaps=*/false,
                                               /*threads=*/1);
  EXPECT_TRUE(reference.tinterval_validated);
  EXPECT_TRUE(reference.tinterval_ok);
  for (const bool overlaps : {false, true}) {
    for (const int threads : {1, 2, 0}) {
      if (!overlaps && threads == 1) continue;  // that is the reference
      SCOPED_TRACE("overlaps=" + std::to_string(overlaps) +
                   " threads=" + std::to_string(threads));
      const net::RunStats run = run_streamed(overlaps, threads);
      EXPECT_EQ(reference.rounds, run.rounds);
      EXPECT_EQ(reference.decide_round, run.decide_round);
      EXPECT_EQ(reference.messages_sent, run.messages_sent);
      EXPECT_EQ(reference.sends_per_node, run.sends_per_node);
      EXPECT_EQ(reference.total_message_bits, run.total_message_bits);
      EXPECT_EQ(reference.edges_processed, run.edges_processed);
      EXPECT_EQ(reference.messages_delivered, run.messages_delivered);
      EXPECT_EQ(reference.tinterval_validated, run.tinterval_validated);
      EXPECT_EQ(reference.tinterval_ok, run.tinterval_ok);
      EXPECT_EQ(reference.certified_T, run.certified_T);
      EXPECT_EQ(reference.min_stable_forest, run.min_stable_forest);
    }
  }

  std::remove(path.c_str());
}

// The flight recorder is pure observation: attaching it (at any thread
// count) must leave every statistic bit-identical to the untraced run, and
// the deterministic subset of the metrics registry must match too.
TEST(Determinism, TracingOnOrOffIsInvisibleToRunStats) {
  RunConfig config;
  config.n = 192;
  config.T = 2;
  config.seed = 12345;
  config.adversary.kind = "spine-gnp";
  config.validate_tinterval = false;
  config.collect_metrics = true;

  config.threads = 1;
  const RunResult untraced = RunAlgorithm(Algorithm::kHjswyCensus, config);

  for (const int threads : {1, 0}) {
    obs::FlightRecorder recorder;
    config.threads = threads;
    config.recorder = &recorder;
    const RunResult traced = RunAlgorithm(Algorithm::kHjswyCensus, config);
    config.recorder = nullptr;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectIdenticalRuns(untraced, traced);
    EXPECT_GT(recorder.total_emitted(), 0u);
    EXPECT_EQ(untraced.stats.metrics.Deterministic(),
              traced.stats.metrics.Deterministic());
  }
}

// The anomaly plane is observation too: with metrics collection on, the
// anomaly engine plus the OpenMetrics exposition must be invisible to every
// core statistic at any thread count, and the deterministic subset of the
// registry must match exactly (every anomaly instrument is flagged
// non-deterministic).
TEST(Determinism, AnomalyPlaneOnOrOffIsInvisibleToRunStats) {
  RunConfig config;
  config.n = 192;
  config.T = 2;
  config.seed = 12345;
  config.adversary.kind = "spine-gnp";
  config.validate_tinterval = false;
  config.collect_metrics = true;

  config.threads = 1;
  config.anomaly = false;
  const RunResult plain = RunAlgorithm(Algorithm::kHjswyCensus, config);

  for (const int threads : {1, 2, 0}) {
    config.threads = threads;
    config.anomaly = true;
    const RunResult watched = RunAlgorithm(Algorithm::kHjswyCensus, config);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectIdenticalRuns(plain, watched);
    EXPECT_EQ(plain.stats.metrics.Deterministic(),
              watched.stats.metrics.Deterministic());
    // Rendering the exposition is pure observation of the snapshot; it must
    // produce a well-terminated document without touching the run.
    const std::string exposition =
        obs::RenderOpenMetrics(watched.stats.metrics, {},
                               watched.stats.anomalies);
    EXPECT_EQ(exposition.substr(exposition.size() - 6), "# EOF\n");
  }
}

// The anomaly-dump contract: an injected fault must produce exactly one
// AnomalyRecord at the faulted round and, with a recorder attached, a
// flight-recorder dump whose retained window contains that round. The fault
// is one the host cannot fake: a replayed path claimed 2-interval connected
// loses one edge in round 12 alone, so round 12 is disconnected, the
// window ending there breaks the promise and certified-T falls from 2.
TEST(Determinism, InjectedFaultFiresExactlyOneAnomalyWithDump) {
  constexpr graph::NodeId kN = 32;
  constexpr std::int64_t kFaultRound = 12;
  const std::string dir = ::testing::TempDir();

  std::vector<graph::Graph> rounds(2 * kFaultRound, graph::Path(kN));
  const graph::Graph& path = rounds.front();
  std::vector<graph::Edge> cut(path.Edges().begin(), path.Edges().end());
  cut.erase(cut.begin() + kN / 2);
  rounds[kFaultRound - 1] = graph::Graph(kN, cut);
  adversary::ReplayAdversary replay(std::move(rounds), /*T=*/2);

  obs::FlightRecorder recorder;  // default ring: no wrap at this n
  net::EngineOptions opts;
  opts.threads = 1;
  opts.recorder = &recorder;
  opts.collect_metrics = true;
  opts.anomaly_options.dump_dir = dir;
  std::vector<algo::FloodMaxKnownN> nodes;
  for (graph::NodeId u = 0; u < kN; ++u) nodes.emplace_back(u, kN, u);
  net::Engine<algo::FloodMaxKnownN> engine(std::move(nodes), replay, opts);
  const net::RunStats stats = engine.Run();

  ASSERT_GT(stats.rounds, kFaultRound);  // the run reached the faulted round
  EXPECT_FALSE(stats.tinterval_ok);
  ASSERT_EQ(stats.anomalies.size(), 1u);
  const obs::AnomalyRecord& record = stats.anomalies.front();
  EXPECT_EQ(record.rule, obs::AnomalyRule::kCertRegression);
  EXPECT_EQ(record.round, kFaultRound);
  EXPECT_STREQ(record.signal, "certified_T");
  EXPECT_EQ(record.threshold, 2);
  EXPECT_LT(record.value, record.threshold);

  const std::string stem =
      dir + "/anomaly-" + std::to_string(kFaultRound) + "-cert_regression";
  std::ifstream jsonl(stem + ".jsonl");
  ASSERT_TRUE(jsonl.good()) << stem;
  std::stringstream body;
  body << jsonl.rdbuf();
  // The dump's retained window brackets the trigger: events stamped with
  // the faulted round must be inside it.
  EXPECT_NE(body.str().find("\"round\":" + std::to_string(kFaultRound)),
            std::string::npos);
  EXPECT_NE(body.str().find("\"anomaly_rule\":\"cert_regression\""),
            std::string::npos);
  // Round 12 alone is disconnected, so certified-T falls to 0, and the
  // round's checker_window line says so instead of omitting `c`.
  const std::string fault_round =
      "\"round\":" + std::to_string(kFaultRound) + ",";
  std::istringstream lines(body.str());
  int windows = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"kind\":\"checker_window\"") == std::string::npos ||
        line.find(fault_round) == std::string::npos) {
      continue;
    }
    ++windows;
    EXPECT_NE(line.find(",\"c\":0}"), std::string::npos) << line;
  }
  EXPECT_EQ(windows, 1);
  std::ifstream manifest(stem + ".manifest.json");
  EXPECT_TRUE(manifest.good()) << stem;
  std::remove((stem + ".jsonl").c_str());
  std::remove((stem + ".manifest.json").c_str());
}

// A healthy run must not page anyone: no rule fires at all. At spine-gnp
// n = 16384 the live `topology` gauge alternates between two levels every
// round (the first round of each era carries two spines) and the DynGraph
// scratch sizes itself in the first rounds; neither is a jump above the
// gauge's own high-water mark. adaptive-desc n = 256 is the metrics-on
// shape of the time-to-decide benchmark, where any rule judging round wall
// times would fire on a loaded host.
TEST(AnomalyPlane, HealthySpineGnpRunFiresNoMemoryJump) {
  const std::pair<const char*, graph::NodeId> inputs[] = {
      {"spine-gnp", 16384}, {"adaptive-desc", 256}};
  for (const auto& [kind, n] : inputs) {
    SCOPED_TRACE(std::string(kind) + " n=" + std::to_string(n));
    RunConfig config;
    config.n = n;
    config.T = 2;
    config.seed = 1;
    config.adversary.kind = kind;
    config.threads = 1;
    config.collect_metrics = true;
    const RunResult result = RunAlgorithm(Algorithm::kHjswyEstimate, config);
    ASSERT_TRUE(result.Ok());
    for (const obs::AnomalyRecord& r : result.stats.anomalies) {
      ADD_FAILURE() << obs::ToString(r.rule) << " at round " << r.round
                    << " signal " << r.signal << " value " << r.value
                    << " threshold " << r.threshold;
    }
  }
}

}  // namespace
}  // namespace sdn
