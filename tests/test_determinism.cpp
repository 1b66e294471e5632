// Thread-count invariance of the engine (docs/PERF.md).
//
// EngineOptions::threads decides only how a run executes: threads 1 is the
// serial engine, and threads > 1 at n >= 128 puts the send/deliver phases
// on the pool and engages each pipelining overlap (topology prefetch,
// certification on the auxiliary lane, fused send/deliver) whose
// precondition holds. Every statistic except the wall-clock timings must
// be bit-identical at threads 1, 2 and hardware. These tests pin that
// contract for representative algorithms on an oblivious adversary
// (spine-gnp: prefetch and fusion engage), an adaptive one (adaptive-desc:
// only the phases are parallel) and a streaming-trace replay. n = 192
// gives 3 shards, so threads > 1 genuinely takes the pool path.
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
  EXPECT_EQ(a.stats.tinterval_validated, b.stats.tinterval_validated);
  EXPECT_EQ(a.stats.tinterval_ok, b.stats.tinterval_ok);
  EXPECT_EQ(a.stats.certified_T, b.stats.certified_T);
  EXPECT_EQ(a.stats.min_stable_forest, b.stats.min_stable_forest);
  EXPECT_EQ(a.stats.tinterval_first_bad_window,
            b.stats.tinterval_first_bad_window);
  EXPECT_EQ(a.count_exact, b.count_exact);
  EXPECT_EQ(a.max_correct, b.max_correct);
  EXPECT_EQ(a.consensus_agreement, b.consensus_agreement);
}

/// Serial (threads 1) against pooled runs at threads 2 and hardware. With
/// `validate` on, certification is genuinely exercised on the pooled runs'
/// lane and its verdict fields are compared against the serial checker's.
void CheckThreadInvariance(Algorithm algorithm, const std::string& adversary,
                           std::int64_t max_rounds, bool validate = false) {
  RunConfig config;
  config.n = 192;
  config.T = 2;
  config.seed = 12345;
  config.adversary.kind = adversary;
  config.max_rounds = max_rounds;
  config.validate_tinterval = validate;

  // 1 = serial reference, 2 = minimal parallel, 0 = every hardware lane.
  config.threads = 1;
  const RunResult serial = RunAlgorithm(algorithm, config);
  EXPECT_EQ(serial.stats.tinterval_validated, validate);
  EXPECT_TRUE(serial.stats.tinterval_ok);
  for (const int threads : {2, 0}) {
    config.threads = threads;
    const RunResult parallel = RunAlgorithm(algorithm, config);
    SCOPED_TRACE(std::string(ToString(algorithm)) + " on " + adversary +
                 " threads=" + std::to_string(threads));
    ExpectIdenticalRuns(serial, parallel);
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

// Validated runs, oblivious arm: spine-gnp claims compositions, so the
// pooled runs certify composition claims in place on the engine's lane
// while prefetch and fusion engage.
TEST(Determinism, ValidatedRunsOnObliviousSpine) {
  CheckThreadInvariance(Algorithm::kHjswyCensus, "spine-gnp", 100'000,
                        /*validate=*/true);
}

// Validated runs, adaptive arm: prefetch and fusion stay off (the
// adversary samples PublicState between rounds) while the lane checker
// consumes per-round deltas off the critical path.
TEST(Determinism, ValidatedRunsOnAdaptiveAdversary) {
  CheckThreadInvariance(Algorithm::kKloCensusT, "adaptive-desc", 3'000,
                        /*validate=*/true);
}

// Streaming arm: record a spine trace to disk, then replay it through
// StreamingTraceAdversary — delta-native, strictly sequential DeltaFor,
// not registered in the factory, so this test runs the engine directly.
// The lane must preserve the reader's in-order contract, and the lane
// checker must certify each round's delta before the prefetch behind it
// in the same lane task overwrites that delta.
TEST(Determinism, ThreadInvarianceOnStreamingTrace) {
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
      ::testing::TempDir() + "sdn_determinism_stream_trace.txt";
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

  const auto run_streamed = [&path](int threads) {
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
    net::Engine<algo::HjswyProgram> engine(std::move(nodes), streaming, opts);
    return engine.Run();
  };

  const net::RunStats reference = run_streamed(/*threads=*/1);
  EXPECT_TRUE(reference.tinterval_validated);
  EXPECT_TRUE(reference.tinterval_ok);
  for (const int threads : {2, 0}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const net::RunStats run = run_streamed(threads);
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
    EXPECT_EQ(reference.tinterval_first_bad_window,
              run.tinterval_first_bad_window);
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
