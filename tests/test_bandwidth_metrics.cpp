#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>

#include "core/api.hpp"
#include "net/bandwidth.hpp"
#include "net/metrics.hpp"
#include "obs/recorder.hpp"
#include "util/check.hpp"

namespace sdn::net {
namespace {

TEST(BandwidthPolicy, UnboundedIsUnlimited) {
  const BandwidthPolicy policy = BandwidthPolicy::Unbounded();
  EXPECT_EQ(policy.BitLimit(2), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(policy.BitLimit(1 << 20),
            std::numeric_limits<std::int64_t>::max());
}

TEST(BandwidthPolicy, BoundedScalesWithLogN) {
  const BandwidthPolicy policy = BandwidthPolicy::BoundedLogN(64.0, 1);
  EXPECT_EQ(policy.BitLimit(2), 64);
  EXPECT_EQ(policy.BitLimit(1024), 640);
  EXPECT_EQ(policy.BitLimit(1 << 20), 64 * 20);
}

TEST(BandwidthPolicy, FloorDominatesAtTinyN) {
  const BandwidthPolicy policy = BandwidthPolicy::BoundedLogN(64.0, 256);
  EXPECT_EQ(policy.BitLimit(1), 256);
  EXPECT_EQ(policy.BitLimit(4), 256);
  // log term overtakes the floor at n = 16 (64·log2(16) = 256).
  EXPECT_EQ(policy.BitLimit(16), 256);
  EXPECT_GT(policy.BitLimit(32), 256);
}

TEST(BandwidthPolicy, NonIntegerLogRoundsUp) {
  const BandwidthPolicy policy = BandwidthPolicy::BoundedLogN(10.0, 1);
  // log2(3) ≈ 1.585 -> ceil(15.85) = 16.
  EXPECT_EQ(policy.BitLimit(3), 16);
}

TEST(BandwidthPolicy, InvalidMultiplierRejected) {
  BandwidthPolicy policy;
  policy.multiplier = 0.0;
  EXPECT_THROW((void)policy.BitLimit(8), util::CheckError);
}

TEST(BandwidthPolicy, ModeNames) {
  EXPECT_STREQ(ToString(BandwidthMode::kUnbounded), "unbounded");
  EXPECT_STREQ(ToString(BandwidthMode::kBoundedLogN), "bounded-logN");
}

TEST(RunStats, AverageBits) {
  RunStats stats;
  stats.messages_sent = 4;
  stats.total_message_bits = 100;
  EXPECT_DOUBLE_EQ(stats.AvgBitsPerMessage(), 25.0);
  stats.messages_sent = 0;
  EXPECT_DOUBLE_EQ(stats.AvgBitsPerMessage(), 0.0);
}

TEST(RunStats, BitsPerNodeRound) {
  RunStats stats;
  stats.total_message_bits = 1200;
  stats.rounds = 10;
  EXPECT_DOUBLE_EQ(stats.BitsPerNodeRound(12), 10.0);
  EXPECT_DOUBLE_EQ(stats.BitsPerNodeRound(0), 0.0);
  stats.rounds = 0;
  EXPECT_DOUBLE_EQ(stats.BitsPerNodeRound(12), 0.0);
}

TEST(RunStats, OneLineMentionsKeyFields) {
  RunStats stats;
  stats.rounds = 42;
  stats.all_decided = true;
  stats.tinterval_ok = false;
  stats.tinterval_validated = true;
  const std::string line = stats.OneLine();
  EXPECT_NE(line.find("rounds=42"), std::string::npos);
  EXPECT_NE(line.find("VIOLATED"), std::string::npos);
}

TEST(RunStats, OneLineAttributesBandwidthViolations) {
  RunStats stats;
  stats.bandwidth_violation = BandwidthViolation{17, 42, 4096};
  const std::string line = stats.OneLine();
  EXPECT_NE(line.find("BW-VIOLATION(node=17 round=42 bits=4096)"),
            std::string::npos);
  // No violation -> no mention.
  stats.bandwidth_violation.reset();
  EXPECT_EQ(stats.OneLine().find("BW-VIOLATION"), std::string::npos);
}

TEST(RunStats, OneLineReportsUnvalidatedHonestly) {
  // A run with validation off must not print a confident "ok".
  RunStats stats;
  stats.tinterval_ok = true;
  stats.tinterval_validated = false;
  const std::string line = stats.OneLine();
  EXPECT_NE(line.find("tinterval=unvalidated"), std::string::npos);
}

TEST(EngineTimings, ThroughputMath) {
  EngineTimings t;
  EXPECT_DOUBLE_EQ(t.RoundsPerSec(100), 0.0);  // no time recorded yet
  t.total_ns = 2'000'000'000;                  // 2 s
  EXPECT_DOUBLE_EQ(t.RoundsPerSec(100), 50.0);
  EXPECT_DOUBLE_EQ(t.EdgesPerSec(1'000'000), 500'000.0);
  t.topology_ns = 1;
  const std::string line = t.OneLine(100, 1'000'000);
  EXPECT_NE(line.find("rounds/s=50"), std::string::npos);
  EXPECT_NE(line.find("deliver="), std::string::npos);
  EXPECT_NE(line.find("other="), std::string::npos);
}

// The named phases plus the residual partition total_ns exactly — on a real
// run, not just by construction (the engine debug-asserts the same identity
// per round; this pins it in release builds too).
TEST(EngineTimings, PhasesPartitionTotalExactly) {
  RunConfig config;
  config.n = 64;
  config.T = 2;
  config.seed = 7;
  config.adversary.kind = "spine-gnp";
  const RunResult result = RunAlgorithm(Algorithm::kHjswyEstimate, config);
  const EngineTimings& t = result.stats.timings;
  EXPECT_GT(t.total_ns, 0);
  EXPECT_GE(t.other_ns, 0);
  EXPECT_EQ(t.topology_ns + t.validate_ns + t.probe_ns + t.send_ns +
                t.deliver_ns + t.other_ns,
            t.total_ns);
}

// Every timing sink reads the same round clock: per phase, the registry
// histogram holds one observation per round and sums to the EngineTimings
// field, and the recorder's phase spans sum to it too. threads = 2 at
// n = 192 runs the topology prefetch.
TEST(EngineTimings, EverySinkReadsTheSameRoundClock) {
  struct Phase {
    const char* name;
    std::int64_t EngineTimings::*field;
    bool spanned;
  };
  const Phase phases[] = {
      {"topology", &EngineTimings::topology_ns, true},
      {"validate", &EngineTimings::validate_ns, true},
      {"probe", &EngineTimings::probe_ns, true},
      {"send", &EngineTimings::send_ns, true},
      {"deliver", &EngineTimings::deliver_ns, true},
      {"other", &EngineTimings::other_ns, false},
      {"total", &EngineTimings::total_ns, false},
  };
  for (const int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::FlightRecorder recorder;
    RunConfig config;
    config.n = 192;
    config.T = 2;
    config.seed = 7;
    config.adversary.kind = "spine-gnp";
    config.collect_metrics = true;
    config.recorder = &recorder;
    config.threads = threads;
    const RunStats stats =
        RunAlgorithm(Algorithm::kHjswyCensus, config).stats;
    ASSERT_GT(stats.rounds, 0);
    ASSERT_EQ(recorder.dropped(), 0u);
    std::map<std::string, std::int64_t> span_ns;
    for (const obs::Event& e : recorder.Drain()) {
      if (e.kind == obs::EventKind::kPhase) span_ns[e.label] += e.dur_ns;
    }
    for (const Phase& p : phases) {
      SCOPED_TRACE(p.name);
      const obs::MetricSample* hist =
          stats.metrics.Find(std::string("round_") + p.name + "_ns");
      ASSERT_NE(hist, nullptr);
      EXPECT_EQ(hist->count, stats.rounds);
      EXPECT_EQ(hist->sum, stats.timings.*p.field);
      if (p.spanned) {
        EXPECT_EQ(span_ns[p.name], stats.timings.*p.field);
      }
    }
    const obs::MetricSample* wait = stats.metrics.Find("round_aux_wait_ns");
    ASSERT_NE(wait, nullptr);
    EXPECT_EQ(wait->count, stats.rounds);
  }
}

}  // namespace
}  // namespace sdn::net
