// Delivery-backing equivalence of the message path (docs/PERF.md).
//
// RunConfig::delivery is documented as a pure throughput knob: on
// all-sender rounds the engine delivers straight out of the outbox via the
// topology's CSR neighbor spans (kDense, the default) unless kGather forces
// the per-node pointer gather — but every statistic except the wall-clock
// timings must be bit-identical in both modes. These property tests pin
// that contract across the algorithm zoo (flood baseline, committee,
// census, hjswy), an oblivious and an adaptive adversary, and the
// serial/parallel engine (threads 1, 2 and hardware) — the full matrix the
// bench's A/B comparison relies on.
#include <gtest/gtest.h>

#include <string>

#include "core/api.hpp"

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
  EXPECT_EQ(a.stats.edges_processed, b.stats.edges_processed);
  EXPECT_EQ(a.stats.messages_delivered, b.stats.messages_delivered);
  EXPECT_EQ(a.stats.flooding.probes, b.stats.flooding.probes);
  EXPECT_EQ(a.stats.flooding.completed, b.stats.flooding.completed);
  EXPECT_EQ(a.stats.flooding.max_rounds, b.stats.flooding.max_rounds);
  EXPECT_EQ(a.count_exact, b.count_exact);
  EXPECT_EQ(a.count_max_rel_error, b.count_max_rel_error);
  EXPECT_EQ(a.max_correct, b.max_correct);
  EXPECT_EQ(a.consensus_agreement, b.consensus_agreement);
  EXPECT_EQ(a.consensus_valid, b.consensus_valid);
}

void CheckDensePathInvariance(Algorithm algorithm,
                              const std::string& adversary,
                              std::int64_t max_rounds) {
  RunConfig config;
  config.n = 192;
  config.T = 2;
  config.seed = 977;
  config.adversary.kind = adversary;
  config.max_rounds = max_rounds;
  config.validate_tinterval = false;

  for (const int threads : {1, 2, 0}) {
    config.threads = threads;
    config.delivery = net::DeliveryMode::kGather;
    const RunResult gather = RunAlgorithm(algorithm, config);
    config.delivery = net::DeliveryMode::kDense;
    const RunResult dense = RunAlgorithm(algorithm, config);
    SCOPED_TRACE(std::string(ToString(algorithm)) + " on " + adversary +
                 " threads=" + std::to_string(threads));
    ExpectIdenticalRuns(gather, dense);
  }
}

// FloodMax sends from every undecided node each round, then everyone stops
// at once: exercises both the pure dense regime and the nobody-sends tail.
TEST(MessagePath, FloodMaxOnObliviousSpine) {
  CheckDensePathInvariance(Algorithm::kFloodMaxKnownN, "spine-gnp", 10'000);
}

TEST(MessagePath, FloodMaxOnAdaptiveAdversary) {
  CheckDensePathInvariance(Algorithm::kFloodMaxKnownN, "adaptive-desc",
                           10'000);
}

// hjswy nodes keep sending after deciding only until the phase ends, so
// runs mix all-sender rounds with partially-silent ones.
TEST(MessagePath, HjswyCensusOnObliviousSpine) {
  CheckDensePathInvariance(Algorithm::kHjswyCensus, "spine-gnp", 100'000);
}

TEST(MessagePath, HjswyCensusOnAdaptiveAdversary) {
  CheckDensePathInvariance(Algorithm::kHjswyCensus, "adaptive-desc", 100'000);
}

TEST(MessagePath, HjswyEstimateOnObliviousSpine) {
  CheckDensePathInvariance(Algorithm::kHjswyEstimate, "spine-gnp", 100'000);
}

// Baselines (truncated like in test_determinism.cpp to stay fast under
// sanitizers; truncated runs must be invariant too).
TEST(MessagePath, KloCensusOnObliviousSpine) {
  CheckDensePathInvariance(Algorithm::kKloCensusT, "spine-gnp", 3'000);
}

TEST(MessagePath, KloCommitteeOnAdaptiveAdversary) {
  CheckDensePathInvariance(Algorithm::kKloCommittee, "adaptive-desc", 2'000);
}

}  // namespace
}  // namespace sdn
