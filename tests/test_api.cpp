#include "core/api.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>

#include "adversary/static_adversary.hpp"
#include "algo/flood_max.hpp"
#include "graph/generators.hpp"
#include "net/engine.hpp"
#include "util/check.hpp"

namespace sdn {
namespace {

TEST(Api, MakeInputsDeterministicAndSeedSensitive) {
  const auto a = MakeInputs(32, 1);
  const auto b = MakeInputs(32, 1);
  const auto c = MakeInputs(32, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 32u);
}

TEST(Api, ToStringCoversAllAlgorithms) {
  std::set<std::string> names;
  for (const Algorithm a : AllAlgorithms()) {
    names.insert(ToString(a));
  }
  EXPECT_EQ(names.size(), AllAlgorithms().size());
}

// The engine runs one configuration. Four retired toggles stay in RunConfig
// and EngineOptions only while an outside caller still assigns them; false
// on any of them is a CheckError naming the field, set through either.
TEST(Api, RetiredEngineTogglesRejectFalse) {
  const char* names[] = {"incremental_topology", "prefetch_topology",
                         "async_certification", "fused_send_deliver"};
  bool RunConfig::*const config_fields[] = {
      &RunConfig::incremental_topology, &RunConfig::prefetch_topology,
      &RunConfig::async_certification, &RunConfig::fused_send_deliver};
  bool net::EngineOptions::*const option_fields[] = {
      &net::EngineOptions::incremental_topology,
      &net::EngineOptions::prefetch_topology,
      &net::EngineOptions::async_certification,
      &net::EngineOptions::fused_send_deliver};
  const auto error = [](const auto& run) -> std::string {
    try {
      run();
    } catch (const util::CheckError& e) {
      return e.what();
    }
    return "no CheckError";
  };
  adversary::StaticAdversary adv(graph::Path(4));
  const std::vector<algo::FloodMaxKnownN> nodes(4, {0, 4, 0});
  for (std::size_t i = 0; i < std::size(names); ++i) {
    RunConfig config;
    config.n = 4;
    config.*config_fields[i] = false;
    net::EngineOptions opts;
    opts.*option_fields[i] = false;
    for (const std::string& what :
         {error([&] { (void)RunAlgorithm(Algorithm::kFloodMaxKnownN, config); }),
          error([&] { net::Engine<algo::FloodMaxKnownN>(nodes, adv, opts); })}) {
      EXPECT_NE(what.find(names[i]), std::string::npos) << what;
    }
  }
}

TEST(Api, FloodMaxRunGradesCorrect) {
  RunConfig config;
  config.n = 40;
  config.T = 2;
  config.adversary.kind = "spine-rtree";
  const RunResult r = RunAlgorithm(Algorithm::kFloodMaxKnownN, config);
  EXPECT_TRUE(r.Ok());
  ASSERT_TRUE(r.max_correct.has_value());
  EXPECT_TRUE(*r.max_correct);
  EXPECT_FALSE(r.count_exact.has_value());
  EXPECT_EQ(r.stats.rounds, 39);
  EXPECT_EQ(r.n, 40);
}

TEST(Api, KloCensusRunGradesAllProblems) {
  RunConfig config;
  config.n = 20;
  config.T = 2;
  config.adversary.kind = "spine-expander";
  const RunResult r = RunAlgorithm(Algorithm::kKloCensusT, config);
  EXPECT_TRUE(r.Ok());
  EXPECT_TRUE(r.count_exact.value_or(false));
  EXPECT_TRUE(r.max_correct.value_or(false));
  EXPECT_TRUE(r.consensus_agreement.value_or(false));
  EXPECT_TRUE(r.consensus_valid.value_or(false));
}

TEST(Api, HjswyCensusBeatsFloodOnExpanderChurn) {
  RunConfig config;
  config.n = 128;
  config.T = 2;
  config.adversary.kind = "spine-expander";
  const RunResult flood = RunAlgorithm(Algorithm::kFloodMaxKnownN, config);
  const RunResult hjswy = RunAlgorithm(Algorithm::kHjswyCensus, config);
  EXPECT_TRUE(flood.Ok());
  EXPECT_TRUE(hjswy.Ok());
  EXPECT_LT(hjswy.stats.rounds, flood.stats.rounds);
  EXPECT_TRUE(hjswy.count_exact.value_or(false));
}

TEST(Api, HjswyEstimateReportsRelativeError) {
  RunConfig config;
  config.n = 64;
  config.T = 2;
  config.adversary.kind = "spine-gnp";
  const RunResult r = RunAlgorithm(Algorithm::kHjswyEstimate, config);
  EXPECT_TRUE(r.Ok());
  ASSERT_TRUE(r.count_max_rel_error.has_value());
  EXPECT_LT(*r.count_max_rel_error, 0.8);  // 6-sigma-ish for L=64
  EXPECT_FALSE(r.count_exact.has_value());
}

TEST(Api, ExplicitInputsRespected) {
  RunConfig config;
  config.n = 10;
  config.T = 1;
  config.adversary.kind = "static-path";
  config.inputs.assign(10, 5);
  config.inputs[7] = 99;
  const RunResult r = RunAlgorithm(Algorithm::kFloodMaxKnownN, config);
  EXPECT_TRUE(r.Ok());
  EXPECT_EQ(r.expected_max, 99);
}

TEST(Api, InputSizeMismatchRejected) {
  RunConfig config;
  config.n = 10;
  config.inputs.assign(3, 1);
  EXPECT_THROW(RunAlgorithm(Algorithm::kFloodMaxKnownN, config),
               util::CheckError);
}

TEST(Api, RunTrialsIsDeterministicPerSeed) {
  RunConfig config;
  config.n = 32;
  config.T = 2;
  config.adversary.kind = "spine-rtree";
  const std::vector<std::uint64_t> seeds = {1, 2, 3};
  const auto first = RunTrials(Algorithm::kHjswyCensus, config, seeds, 1);
  const auto second = RunTrials(Algorithm::kHjswyCensus, config, seeds, 2);
  ASSERT_EQ(first.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(first[i].stats.rounds, second[i].stats.rounds);
    EXPECT_EQ(first[i].seed, seeds[i]);
    EXPECT_TRUE(first[i].Ok());
  }
  // Different seeds genuinely vary the run.
  EXPECT_TRUE(first[0].stats.messages_sent != first[1].stats.messages_sent ||
              first[0].stats.rounds != first[1].stats.rounds ||
              first[0].stats.total_message_bits !=
                  first[1].stats.total_message_bits);
}

TEST(Api, KloCommitteeRunGradesAllProblems) {
  RunConfig config;
  config.n = 18;
  config.T = 2;
  config.adversary.kind = "spine-rtree";
  const RunResult r = RunAlgorithm(Algorithm::kKloCommittee, config);
  EXPECT_TRUE(r.Ok());
  EXPECT_TRUE(r.count_exact.value_or(false));
  EXPECT_TRUE(r.max_correct.value_or(false));
  EXPECT_TRUE(r.consensus_agreement.value_or(false));
}

TEST(Api, TrackSumGradesSumError) {
  RunConfig config;
  config.n = 64;
  config.T = 2;
  config.adversary.kind = "spine-expander";
  config.hjswy.track_sum = true;
  config.hjswy.sketch_len = 128;
  config.hjswy.coords_per_msg = 3;
  const RunResult r = RunAlgorithm(Algorithm::kHjswyEstimate, config);
  EXPECT_TRUE(r.Ok());
  ASSERT_TRUE(r.sum_max_rel_error.has_value());
  EXPECT_LT(*r.sum_max_rel_error, 0.8);
}

TEST(Api, SumNotGradedWhenDisabled) {
  RunConfig config;
  config.n = 16;
  config.T = 2;
  config.adversary.kind = "spine-rtree";
  const RunResult r = RunAlgorithm(Algorithm::kHjswyEstimate, config);
  EXPECT_FALSE(r.sum_max_rel_error.has_value());
}

TEST(Api, ValidationCanBeDisabled) {
  RunConfig config;
  config.n = 16;
  config.T = 2;
  config.adversary.kind = "spine-expander";
  config.validate_tinterval = false;
  const RunResult r = RunAlgorithm(Algorithm::kHjswyCensus, config);
  EXPECT_TRUE(r.Ok());
  EXPECT_TRUE(r.stats.tinterval_ok);  // trivially true when not checked
  EXPECT_FALSE(r.stats.tinterval_validated);  // ...and flagged as unchecked
  EXPECT_TRUE(r.tinterval_waived);  // Ok() passed via the explicit waiver
}

TEST(Api, OkDemandsRealCertificationOrExplicitWaiver) {
  // A vacuous tinterval_ok must not read as success: unvalidated and
  // unwaived fails, unvalidated-but-waived passes, validated-and-held
  // passes, validated-and-broken fails.
  RunResult r;
  r.stats.all_decided = true;
  r.stats.tinterval_validated = false;
  r.stats.tinterval_ok = true;  // vacuous
  r.tinterval_waived = false;
  EXPECT_FALSE(r.Ok());
  r.tinterval_waived = true;
  EXPECT_TRUE(r.Ok());
  r.tinterval_waived = false;
  r.stats.tinterval_validated = true;
  EXPECT_TRUE(r.Ok());
  r.stats.tinterval_ok = false;
  EXPECT_FALSE(r.Ok());
}

TEST(Api, CertifiedTReachesRunResult) {
  RunConfig config;
  config.n = 16;
  config.T = 2;
  config.adversary.kind = "spine-gnp";
  const RunResult r = RunAlgorithm(Algorithm::kHjswyCensus, config);
  EXPECT_TRUE(r.Ok());
  EXPECT_TRUE(r.stats.tinterval_validated);
  EXPECT_EQ(r.stats.certified_T, 2);
  EXPECT_FALSE(r.tinterval_waived);
}

TEST(Api, RunTrialsReportsFailingSeed) {
  // A trial that throws must surface one CheckError naming the seed it died
  // on — not a default-constructed result slot or an anonymous rethrow.
  RunConfig config;
  config.n = 10;
  config.adversary.kind = "static-path";
  config.inputs.assign(3, 1);  // size mismatch: every trial throws
  const std::vector<std::uint64_t> seeds = {11, 22, 33};
  try {
    (void)RunTrials(Algorithm::kFloodMaxKnownN, config, seeds, 1);
    FAIL() << "RunTrials did not propagate the trial failure";
  } catch (const util::CheckError& e) {
    // threads=1 walks seeds in order, so the first failure is seed 11.
    EXPECT_NE(std::string(e.what()).find("seed 11"), std::string::npos)
        << e.what();
  }
  // The multi-threaded path must also join cleanly and throw.
  EXPECT_THROW((void)RunTrials(Algorithm::kFloodMaxKnownN, config, seeds, 2),
               util::CheckError);
}

TEST(Api, FullRunDeterminismPerAlgorithm) {
  // Identical (seed, config) must give bit-identical executions for every
  // algorithm — the property that makes traces and failure reports
  // reproducible.
  RunConfig config;
  config.n = 20;
  config.T = 2;
  config.seed = 77;
  config.adversary.kind = "mobile";
  for (const Algorithm a : AllAlgorithms()) {
    const RunResult r1 = RunAlgorithm(a, config);
    const RunResult r2 = RunAlgorithm(a, config);
    EXPECT_EQ(r1.stats.rounds, r2.stats.rounds) << ToString(a);
    EXPECT_EQ(r1.stats.messages_sent, r2.stats.messages_sent) << ToString(a);
    EXPECT_EQ(r1.stats.total_message_bits, r2.stats.total_message_bits)
        << ToString(a);
    EXPECT_EQ(r1.stats.decide_round, r2.stats.decide_round) << ToString(a);
  }
}

TEST(Api, AllAlgorithmsCompleteOnSmallNetwork) {
  RunConfig config;
  config.n = 16;
  config.T = 2;
  config.adversary.kind = "spine-rtree";
  for (const Algorithm a : AllAlgorithms()) {
    const RunResult r = RunAlgorithm(a, config);
    EXPECT_TRUE(r.Ok()) << ToString(a);
    EXPECT_TRUE(r.stats.all_decided) << ToString(a);
  }
}

}  // namespace
}  // namespace sdn
