// The claim's round counts, pinned. EXPERIMENTS.md's tables come from the
// bench binaries; this test reruns a scaled-down slice of two of them
// through the benches' own construction and asserts the exact counts the
// tables record, so a change to any of them fails ctest:
//   - T1 (bench_t1_count_vs_n, `Measure`): hjswy-estimate and hjswy-census
//     on spine-gnp churn, T = 2, N = 16 … 256, seeds 1-3: 109 rounds.
//   - F3 (bench_f3_rounds_vs_d, `MeasureCliques`): hjswy-census on a static
//     path of 4-cliques, 2 … 64 cliques: d = 2·cliques − 1 and the rounds
//     column for m = 4.
// Every run must also grade correct and certify its T-interval promise.
#include <gtest/gtest.h>

#include <string>

#include "bench_common.hpp"
#include "f3_cliques.hpp"

namespace sdn::bench {
namespace {

TEST(Claims, T1HjswyRowsDecideAt109Rounds) {
  for (const Algorithm algorithm :
       {Algorithm::kHjswyEstimate, Algorithm::kHjswyCensus}) {
    for (const graph::NodeId n : {16, 32, 64, 128, 256}) {
      SCOPED_TRACE(std::string(ToString(algorithm)) +
                   " N=" + std::to_string(n));
      RunConfig config;
      config.n = n;
      config.T = 2;
      config.adversary.kind = "spine-gnp";
      const Aggregate agg = Measure(algorithm, config, /*trials=*/3);
      EXPECT_EQ(agg.trials, 3);
      EXPECT_EQ(agg.failures, 0);
      EXPECT_EQ(agg.truncated, 0);
      EXPECT_EQ(agg.rounds.min, 109);
      EXPECT_EQ(agg.rounds.max, 109);
    }
  }
}

TEST(Claims, F3RoundsTrackDOnFourCliques) {
  struct Row {
    graph::NodeId cliques;
    double d;
    double rounds;
  };
  constexpr Row kRows[] = {{2, 3, 109},   {4, 7, 185},    {8, 15, 312},
                           {16, 31, 538}, {32, 63, 1767}, {64, 127, 3346}};
  for (const Row& row : kRows) {
    SCOPED_TRACE("cliques=" + std::to_string(row.cliques));
    const CliquesPoint p = MeasureCliques(row.cliques, /*clique_size=*/4,
                                          /*T=*/2, /*trials=*/3,
                                          /*threads=*/1);
    EXPECT_EQ(p.d, row.d);
    EXPECT_EQ(p.rounds, row.rounds);
    EXPECT_FALSE(p.truncated);
    EXPECT_EQ(p.failures, 0);
  }
}

}  // namespace
}  // namespace sdn::bench
