// F3: hjswy round complexity vs the dynamic flooding time d, at several N.
//
// The reconstruction's complexity is parameterized by d, not N: on static
// path-of-cliques topologies (diameter dialed by the clique count, N held
// fixed by the clique size) the decision round should grow ~linearly in the
// measured d and be nearly independent of N. The last rows report the
// rounds-vs-d log-log slope per N.
#include <iostream>
#include <memory>

#include "adversary/static_adversary.hpp"
#include "algo/hjswy.hpp"
#include "algo/sketch_pool.hpp"
#include "bench_common.hpp"
#include "f3_cliques.hpp"
#include "graph/generators.hpp"
#include "net/engine.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace sdn::bench {
namespace {

int Main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto clique_counts = flags.GetIntList(
      "cliques", {2, 4, 8, 16, 32, 64}, "path-of-cliques lengths (dials d)");
  const auto clique_sizes =
      flags.GetIntList("size", {4, 16, 64}, "clique sizes (dials N at fixed d)");
  const int T = static_cast<int>(flags.GetInt("T", 2, "interval promise"));
  const int trials = static_cast<int>(flags.GetInt("trials", 3, "seeds"));
  const int threads = ThreadsFlag(flags);
  BenchTracer tracer(flags);
  MetricsExporter metrics(flags);

  if (HelpRequested(flags, "bench_f3_rounds_vs_d")) return 0;
  BenchManifest().Set("experiment", "f3_rounds_vs_d");
  BenchManifest().Set("trials", trials);

  PrintBanner("F3: hjswy rounds vs dynamic flooding time d",
              "Rows sweep d (clique-chain length); columns sweep N at fixed "
              "d. Rounds must track d (slope ~1 in d) and move little with "
              "N (columns nearly equal).");

  std::vector<std::string> header = {"cliques"};
  for (const std::int64_t size : clique_sizes) {
    header.push_back("d(m=" + std::to_string(size) + ")");
    header.push_back("rounds(m=" + std::to_string(size) + ")");
  }
  util::Table table(header);

  std::vector<std::vector<double>> ds(clique_sizes.size());
  std::vector<std::vector<double>> rounds(clique_sizes.size());
  for (const std::int64_t cliques : clique_counts) {
    std::vector<std::string> row = {std::to_string(cliques)};
    for (std::size_t i = 0; i < clique_sizes.size(); ++i) {
      const CliquesPoint p =
          MeasureCliques(static_cast<graph::NodeId>(cliques),
                         static_cast<graph::NodeId>(clique_sizes[i]), T,
                         trials, threads, tracer.Attach());
      row.push_back(util::Table::Num(p.d, 0));
      row.push_back(p.truncated ? "(truncated)"
                                : util::Table::Num(p.rounds, 0) +
                                      (p.failures > 0 ? "!" : ""));
      ds[i].push_back(p.d);
      rounds[i].push_back(p.truncated ? 0.0 : p.rounds);
    }
    table.AddRow(row);
  }
  std::vector<std::string> slopes = {"d^b fit"};
  for (std::size_t i = 0; i < clique_sizes.size(); ++i) {
    slopes.push_back("");
    slopes.push_back("b=" + util::Table::Num(util::LogLogSlope(ds[i], rounds[i]), 2));
  }
  table.AddRow(slopes);
  Finish(table, "f3_rounds_vs_d.csv");
  tracer.Write();
  if (metrics.active()) {
    // Representative exposition run: the largest swept cell, rerun once
    // with the full observability plane (this bench drives the engine
    // directly, so no RunConfig path exists to reuse).
    const auto cliques = static_cast<graph::NodeId>(clique_counts.back());
    const auto size = static_cast<graph::NodeId>(clique_sizes.back());
    adversary::StaticAdversary adv(graph::PathOfCliques(cliques, size), T);
    algo::HjswyOptions options;
    options.T = T;
    options.exact_census = true;
    util::Rng base(977);
    algo::SketchPool pool(static_cast<std::size_t>(cliques * size),
                          algo::HjswyProgram::RequiredPoolColumns(options));
    std::vector<algo::HjswyProgram> nodes;
    for (graph::NodeId u = 0; u < cliques * size; ++u) {
      nodes.emplace_back(u, static_cast<algo::Value>(u), options,
                         base.Fork(static_cast<std::uint64_t>(u)), &pool);
    }
    net::EngineOptions opts;
    opts.validate_tinterval = true;
    opts.threads = threads;
    opts.collect_metrics = true;
    net::Engine<algo::HjswyProgram> engine(std::move(nodes), adv, opts);
    metrics.Write(engine.Run());
  }
  return 0;
}

}  // namespace
}  // namespace sdn::bench

int main(int argc, char** argv) { return sdn::bench::Main(argc, argv); }
