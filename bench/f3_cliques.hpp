// F3's measurement, shared by bench_f3_rounds_vs_d and test_claims:
// hjswy-census on a static path of cliques, driven through the engine
// directly (the facade has no path-of-cliques adversary).
#pragma once

#include <cstdint>
#include <vector>

#include "adversary/static_adversary.hpp"
#include "algo/hjswy.hpp"
#include "algo/sketch_pool.hpp"
#include "graph/generators.hpp"
#include "net/engine.hpp"
#include "obs/recorder.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace sdn::bench {

struct CliquesPoint {
  double d = 0.0;       // measured flooding time (last trial)
  double rounds = 0.0;  // median over trials
  bool truncated = false;
  /// Trials that did not all decide, failed certification, or output a
  /// count other than N.
  int failures = 0;
};

/// `trials` runs on `cliques` cliques of `clique_size` nodes each; trial t
/// seeds the node programs with t·977. The recorder, if any, attaches to
/// the first trial only (single-consumer sink).
inline CliquesPoint MeasureCliques(graph::NodeId cliques,
                                   graph::NodeId clique_size, int T,
                                   int trials, int threads,
                                   obs::FlightRecorder* recorder = nullptr) {
  const graph::NodeId n = cliques * clique_size;
  CliquesPoint point;
  std::vector<double> rounds;
  for (int trial = 1; trial <= trials; ++trial) {
    adversary::StaticAdversary adv(graph::PathOfCliques(cliques, clique_size),
                                   T);
    algo::HjswyOptions options;
    options.T = T;
    options.exact_census = true;
    util::Rng base(static_cast<std::uint64_t>(trial) * 977);
    algo::SketchPool pool(static_cast<std::size_t>(n),
                          algo::HjswyProgram::RequiredPoolColumns(options));
    std::vector<algo::HjswyProgram> nodes;
    for (graph::NodeId u = 0; u < n; ++u) {
      nodes.emplace_back(u, static_cast<algo::Value>(u), options,
                         base.Fork(static_cast<std::uint64_t>(u)), &pool);
    }
    net::EngineOptions opts;
    opts.validate_tinterval = true;  // certification is the shipped config
    opts.threads = threads;
    if (trial == 1) opts.recorder = recorder;
    net::Engine<algo::HjswyProgram> engine(std::move(nodes), adv, opts);
    const net::RunStats stats = engine.Run();
    rounds.push_back(static_cast<double>(stats.rounds));
    point.truncated = point.truncated || stats.hit_max_rounds;
    point.d = static_cast<double>(stats.flooding.max_rounds);
    bool ok = stats.all_decided && stats.tinterval_ok;
    for (graph::NodeId u = 0; ok && u < n; ++u) {
      const auto out = engine.node(u).output();
      ok = out.has_value() && out->count == n;
    }
    if (!ok) ++point.failures;
  }
  point.rounds = util::Summarize(rounds).median;
  return point;
}

}  // namespace sdn::bench
