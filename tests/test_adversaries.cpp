#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "adversary/adaptive.hpp"
#include "adversary/factory.hpp"
#include "adversary/mobile.hpp"
#include "adversary/stable_spine.hpp"
#include "graph/algorithms.hpp"
#include "graph/delta.hpp"
#include "graph/tinterval.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sdn::adversary {
namespace {

/// View stub for exercising adversaries without an engine. PublicState is a
/// fixed per-node vector so adaptive adversaries see deterministic input.
class FakeView final : public net::AdversaryView {
 public:
  explicit FakeView(std::vector<double> state) : state_(std::move(state)) {}
  [[nodiscard]] std::int64_t round() const override { return round_; }
  [[nodiscard]] double PublicState(graph::NodeId u) const override {
    return state_[static_cast<std::size_t>(u)];
  }
  [[nodiscard]] graph::NodeId num_nodes() const override {
    return static_cast<graph::NodeId>(state_.size());
  }
  void set_round(std::int64_t r) { round_ = r; }

 private:
  std::vector<double> state_;
  std::int64_t round_ = 1;
};

std::vector<graph::Graph> Roll(net::Adversary& adv, std::int64_t rounds,
                               net::AdversaryView& view) {
  std::vector<graph::Graph> seq;
  for (std::int64_t r = 1; r <= rounds; ++r) {
    seq.push_back(adv.TopologyFor(r, view));
  }
  return seq;
}

// ---- Property sweep: every kind × T × seed keeps the T-interval promise ----

using PromiseParam = std::tuple<std::string, int, std::uint64_t>;

class AdversaryPromiseTest : public ::testing::TestWithParam<PromiseParam> {};

TEST_P(AdversaryPromiseTest, KeepsTIntervalPromise) {
  const auto& [kind, T, seed] = GetParam();
  AdversaryConfig config;
  config.kind = kind;
  config.n = 33;
  config.T = T;
  config.seed = seed;
  const auto adv = MakeAdversary(config);
  ASSERT_EQ(adv->interval(), T);
  ASSERT_EQ(adv->num_nodes(), 33);

  FakeView view(std::vector<double>(33, 0.0));
  const auto seq = Roll(*adv, 6 * T + 7, view);
  const auto report =
      graph::ValidateTInterval(seq, T, graph::ValidateMode::kEarlyExit);
  EXPECT_TRUE(report.ok) << kind << " T=" << T << " seed=" << seed
                         << " bad window " << report.first_bad_window;
}

std::vector<PromiseParam> PromiseGrid() {
  std::vector<PromiseParam> grid;
  for (const std::string& kind : KnownAdversaryKinds()) {
    for (const int T : {1, 2, 3, 5, 8}) {
      for (const std::uint64_t seed : {1ULL, 7ULL, 1234ULL}) {
        grid.emplace_back(kind, T, seed);
      }
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AdversaryPromiseTest, ::testing::ValuesIn(PromiseGrid()),
    [](const ::testing::TestParamInfo<PromiseParam>& param_info) {
      auto name = std::get<0>(param_info.param) + "_T" +
                  std::to_string(std::get<1>(param_info.param)) + "_s" +
                  std::to_string(std::get<2>(param_info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---- Targeted behaviour tests ----

TEST(StableSpine, TopologyChangesEveryRoundWithVolatileEdges) {
  StableSpineOptions opts;
  opts.spine.kind = SpineKind::kRandomTree;
  opts.volatile_edges = 10;
  StableSpineAdversary adv(20, 2, opts, 5);
  FakeView view(std::vector<double>(20, 0.0));
  const auto seq = Roll(adv, 10, view);
  int distinct_pairs = 0;
  for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
    distinct_pairs += (seq[i] == seq[i + 1]) ? 0 : 1;
  }
  EXPECT_GE(distinct_pairs, 8);  // near-every round differs
}

TEST(StableSpine, SpineIsStableWithinEra) {
  StableSpineOptions opts;
  opts.spine.kind = SpineKind::kRandomTree;
  opts.volatile_edges = 5;
  StableSpineAdversary adv(16, 4, opts, 9);
  FakeView view(std::vector<double>(16, 0.0));
  // Rounds 1..4 are era 0: every topology must contain era 0's spine.
  const graph::Graph spine = adv.SpineForRound(1);
  for (std::int64_t r = 1; r <= 4; ++r) {
    const graph::Graph g = adv.TopologyFor(r, view);
    for (const graph::Edge& e : spine.Edges()) {
      EXPECT_TRUE(g.HasEdge(e.u, e.v)) << "round " << r;
    }
  }
}

TEST(StableSpine, SpinesDifferAcrossEras) {
  StableSpineOptions opts;
  opts.spine.kind = SpineKind::kRandomTree;
  StableSpineAdversary adv(32, 3, opts, 11);
  const graph::Graph s0 = adv.SpineForRound(1);
  const graph::Graph s1 = adv.SpineForRound(4);
  EXPECT_NE(s0, s1);
}

TEST(StableSpine, CompositionClaimIsExactlyTheRound) {
  // The published RoundComposition must be the literal structural truth:
  // core ∪ support ∪ fresh == the round's edge set, with stable ids (same
  // id -> same span) — the certification fast path's entire trust basis.
  StableSpineOptions opts;
  opts.spine.kind = SpineKind::kRandomTree;
  opts.volatile_edges = 8;
  StableSpineAdversary adv(24, 3, opts, 13);
  FakeView view(std::vector<double>(24, 0.0));
  ASSERT_TRUE(adv.has_composition());
  std::map<std::uint64_t, const graph::Edge*> id_to_ptr;
  for (std::int64_t r = 1; r <= 12; ++r) {
    const graph::Graph g = adv.TopologyFor(r, view);
    const graph::RoundComposition* comp = adv.Composition(r);
    ASSERT_NE(comp, nullptr) << "round " << r;
    ASSERT_NE(comp->core_id, graph::RoundComposition::kNoId);
    std::vector<graph::Edge> all;
    graph::UnionSorted(comp->core, comp->support, all);
    std::vector<graph::Edge> with_fresh;
    graph::UnionSorted(all, comp->fresh, with_fresh);
    const auto edges = g.Edges();
    ASSERT_EQ(with_fresh.size(), edges.size()) << "round " << r;
    EXPECT_TRUE(std::equal(with_fresh.begin(), with_fresh.end(),
                           edges.begin()))
        << "round " << r;
    // Id stability: a repeated id must present the identical span.
    for (const auto& [id, span, ptr] :
         {std::tuple{comp->core_id, comp->core, comp->core.data()},
          std::tuple{comp->support_id, comp->support,
                     comp->support.data()}}) {
      if (span.empty()) continue;
      const auto [it, inserted] = id_to_ptr.emplace(id, ptr);
      EXPECT_EQ(it->second, ptr) << "id " << id << " round " << r;
    }
  }
}

TEST(StableSpine, RejectsEraShorterThanTMinus1) {
  StableSpineOptions opts;
  opts.era_length = 1;
  EXPECT_THROW(StableSpineAdversary(8, 5, opts, 1), util::CheckError);
}

TEST(StableSpine, RoundsMustBeMonotone) {
  StableSpineOptions opts;
  StableSpineAdversary adv(8, 2, opts, 1);
  FakeView view(std::vector<double>(8, 0.0));
  (void)adv.TopologyFor(10, view);
  EXPECT_THROW(adv.TopologyFor(1, view), util::CheckError);
}

TEST(Adaptive, SortsMostInformedTogether) {
  std::vector<double> state(10, 0.0);
  state[3] = 100.0;
  state[7] = 90.0;
  FakeView view(state);
  AdaptiveSortPathAdversary adv(10, 1, 42, /*descending=*/true);
  const graph::Graph g = adv.TopologyFor(1, view);
  // Path with the two most-informed nodes adjacent at one end.
  EXPECT_TRUE(g.HasEdge(3, 7));
  EXPECT_EQ(g.Degree(3), 1);  // end of the path
}

TEST(Adaptive, PathIsConnectedEachRound) {
  FakeView view(std::vector<double>(12, 1.0));
  AdaptiveSortPathAdversary adv(12, 3, 1);
  for (std::int64_t r = 1; r <= 20; ++r) {
    EXPECT_TRUE(graph::IsConnected(adv.TopologyFor(r, view)));
  }
}

/// View whose published states change every round: a hash of (round,
/// node) picks from a palette with ties and both signed zeros, so the sort
/// meets equal keys and -0.0 == +0.0 in every era.
class ChurningView final : public net::AdversaryView {
 public:
  explicit ChurningView(graph::NodeId n) : n_(n) {}
  [[nodiscard]] std::int64_t round() const override { return round_; }
  [[nodiscard]] double PublicState(graph::NodeId u) const override {
    static constexpr double kPalette[] = {-1.5, -0.0, 0.0, 0.0, 2.0, 2.0, 7.25};
    const auto r = static_cast<std::uint64_t>(round_);
    const auto v = static_cast<std::uint64_t>(static_cast<std::uint32_t>(u));
    std::uint64_t x = r * std::uint64_t{0x9E3779B97F4A7C15} +
                      v * std::uint64_t{0xBF58476D1CE4E5B9};
    x ^= x >> 29;
    return kPalette[x % std::size(kPalette)];
  }
  [[nodiscard]] graph::NodeId num_nodes() const override { return n_; }
  void set_round(std::int64_t r) { round_ = r; }

 private:
  graph::NodeId n_;
  std::int64_t round_ = 1;
};

/// The sort-path era build written the direct way: the comparator reads
/// the view on every comparison, and the path's edges are sorted after.
std::vector<graph::Edge> ReferenceSortedPath(const net::AdversaryView& view,
                                             graph::NodeId n, bool descending,
                                             util::Rng& rng) {
  std::vector<graph::NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), graph::NodeId{0});
  rng.Shuffle(std::span<graph::NodeId>(order));
  std::stable_sort(order.begin(), order.end(),
                   [&](graph::NodeId a, graph::NodeId b) {
                     const double sa = view.PublicState(a);
                     const double sb = view.PublicState(b);
                     return descending ? sa > sb : sa < sb;
                   });
  std::vector<graph::Edge> edges;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    edges.emplace_back(order[i], order[i + 1]);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

TEST(Adaptive, RoundEdgesMatchTheComparatorSortReference) {
  // Ties are broken by the shuffle, so ascending and descending paths are
  // not mirror images: a path in the wrong order changes the edge list.
  for (const bool descending : {true, false}) {
    for (const graph::NodeId n : {1, 2, 3, 17, 256}) {
      for (const int T : {1, 2, 3}) {
        SCOPED_TRACE(std::string(descending ? "desc" : "asc") +
                     " n=" + std::to_string(n) + " T=" + std::to_string(T));
        const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(n * 10 + T);
        AdaptiveSortPathAdversary adv(n, T, seed, descending);
        ChurningView view(n);
        util::Rng rng(seed);
        std::int64_t era = -1;
        std::vector<graph::Edge> current;
        std::vector<graph::Edge> previous;
        std::vector<graph::Edge> got;
        for (std::int64_t r = 1; r <= 8 * T + 5; ++r) {
          view.set_round(r);
          while (era < (r - 1) / T) {
            ++era;
            previous = current;
            current = ReferenceSortedPath(view, n, descending, rng);
          }
          std::vector<graph::Edge> expected;
          if ((r - 1) % T < T - 1 && era >= 1) {
            std::set_union(current.begin(), current.end(), previous.begin(),
                           previous.end(), std::back_inserter(expected));
          } else {
            expected = current;
          }
          ASSERT_TRUE(adv.RoundEdgesInto(r, view, got));
          ASSERT_EQ(got, expected) << "round " << r;
        }
      }
    }
  }
}

TEST(Mobile, PositionsStayInUnitSquareAndGraphConnected) {
  MobileOptions opts;
  opts.radius = 0.15;
  opts.step = 0.2;
  MobileGeometricAdversary adv(25, 2, opts, 3);
  FakeView view(std::vector<double>(25, 0.0));
  for (std::int64_t r = 1; r <= 30; ++r) {
    EXPECT_TRUE(graph::IsConnected(adv.TopologyFor(r, view)));
    for (const auto& p : adv.positions()) {
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, 1.0);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, 1.0);
    }
  }
}

TEST(Factory, EraLengthOverrideStretchesSpines) {
  AdversaryConfig config;
  config.kind = "spine-rtree";
  config.n = 20;
  config.T = 2;
  config.era_length = 50;
  config.volatile_edges = 0;
  const auto adv = MakeAdversary(config);
  FakeView view(std::vector<double>(20, 0.0));
  const auto seq = Roll(*adv, 50, view);
  // One spine for 50 rounds: all topologies identical.
  for (const auto& g : seq) EXPECT_EQ(g, seq.front());
}

TEST(Factory, VolatileEdgeOverrideRespected) {
  AdversaryConfig config;
  config.kind = "spine-path";
  config.n = 30;
  config.T = 1;
  config.volatile_edges = 0;
  const auto adv = MakeAdversary(config);
  FakeView view(std::vector<double>(30, 0.0));
  const auto g = adv->TopologyFor(1, view);
  EXPECT_EQ(g.num_edges(), 29);  // bare path, nothing extra
}

TEST(Factory, CliqueSizeControlsDiameter) {
  AdversaryConfig small_cliques;
  small_cliques.kind = "spine-cliques";
  small_cliques.n = 64;
  small_cliques.T = 1;
  small_cliques.clique_size = 4;
  small_cliques.volatile_edges = 0;
  AdversaryConfig big_cliques = small_cliques;
  big_cliques.clique_size = 32;
  FakeView view(std::vector<double>(64, 0.0));
  const auto chain = MakeAdversary(small_cliques)->TopologyFor(1, view);
  const auto blob = MakeAdversary(big_cliques)->TopologyFor(1, view);
  EXPECT_GT(graph::Diameter(chain), graph::Diameter(blob));
}

TEST(Factory, UnknownKindRejected) {
  AdversaryConfig config;
  config.kind = "nope";
  config.n = 4;
  EXPECT_THROW(MakeAdversary(config), util::CheckError);
}

TEST(Factory, NamesAreStable) {
  for (const std::string& kind : KnownAdversaryKinds()) {
    AdversaryConfig config;
    config.kind = kind;
    config.n = 9;
    config.T = 2;
    const auto adv = MakeAdversary(config);
    EXPECT_FALSE(adv->name().empty());
  }
}

}  // namespace
}  // namespace sdn::adversary
