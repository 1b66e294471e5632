#include "adversary/spine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "adversary/stable_spine.hpp"
#include "graph/algorithms.hpp"
#include "net/adversary.hpp"
#include "util/rng.hpp"

namespace sdn::adversary {
namespace {

std::vector<SpineSpec> AllSpecs() {
  std::vector<SpineSpec> specs;
  for (const SpineKind kind :
       {SpineKind::kPath, SpineKind::kStar, SpineKind::kBinaryTree,
        SpineKind::kRandomTree, SpineKind::kGnp, SpineKind::kExpander,
        SpineKind::kPathOfCliques}) {
    SpineSpec spec;
    spec.kind = kind;
    specs.push_back(spec);
  }
  return specs;
}

class SpineTest
    : public ::testing::TestWithParam<std::tuple<int, graph::NodeId>> {};

TEST_P(SpineTest, EverySpineIsConnectedAndSpanning) {
  const auto& [spec_index, n] = GetParam();
  const SpineSpec spec = AllSpecs()[static_cast<std::size_t>(spec_index)];
  util::Rng rng(static_cast<std::uint64_t>(n) * 31 + 1);
  for (int draw = 0; draw < 5; ++draw) {
    const graph::Graph g = MakeSpine(spec, n, rng);
    EXPECT_EQ(g.num_nodes(), n) << spec.Name();
    EXPECT_TRUE(graph::IsConnected(g)) << spec.Name() << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SpineTest,
    ::testing::Combine(::testing::Range(0, 7),
                       ::testing::Values<graph::NodeId>(1, 2, 3, 7, 33, 64)));

TEST(Spine, RelabeledShapesVaryAcrossDraws) {
  SpineSpec spec;
  spec.kind = SpineKind::kPath;
  util::Rng rng(5);
  const graph::Graph a = MakeSpine(spec, 30, rng);
  const graph::Graph b = MakeSpine(spec, 30, rng);
  EXPECT_NE(a, b);  // relabeling applied
  // Still a path: two endpoints, rest degree 2.
  int endpoints = 0;
  for (graph::NodeId u = 0; u < 30; ++u) {
    endpoints += (a.Degree(u) == 1);
  }
  EXPECT_EQ(endpoints, 2);
}

TEST(Spine, CliquesDiameterTracksCliqueCount) {
  SpineSpec spec;
  spec.kind = SpineKind::kPathOfCliques;
  spec.clique_size = 8;
  util::Rng rng(6);
  const graph::Graph g = MakeSpine(spec, 64, rng);
  EXPECT_TRUE(graph::IsConnected(g));
  EXPECT_GE(graph::Diameter(g), 8);  // 8 cliques chained
}

TEST(Spine, CliquesWithRaggedRemainderCoverAllNodes) {
  SpineSpec spec;
  spec.kind = SpineKind::kPathOfCliques;
  spec.clique_size = 8;
  util::Rng rng(7);
  // 61 = 7 full cliques + 5 leftover nodes.
  const graph::Graph g = MakeSpine(spec, 61, rng);
  EXPECT_EQ(g.num_nodes(), 61);
  EXPECT_TRUE(graph::IsConnected(g));
}

TEST(Spine, GnpDefaultDensityConnects) {
  SpineSpec spec;
  spec.kind = SpineKind::kGnp;
  util::Rng rng(8);
  for (int draw = 0; draw < 10; ++draw) {
    EXPECT_TRUE(graph::IsConnected(MakeSpine(spec, 200, rng)));
  }
}

TEST(Spine, NamesAreDescriptive) {
  SpineSpec gnp;
  gnp.kind = SpineKind::kGnp;
  gnp.gnp_p = 0.25;
  EXPECT_EQ(gnp.Name(), "gnp(p=0.25)");
  SpineSpec expander;
  expander.kind = SpineKind::kExpander;
  EXPECT_EQ(expander.Name(), "expander(c=2)");
  SpineSpec cliques;
  cliques.kind = SpineKind::kPathOfCliques;
  cliques.clique_size = 4;
  EXPECT_EQ(cliques.Name(), "cliques(m=4)");
}

class ZeroView final : public net::AdversaryView {
 public:
  explicit ZeroView(graph::NodeId n) : n_(n) {}
  [[nodiscard]] std::int64_t round() const override { return 1; }
  [[nodiscard]] double PublicState(graph::NodeId) const override { return 0; }
  [[nodiscard]] graph::NodeId num_nodes() const override { return n_; }

 private:
  graph::NodeId n_;
};

/// Era-ahead draw: the stable-spine adversary draws era k+1's spine while
/// it builds era k's last round. Every round's core must still be its era's
/// spine from the era's own forked rng, one buffer for the whole era —
/// also when the requested rounds skip eras — and the overlap support the
/// previous era's.
TEST(StableSpine, EraAheadDrawKeepsEachEraSpineAndItsBuffer) {
  const graph::NodeId n = 96;
  const std::uint64_t seed = 77;
  SpineSpec spec;
  spec.kind = SpineKind::kGnp;
  const ZeroView view(n);
  const auto spine_of = [&](std::int64_t era) {
    util::Rng rng = util::Rng(seed).Fork(static_cast<std::uint64_t>(era) + 1);
    return MakeSpineEdges(spec, n, rng);
  };
  for (const int T : {1, 2, 3}) {
    for (const std::int64_t era_option : {std::int64_t{0}, std::int64_t{T} + 2}) {
      const std::int64_t era_len = era_option > 0 ? era_option : T;
      std::set<std::int64_t> dense;
      for (std::int64_t r = 1; r <= 6 * era_len; ++r) dense.insert(r);
      // Skips: from an era's first round past a whole era, and from an
      // era's last round (a spine held ahead) past two.
      const std::set<std::int64_t> skipping = {
          1, 2 * era_len + 1, 3 * era_len, 6 * era_len + 1, 6 * era_len + T};
      for (const auto& rounds : {dense, skipping}) {
        SCOPED_TRACE("T=" + std::to_string(T) + " era=" +
                     std::to_string(era_len) +
                     (rounds.size() == dense.size() ? " dense" : " skipping"));
        StableSpineOptions options;
        options.spine = spec;
        options.era_length = era_option;
        options.volatile_edges = 5;
        StableSpineAdversary adversary(n, T, options, seed);
        std::map<std::int64_t, const graph::Edge*> era_buffer;
        std::vector<graph::Edge> edges;
        for (const std::int64_t r : rounds) {
          ASSERT_TRUE(adversary.RoundEdgesInto(r, view, edges));
          const graph::RoundComposition* comp = adversary.Composition(r);
          ASSERT_NE(comp, nullptr);
          const std::int64_t era = (r - 1) / era_len;
          const std::vector<graph::Edge> expected = spine_of(era);
          EXPECT_EQ(comp->core_id, static_cast<std::uint64_t>(era));
          ASSERT_TRUE(std::equal(comp->core.begin(), comp->core.end(),
                                 expected.begin(), expected.end()))
              << "round " << r;
          const auto [it, first] = era_buffer.emplace(era, comp->core.data());
          EXPECT_TRUE(first || it->second == comp->core.data())
              << "era " << era << " changed buffer at round " << r;
          if ((r - 1) % era_len < T - 1 && era >= 1) {
            const std::vector<graph::Edge> previous = spine_of(era - 1);
            EXPECT_TRUE(std::equal(comp->support.begin(), comp->support.end(),
                                   previous.begin(), previous.end()))
                << "round " << r;
          } else {
            EXPECT_TRUE(comp->support.empty()) << "round " << r;
          }
        }
      }
    }
  }
}

/// The spine held for the next era is charged to BufferBytes: between two
/// plain rounds of one era only the era's last round adds a buffer, exactly
/// the next era's spine.
TEST(StableSpine, BufferBytesCountsTheSpineHeldForTheNextEra) {
  const graph::NodeId n = 96;
  const ZeroView view(n);
  for (const int T : {1, 2, 3}) {
    StableSpineOptions options;
    options.spine.kind = SpineKind::kGnp;
    options.era_length = T + 2;
    options.volatile_edges = 5;
    StableSpineAdversary adversary(n, T, options, 78);
    std::vector<graph::Edge> edges;
    // Era 1 runs rounds T+3 .. 2T+4; its last two rounds are both plain.
    const std::int64_t last = 2 * (T + 2);
    for (std::int64_t r = 1; r < last; ++r) {
      ASSERT_TRUE(adversary.RoundEdgesInto(r, view, edges));
    }
    const std::int64_t before = adversary.BufferBytes();
    ASSERT_TRUE(adversary.RoundEdgesInto(last, view, edges));
    const std::int64_t held = adversary.BufferBytes() - before;
    ASSERT_TRUE(adversary.RoundEdgesInto(last + 1, view, edges));
    const auto& next = adversary.Composition(last + 1)->core_owner;
    EXPECT_EQ(held, static_cast<std::int64_t>(next->capacity() *
                                              sizeof(graph::Edge)))
        << "T=" << T;
    EXPECT_GT(held, 0);
  }
}

/// A spine lives only while its adversary or a composition consumer holds
/// it: once era 0 and its overlap round are over, nothing keeps the era-0
/// spine alive.
TEST(StableSpine, RetiredSpineIsReleased) {
  const graph::NodeId n = 64;
  const ZeroView view(n);
  StableSpineOptions options;
  options.spine.kind = SpineKind::kGnp;
  StableSpineAdversary adversary(n, /*T=*/2, options, 79);
  std::vector<graph::Edge> edges;
  ASSERT_TRUE(adversary.RoundEdgesInto(1, view, edges));
  const std::weak_ptr<const std::vector<graph::Edge>> era0 =
      adversary.Composition(1)->core_owner;
  ASSERT_FALSE(era0.expired());
  // Eras are T = 2 rounds long: era 1 (rounds 3-4) keeps era 0 as its
  // overlap support in round 3 only, and round 5 opens era 2.
  for (std::int64_t r = 2; r <= 5; ++r) {
    ASSERT_TRUE(adversary.RoundEdgesInto(r, view, edges));
  }
  EXPECT_TRUE(era0.expired()) << "use_count " << era0.use_count();
}

}  // namespace
}  // namespace sdn::adversary
