#include "adversary/spine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "adversary/stable_spine.hpp"
#include "graph/algorithms.hpp"
#include "graph/delta.hpp"
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

/// A view with no node state. `prefetch` is what it reports as
/// prefetches_topology(): true makes the stable-spine adversary run each
/// era's prep on its helper lane, false (the default) inline.
class ZeroView final : public net::AdversaryView {
 public:
  explicit ZeroView(graph::NodeId n, bool prefetch = false)
      : n_(n), prefetch_(prefetch) {}
  [[nodiscard]] std::int64_t round() const override { return 1; }
  [[nodiscard]] double PublicState(graph::NodeId) const override { return 0; }
  [[nodiscard]] graph::NodeId num_nodes() const override { return n_; }
  [[nodiscard]] bool prefetches_topology() const override { return prefetch_; }

 private:
  graph::NodeId n_;
  bool prefetch_;
};

/// Era prep: the stable-spine adversary prepares era k+1 (its spine and
/// the overlap base) one era ahead, on its helper lane or inline. Every
/// round's core must still be its era's spine from the era's own forked
/// rng, one buffer for the whole era — also when the requested rounds skip
/// eras — and the overlap support the previous era's.
TEST(StableSpine, EraPrepKeepsEachEraSpineAndItsBuffer) {
  const graph::NodeId n = 96;
  const std::uint64_t seed = 77;
  SpineSpec spec;
  spec.kind = SpineKind::kGnp;
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
      // era's last round past two.
      const std::set<std::int64_t> skipping = {
          1, 2 * era_len + 1, 3 * era_len, 6 * era_len + 1, 6 * era_len + T};
      for (const auto& [rounds, prefetch] :
           {std::pair{dense, false}, std::pair{skipping, false},
            std::pair{dense, true}, std::pair{skipping, true}}) {
        SCOPED_TRACE("T=" + std::to_string(T) + " era=" +
                     std::to_string(era_len) +
                     (rounds.size() == dense.size() ? " dense" : " skipping") +
                     (prefetch ? " helper" : " inline"));
        const ZeroView view(n, prefetch);
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

/// The next era's prep is charged to BufferBytes from the join that issues
/// it, with the spine just joined standing in for the spine the prep draws.
/// At T = 1 with no volatile edges nothing else is held, so every round of
/// era k charges exactly that stand-in plus S_k and S_{k-1}; from T = 2 on
/// the overlap base and its spare come on top.
TEST(StableSpine, BufferBytesChargesTheNextEraFromItsJoin) {
  const graph::NodeId n = 96;
  const auto bytes = [](const graph::RoundComposition& comp) {
    return static_cast<std::int64_t>(comp.core_owner->capacity() *
                                     sizeof(graph::Edge));
  };
  for (const int T : {1, 2, 3}) {
    for (const bool prefetch : {false, true}) {
      SCOPED_TRACE("T=" + std::to_string(T) +
                   (prefetch ? " helper" : " inline"));
      const ZeroView view(n, prefetch);
      StableSpineOptions options;
      options.spine.kind = SpineKind::kGnp;
      options.era_length = T + 2;
      StableSpineAdversary adversary(n, T, options, 78);
      std::vector<graph::Edge> edges;
      std::int64_t previous = 0;  // the previous era's spine, charged
      std::vector<graph::Edge> previous_spine;
      for (std::int64_t r = 1; r <= 4 * (T + 2); ++r) {
        ASSERT_TRUE(adversary.RoundEdgesInto(r, view, edges));
        const graph::RoundComposition& comp = *adversary.Composition(r);
        const std::int64_t current = bytes(comp);
        const std::int64_t spines = 2 * current + previous;
        if (T == 1) {
          EXPECT_EQ(adversary.BufferBytes(), spines) << "round " << r;
        } else {
          std::vector<graph::Edge> overlap;
          if (!previous_spine.empty()) {
            graph::UnionSorted(*comp.core_owner, previous_spine, overlap);
          }
          EXPECT_GE(adversary.BufferBytes(),
                    spines + static_cast<std::int64_t>(overlap.size() *
                                                       sizeof(graph::Edge)))
              << "round " << r;
        }
        if ((r - 1) % (T + 2) == T + 1) {
          previous = current;
          previous_spine = *comp.core_owner;
        }
      }
    }
  }
}

/// The helper lane and the inline prep build the same run: at every round
/// the round list, the composition (ids, spans and owners) and BufferBytes
/// agree, for dense and era-skipping requests alike.
TEST(StableSpine, HelperPrepMatchesInlinePrep) {
  const graph::NodeId n = 300;
  for (const SpineKind kind : {SpineKind::kGnp, SpineKind::kExpander}) {
    for (const int T : {1, 2, 3}) {
      for (const std::int64_t era_len :
           {std::int64_t{T}, std::int64_t{T} + 2}) {
        std::set<std::int64_t> dense;
        for (std::int64_t r = 1; r <= 8 * era_len; ++r) dense.insert(r);
        const std::set<std::int64_t> skipping = {
            1, 2, 3 * era_len + 1, 4 * era_len, 7 * era_len + T, 8 * era_len};
        for (const auto& rounds : {dense, skipping}) {
          const bool is_dense = rounds.size() == dense.size();
          SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                       " T=" + std::to_string(T) +
                       " era=" + std::to_string(era_len) +
                       (is_dense ? " dense" : " skipping"));
          StableSpineOptions options;
          options.spine.kind = kind;
          options.era_length = era_len;
          options.volatile_edges = 7;
          StableSpineAdversary inline_prep(n, T, options, 80);
          StableSpineAdversary helper_prep(n, T, options, 80);
          const ZeroView inline_view(n, false);
          const ZeroView helper_view(n, true);
          std::vector<graph::Edge> a;
          std::vector<graph::Edge> b;
          const auto same = [](std::span<const graph::Edge> x,
                               std::span<const graph::Edge> y) {
            return std::equal(x.begin(), x.end(), y.begin(), y.end());
          };
          for (const std::int64_t r : rounds) {
            ASSERT_TRUE(inline_prep.RoundEdgesInto(r, inline_view, a));
            ASSERT_TRUE(helper_prep.RoundEdgesInto(r, helper_view, b));
            EXPECT_EQ(a, b) << "round " << r;
            const graph::RoundComposition& x = *inline_prep.Composition(r);
            const graph::RoundComposition& y = *helper_prep.Composition(r);
            EXPECT_EQ(x.core_id, y.core_id) << "round " << r;
            EXPECT_EQ(x.support_id, y.support_id) << "round " << r;
            EXPECT_TRUE(same(x.core, y.core)) << "round " << r;
            EXPECT_TRUE(same(x.support, y.support)) << "round " << r;
            EXPECT_TRUE(same(x.fresh, y.fresh)) << "round " << r;
            EXPECT_EQ(y.core.data(), y.core_owner->data()) << "round " << r;
            EXPECT_TRUE(same(*x.core_owner, *y.core_owner)) << "round " << r;
            EXPECT_EQ(x.support_owner == nullptr, y.support_owner == nullptr)
                << "round " << r;
            if (y.support_owner != nullptr) {
              EXPECT_EQ(y.support.data(), y.support_owner->data())
                  << "round " << r;
              EXPECT_TRUE(same(*x.support_owner, *y.support_owner))
                  << "round " << r;
            }
            EXPECT_EQ(inline_prep.BufferBytes(), helper_prep.BufferBytes())
                << "round " << r;
          }
        }
      }
    }
  }
}

/// Destroying the adversary with a prep in flight joins or drops that prep:
/// no hang, and (under ASan) no leak or use after free.
TEST(StableSpine, DestroyingMidEraJoinsTheInFlightPrep) {
  const graph::NodeId n = 20000;
  const ZeroView view(n, /*prefetch=*/true);
  std::vector<graph::Edge> edges;
  for (const std::int64_t last : {1, 2, 3}) {
    StableSpineOptions options;
    options.spine.kind = SpineKind::kGnp;
    StableSpineAdversary adversary(n, /*T=*/2, options, 81);
    for (std::int64_t r = 1; r <= last; ++r) {
      ASSERT_TRUE(adversary.RoundEdgesInto(r, view, edges));
    }
  }
}

/// A spine lives only while its adversary, a composition consumer or the
/// era prep that unions it holds it: once era 0 and its overlap round are
/// over, nothing keeps the era-0 spine alive, whichever way the prep runs.
TEST(StableSpine, RetiredSpineIsReleased) {
  const graph::NodeId n = 64;
  for (const bool prefetch : {false, true}) {
    SCOPED_TRACE(prefetch ? "helper" : "inline");
    const ZeroView view(n, prefetch);
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
}

}  // namespace
}  // namespace sdn::adversary
