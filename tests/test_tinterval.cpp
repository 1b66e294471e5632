#include "graph/tinterval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sdn::graph {
namespace {

std::vector<Graph> Repeat(const Graph& g, int times) {
  return std::vector<Graph>(static_cast<std::size_t>(times), g);
}

TEST(ValidateTInterval, StaticConnectedPassesAnyT) {
  const auto seq = Repeat(Path(6), 10);
  for (const int T : {1, 2, 3, 10}) {
    const auto report = ValidateTInterval(seq, T);
    EXPECT_TRUE(report.ok) << "T=" << T;
    EXPECT_EQ(report.min_stable_forest, 5);
  }
}

TEST(ValidateTInterval, DisconnectedRoundFailsT1) {
  std::vector<Graph> seq = Repeat(Path(4), 3);
  seq[1] = Graph(4, std::vector<Edge>{{0, 1}});  // disconnected round
  const auto report = ValidateTInterval(seq, 1);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.first_bad_window, 1);
}

TEST(ValidateTInterval, SlidingWindowViolationDetected) {
  // Two alternating spanning trees that share no edges: each round is
  // connected (T=1 fine) but no 2-window has a common connected subgraph.
  const Graph a = Path(4);                                      // 0-1-2-3
  const Graph b(4, std::vector<Edge>{{0, 2}, {2, 1}, {1, 3}});  // disjoint path
  const std::vector<Graph> seq = {a, b, a, b};
  EXPECT_TRUE(ValidateTInterval(seq, 1).ok);
  const auto report = ValidateTInterval(seq, 2);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.first_bad_window, 0);
}

TEST(ValidateTInterval, AlignedRewireWithoutOverlapViolatesSlidingPromise) {
  // The naive "new spine every T rounds" adversary: windows straddling the
  // boundary fail. This pins down why adversaries need the overlap trick.
  util::Rng rng(1);
  const Graph s1 = RandomTree(16, rng);
  Graph s2 = RandomTree(16, rng);
  while (EdgeIntersection(std::vector<Graph>{s1, s2}).num_edges() >= 15) {
    s2 = RandomTree(16, rng);  // ensure the spines actually differ
  }
  const std::vector<Graph> seq = {s1, s1, s1, s2, s2, s2};
  const auto report = ValidateTInterval(seq, 3);
  EXPECT_FALSE(report.ok);
  EXPECT_GE(report.first_bad_window, 1);
}

TEST(ValidateTInterval, OverlapRepairsStraddlingWindows) {
  util::Rng rng(2);
  const Graph s1 = RandomTree(16, rng);
  const Graph s2 = RandomTree(16, rng);
  const Graph both = s1.WithEdges(s2.Edges());
  // Era length 3, T=3: first T-1=2 rounds of era 2 carry both spines.
  const std::vector<Graph> seq = {s1, s1, s1, both, both, s2};
  EXPECT_TRUE(ValidateTInterval(seq, 3).ok);
}

TEST(ValidateTInterval, ShortSequenceUsesAvailableWindows) {
  const auto report = ValidateTInterval(Repeat(Path(4), 2), 5);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.windows_checked, 1);
}

TEST(ValidateTInterval, MinStableForestMeasuresIntersectionRichness) {
  // Static path: every window's intersection is the full spanning tree.
  const auto path_seq = Repeat(Path(5), 6);
  EXPECT_EQ(ValidateTInterval(path_seq, 3).min_stable_forest, 4);
  // Drop to a single shared edge in one window: forest size 1.
  std::vector<Graph> seq = Repeat(Path(4), 4);
  seq[2] = Graph(4, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}});  // star
  const auto report = ValidateTInterval(seq, 2);
  EXPECT_FALSE(report.ok);  // path ∩ star = {(0,1)} is not spanning
  EXPECT_EQ(report.min_stable_forest, 1);
}

TEST(ValidateTInterval, ShortSequenceIsExactlyTheClampedWindows) {
  // Doc pin: a sequence shorter than T has no complete window and there is
  // no separate partial-tail notion — the promise clamps to the
  // len - min(T, len) + 1 = 1 whole-prefix window, whose intersection must
  // itself be connected.
  const Graph a = Path(4);
  const Graph star(4, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}});
  const auto bad = ValidateTInterval(std::vector<Graph>{a, star}, 5);
  EXPECT_FALSE(bad.ok);  // path ∩ star = {(0,1)} disconnects the prefix
  EXPECT_EQ(bad.windows_checked, 1);
  EXPECT_EQ(bad.first_bad_window, 0);
  EXPECT_EQ(bad.min_stable_forest, 1);
  const auto good = ValidateTInterval(std::vector<Graph>{a, a, a}, 7);
  EXPECT_TRUE(good.ok);
  EXPECT_EQ(good.windows_checked, 1);
  EXPECT_EQ(good.min_stable_forest, 3);
}

TEST(ValidateTInterval, EarlyExitAgreesOnVerdictAndStopsThere) {
  const Graph a = Path(4);
  const Graph b(4, std::vector<Edge>{{0, 2}, {2, 1}, {1, 3}});
  const std::vector<Graph> seq = {a, a, b, b, a, b, a};
  const auto full = ValidateTInterval(seq, 2, ValidateMode::kFull);
  const auto fast = ValidateTInterval(seq, 2, ValidateMode::kEarlyExit);
  ASSERT_FALSE(full.ok);
  EXPECT_FALSE(fast.ok);
  EXPECT_EQ(fast.first_bad_window, full.first_bad_window);
  EXPECT_LT(fast.windows_checked, full.windows_checked);
  // On a clean sequence both modes see every window.
  const std::vector<Graph> clean = {a, a, a, a};
  const auto clean_full = ValidateTInterval(clean, 2, ValidateMode::kFull);
  const auto clean_fast = ValidateTInterval(clean, 2, ValidateMode::kEarlyExit);
  EXPECT_TRUE(clean_fast.ok);
  EXPECT_EQ(clean_fast.windows_checked, clean_full.windows_checked);
  EXPECT_EQ(clean_fast.min_stable_forest, clean_full.min_stable_forest);
}

TEST(TIntervalChecker, StreamingMatchesBatch) {
  const Graph a = Path(4);
  const Graph b(4, std::vector<Edge>{{0, 2}, {2, 1}, {1, 3}});
  const std::vector<Graph> seq = {a, a, b, b, a};
  const auto batch = ValidateTInterval(seq, 2);

  TIntervalChecker checker(4, 2);
  bool ok = true;
  std::int64_t first_bad = -1;
  std::int64_t round = 0;
  for (const Graph& g : seq) {
    const bool now = checker.Push(g);
    if (ok && !now) first_bad = round - 1;
    ok = now;
    ++round;
  }
  EXPECT_EQ(checker.ok(), batch.ok);
  EXPECT_EQ(checker.first_bad_window(), batch.first_bad_window);
  EXPECT_EQ(first_bad, batch.first_bad_window);
}

TEST(TIntervalChecker, PassesStaticSequence) {
  TIntervalChecker checker(5, 3);
  const Graph g = Cycle(5);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(checker.Push(g));
  EXPECT_TRUE(checker.ok());
  EXPECT_EQ(checker.rounds_seen(), 20);
}

TEST(TIntervalChecker, FeedModesMustNotMix) {
  TIntervalChecker checker(4, 2);
  EXPECT_TRUE(checker.Push(Path(4)));
  const RoundComposition comp;  // never reached: the mode check fires first
  EXPECT_THROW((void)checker.PushComposition(comp, Path(4)),
               util::CheckError);
}

/// Largest T' <= T the batch validator accepts — the quantity the streaming
/// checker's certified_T() claims to equal (window connectivity is downward
/// closed in window length, so the accepted T' form a prefix).
std::int64_t BatchCertifiedT(std::span<const Graph> seq, int T) {
  std::int64_t cert = 0;
  for (int t = 1; t <= T; ++t) {
    if (!ValidateTInterval(seq, t).ok) break;
    cert = t;
  }
  return cert;
}

/// A sorted duplicate-free batch of `k` random edges on n nodes.
std::vector<Edge> RandomEdges(NodeId n, int k, util::Rng& rng) {
  std::vector<Edge> edges;
  for (int i = 0; i < k; ++i) {
    const auto u = static_cast<NodeId>(rng.UniformU64(
        static_cast<std::uint64_t>(n)));
    const auto v = static_cast<NodeId>(rng.UniformU64(
        static_cast<std::uint64_t>(n)));
    if (u != v) edges.emplace_back(u, v);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

TEST(TIntervalChecker, FuzzStreamingFeedsMatchBatch) {
  // Randomized equivalence: Push and PushDelta against the batch validator
  // on churny sequences — persistent tree (redrawn with some probability,
  // planting violations) plus per-round volatile extras. Every reported
  // field must agree, including certified-T and the forest minimum.
  util::Rng rng(424242);
  const NodeId n = 10;
  for (int iter = 0; iter < 60; ++iter) {
    const int T = std::array<int, 3>{1, 2, 5}[static_cast<std::size_t>(iter % 3)];
    const int len = 1 + static_cast<int>(rng.UniformU64(12));
    Graph tree = RandomTree(n, rng);
    std::vector<Graph> seq;
    std::vector<Edge> round_edges;
    for (int r = 0; r < len; ++r) {
      if (rng.Bernoulli(0.3)) tree = RandomTree(n, rng);
      UnionSorted(tree.Edges(), RandomEdges(n, 5, rng), round_edges);
      seq.emplace_back(n, std::span<const Edge>(round_edges));
    }
    const auto batch = ValidateTInterval(seq, T);
    TIntervalChecker push_checker(n, T);
    TIntervalChecker delta_checker(n, T);
    Graph prev(n);
    for (const Graph& g : seq) {
      const bool a = push_checker.Push(g);
      const bool b = delta_checker.PushDelta(Diff(prev, g));
      EXPECT_EQ(a, b);
      prev = g;
    }
    for (const TIntervalChecker* c : {&push_checker, &delta_checker}) {
      EXPECT_EQ(c->ok(), batch.ok) << "iter " << iter << " T=" << T;
      EXPECT_EQ(c->first_bad_window(), batch.first_bad_window)
          << "iter " << iter << " T=" << T;
      EXPECT_EQ(c->min_stable_forest(), batch.min_stable_forest)
          << "iter " << iter << " T=" << T;
      EXPECT_EQ(c->certified_T(), BatchCertifiedT(seq, T))
          << "iter " << iter << " T=" << T;
    }
  }
}

TEST(TIntervalChecker, HeavyChurnGrowsTheEdgeTableAndMatchesBatch) {
  // The delta path's edge-age table at a size where it grows and wraps: on
  // 300 nodes the volatile edge count ramps from about a hundred to
  // thousands, so the table doubles several times, and each round removes
  // about half of the previous round's extras, so the backward-shift
  // deletions run over probe runs that wrap past the end of the slot
  // array. Some extras survive long enough to age into the stable set as
  // cycle (non-tree) edges. The spanning tree is redrawn now and then and
  // overlaps its predecessor for T - 1 rounds (no redraw inside an
  // overlap), so stable tree edges leave and the forest is rebuilt while
  // the promise holds. The last four iterations plant violations: redraws
  // without the overlap, and dropped tree edges that can disconnect a
  // single round.
  util::Rng rng(20260601);
  const NodeId n = 300;
  for (int iter = 0; iter < 8; ++iter) {
    const int T = std::array<int, 4>{1, 2, 3, 5}[static_cast<std::size_t>(iter % 4)];
    const bool plant = iter >= 4;
    const int len = 30 + static_cast<int>(rng.UniformU64(15));
    Graph tree = RandomTree(n, rng);
    Graph previous = tree;
    int overlap_left = 0;
    std::vector<Edge> extras;
    std::vector<Edge> kept;
    std::vector<Edge> tree_edges;
    std::vector<Edge> round_edges;
    std::vector<Graph> seq;
    for (int r = 0; r < len; ++r) {
      if (overlap_left == 0 && rng.Bernoulli(0.2)) {
        previous = tree;
        tree = RandomTree(n, rng);
        overlap_left = plant && rng.Bernoulli(0.5) ? 0 : T - 1;
      }
      if (overlap_left > 0) {
        UnionSorted(tree.Edges(), previous.Edges(), tree_edges);
        --overlap_left;
      } else {
        tree_edges.assign(tree.Edges().begin(), tree.Edges().end());
      }
      if (plant && r < 6 && rng.Bernoulli(0.5)) {
        tree_edges.erase(tree_edges.begin() +
                         static_cast<std::ptrdiff_t>(rng.UniformU64(
                             static_cast<std::uint64_t>(n - 1))));
      }
      kept.clear();
      for (const Edge& e : extras) {
        if (rng.Bernoulli(0.5)) kept.push_back(e);
      }
      UnionSorted(kept, RandomEdges(n, 80 * (r + 1), rng), extras);
      UnionSorted(tree_edges, extras, round_edges);
      seq.emplace_back(n, std::span<const Edge>(round_edges));
    }
    SCOPED_TRACE("iter " + std::to_string(iter) + " T=" + std::to_string(T));
    TIntervalChecker push_checker(n, T);
    TIntervalChecker delta_checker(n, T);
    Graph prev(n);
    for (std::size_t r = 0; r < seq.size(); ++r) {
      const bool a = push_checker.Push(seq[r]);
      const bool b = delta_checker.PushDelta(Diff(prev, seq[r]));
      prev = seq[r];
      const auto rounds = static_cast<int>(r) + 1;
      ASSERT_EQ(b, a) << "round " << rounds;
      if (rounds < T) continue;  // no complete window yet
      const auto prefix = std::span<const Graph>(seq).first(r + 1);
      ASSERT_EQ(a, ValidateTInterval(prefix, T).ok) << "round " << rounds;
      // The stable set is the intersection of the last T rounds.
      const std::int64_t stable =
          EdgeIntersection(prefix.last(static_cast<std::size_t>(T)))
              .num_edges();
      ASSERT_EQ(push_checker.stable_edge_count(), stable) << "round " << rounds;
      ASSERT_EQ(delta_checker.stable_edge_count(), stable) << "round " << rounds;
    }
    const auto batch = ValidateTInterval(seq, T);
    const std::int64_t certified = BatchCertifiedT(seq, T);
    if (!plant) {
      EXPECT_EQ(certified, T);  // the overlaps keep the promise
    }
    for (const TIntervalChecker* c : {&push_checker, &delta_checker}) {
      EXPECT_EQ(c->rounds_seen(), len);
      EXPECT_EQ(c->ok(), batch.ok);
      EXPECT_EQ(c->first_bad_window(), batch.first_bad_window);
      EXPECT_EQ(c->min_stable_forest(), batch.min_stable_forest);
      EXPECT_EQ(c->certified_T(), certified);
    }
  }
}

TEST(TIntervalChecker, FuzzCompositionMatchesBatch) {
  // Same equivalence for the certification fast path, over synthetic
  // era-structured streams shaped like the stable-spine adversary: pinned
  // per-era spines (stable id -> stable span), an overlap round carrying
  // both spines, per-round fresh extras. Odd iterations drop the overlap,
  // so era-straddling windows lose their witness and force the exact
  // reconstruction fallback — usually a genuine violation.
  util::Rng rng(2026);
  const NodeId n = 12;
  for (int iter = 0; iter < 36; ++iter) {
    const int T = std::array<int, 3>{1, 2, 5}[static_cast<std::size_t>(iter % 3)];
    const int era_len = std::max(T, 2);
    const bool honest = iter % 2 == 0;
    const int len =
        1 + static_cast<int>(rng.UniformU64(
                static_cast<std::uint64_t>(4 * era_len)));
    // Pinned spans with shared owners, as the composition contract requires.
    std::map<std::uint64_t, std::shared_ptr<const std::vector<Edge>>> spines;
    const auto spine_for = [&](std::uint64_t era)
        -> const std::shared_ptr<const std::vector<Edge>>& {
      auto it = spines.find(era);
      if (it == spines.end()) {
        const Graph t = RandomTree(n, rng);
        it = spines
                 .emplace(era, std::make_shared<const std::vector<Edge>>(
                                   t.Edges().begin(), t.Edges().end()))
                 .first;
      }
      return it->second;
    };
    std::vector<Graph> seq;
    std::vector<RoundComposition> comps;
    std::vector<std::vector<Edge>> fresh_store(
        static_cast<std::size_t>(len));
    std::vector<Edge> scratch;
    for (int r = 1; r <= len; ++r) {
      const auto era = static_cast<std::uint64_t>((r - 1) / era_len);
      const bool overlap = honest && era > 0 && (r - 1) % era_len < T - 1;
      const std::shared_ptr<const std::vector<Edge>>& core = spine_for(era);
      fresh_store[static_cast<std::size_t>(r - 1)] =
          RandomEdges(n, static_cast<int>(rng.UniformU64(4)), rng);
      const std::vector<Edge>& fresh =
          fresh_store[static_cast<std::size_t>(r - 1)];
      RoundComposition comp;
      comp.core = *core;
      comp.core_id = era;
      comp.core_owner = core;
      comp.fresh = fresh;
      std::vector<Edge> all;
      if (overlap) {
        const auto& prev_spine = spine_for(era - 1);
        comp.support = *prev_spine;
        comp.support_id = era - 1;
        comp.support_owner = prev_spine;
        UnionSorted(*core, *prev_spine, scratch);
        UnionSorted(scratch, fresh, all);
      } else {
        UnionSorted(*core, fresh, all);
      }
      seq.emplace_back(n, std::span<const Edge>(all));
      comps.push_back(comp);
    }
    TIntervalChecker comp_checker(n, T);
    TIntervalChecker push_checker(n, T);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      const bool a = comp_checker.PushComposition(comps[i], seq[i]);
      const bool b = push_checker.Push(seq[i]);
      EXPECT_EQ(a, b) << "iter " << iter << " round " << i + 1;
    }
    const auto batch = ValidateTInterval(seq, T);
    EXPECT_EQ(comp_checker.ok(), batch.ok) << "iter " << iter;
    EXPECT_EQ(comp_checker.first_bad_window(), batch.first_bad_window)
        << "iter " << iter;
    EXPECT_EQ(comp_checker.min_stable_forest(), batch.min_stable_forest)
        << "iter " << iter;
    EXPECT_EQ(comp_checker.certified_T(), BatchCertifiedT(seq, T))
        << "iter " << iter;
    EXPECT_EQ(comp_checker.stable_edge_count(), -1);
  }
}

TEST(TIntervalChecker, CompositionLiesAreCaught) {
  // A claim whose union disagrees with the round must throw (first-seen ids
  // are fully verified), never silently certify.
  const auto claimed = std::make_shared<const std::vector<Edge>>(
      std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  const Graph actual(6, std::vector<Edge>{{1, 2}, {2, 3}, {3, 4}, {4, 5}});
  RoundComposition comp;
  comp.core = *claimed;  // (0,1) is not in the round
  comp.core_id = 0;
  comp.core_owner = claimed;
  TIntervalChecker checker(6, 2);
  EXPECT_THROW((void)checker.PushComposition(comp, actual),
               util::CheckError);
}

TEST(TIntervalChecker, CompositionWithoutOwnerIsRejected) {
  // The span-lifetime contract: a non-empty core/support span must carry a
  // shared owner, or the checker refuses the claim outright. A bare span
  // could dangle the moment the adversary rotates its era buffers.
  const std::vector<Edge> bare = {{0, 1}, {1, 2}, {2, 3}};
  const Graph actual(4, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}});
  RoundComposition comp;
  comp.core = bare;
  comp.core_id = 0;  // no core_owner set
  TIntervalChecker checker(4, 2);
  EXPECT_THROW((void)checker.PushComposition(comp, actual),
               util::CheckError);
}

TEST(TIntervalChecker, SpineCachePinsPublishedBuffer) {
  // Span identity across era revisits: the checker's spine cache must hold
  // the *published* buffer via its shared owner, not a copy. After the
  // producer drops its reference, the owner's data pointer (captured at
  // publish time) must still be what the record pins — use_count proves the
  // cache took shared ownership instead of copying.
  auto spine = std::make_shared<const std::vector<Edge>>(
      std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const Edge* const published_data = spine->data();
  const Graph round(5, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  RoundComposition comp;
  comp.core = *spine;
  comp.core_id = 7;
  comp.core_owner = spine;
  TIntervalChecker checker(5, 2);
  EXPECT_TRUE(checker.PushComposition(comp, round));
  // The checker now co-owns the buffer (producer + cache).
  EXPECT_GE(spine.use_count(), 2);
  // Producer rotates away; the cached record must keep the bytes alive at
  // the same address — feed the same id again from a fresh span over the
  // original owner and the checker must accept without re-verification.
  std::weak_ptr<const std::vector<Edge>> weak = spine;
  spine.reset();
  EXPECT_FALSE(weak.expired()) << "checker must pin the published buffer";
  const auto pinned = weak.lock();
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->data(), published_data);
  RoundComposition again;
  again.core = *pinned;
  again.core_id = 7;
  again.core_owner = pinned;
  EXPECT_TRUE(checker.PushComposition(again, round));
}

TEST(TIntervalChecker, SpineCacheKeepsALiveIdAndPinsAtMost2TSpines) {
  // One core id referenced by every round and a new one-edge support id
  // each round: the core is never new, so a cache that evicts in first-in
  // order drops it while the ring still references it. The LRU cache keeps
  // every id the last T rounds reference and pins no more than 2T spines.
  const auto core = std::make_shared<const std::vector<Edge>>(
      std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  for (const int T : {1, 2, 3}) {
    SCOPED_TRACE("T=" + std::to_string(T));
    TIntervalChecker checker(6, T);
    std::vector<std::weak_ptr<const std::vector<Edge>>> supports;
    for (std::int64_t r = 1; r <= 40; ++r) {
      const Edge chord{0, static_cast<NodeId>(2 + r % 4)};
      const auto support =
          std::make_shared<const std::vector<Edge>>(std::vector<Edge>{chord});
      supports.push_back(support);
      std::vector<Edge> edges = *core;
      edges.push_back(chord);
      const Graph round(6, std::move(edges));
      RoundComposition comp;
      comp.core = *core;
      comp.core_id = 0;
      comp.core_owner = core;
      comp.support = *support;
      comp.support_id = static_cast<std::uint64_t>(r);
      comp.support_owner = support;
      bool ok = false;
      ASSERT_NO_THROW(ok = checker.PushComposition(comp, round))
          << "round " << r;
      EXPECT_TRUE(ok) << "round " << r;
      EXPECT_EQ(checker.certified_T(), T) << "round " << r;
      const auto pinned = std::count_if(
          supports.begin(), supports.end(),
          [](const auto& w) { return !w.expired(); });
      EXPECT_LE(pinned, 2 * T - 1) << "round " << r;
    }
  }
}

}  // namespace
}  // namespace sdn::graph
