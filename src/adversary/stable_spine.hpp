// The workhorse oblivious adversary.
//
// Time is split into eras of `era_length` rounds. Era k has a spine S_k (a
// connected spanning subgraph drawn from the SpineSpec). Round r's topology:
//
//   G_r = S_k ∪ (S_{k-1} if r is within the first T-1 rounds of era k)
//         ∪ fresh volatile random edges (redrawn every round)
//
// Sliding-window correctness: every window of T consecutive rounds fits
// inside the "extended life" of some spine — S_k is present from the start of
// era k through the first T-1 rounds of era k+1, i.e. for era_length + T - 1
// consecutive rounds — so the window's intersection contains a connected
// spanning subgraph. (Changing spines at era boundaries WITHOUT the overlap
// would violate the promise for windows straddling the boundary; the
// T-interval property is a sliding-window property. Tests pin this down.)
//
// Volatile edges change every round, so topologies genuinely differ
// round-to-round even inside an era.
//
// Era-ahead draw: building the last round of era k also draws S_{k+1} and
// holds it until era k+1 begins. Every spine is still drawn from its own
// forked era rng, so the sequence is unchanged; the draw just moves out of
// the era-boundary round — the one that also unions two spines — into the
// plain round before it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "adversary/spine.hpp"
#include "net/adversary.hpp"
#include "util/rng.hpp"

namespace sdn::adversary {

struct StableSpineOptions {
  SpineSpec spine;
  /// Era length in rounds; default (0) means T.
  std::int64_t era_length = 0;
  /// Volatile random edges added per round (sampled uniformly, duplicates
  /// with spine edges are harmless).
  std::int64_t volatile_edges = 0;
};

class StableSpineAdversary final : public net::Adversary {
 public:
  StableSpineAdversary(graph::NodeId n, int T, StableSpineOptions options,
                       std::uint64_t seed);

  [[nodiscard]] graph::NodeId num_nodes() const override { return n_; }
  [[nodiscard]] int interval() const override { return t_; }
  graph::Graph TopologyFor(std::int64_t round,
                           const net::AdversaryView& view) override;
  /// Native delta: assembles the round's sorted edge list in a reused
  /// buffer and diffs it against `prev` — no per-round Graph (CSR build)
  /// at all. Consumes the identical volatile-RNG stream as TopologyFor.
  void DeltaFor(std::int64_t round, const net::AdversaryView& view,
                const graph::Graph& prev, graph::TopologyDelta& out) override;
  /// Fastest path: writes the round's full sorted-unique edge list straight
  /// into the caller's buffer, skipping both the Graph build and the diff.
  bool RoundEdgesInto(std::int64_t round, const net::AdversaryView& view,
                      std::vector<graph::Edge>& out) override;
  /// Certification fast path: every round is exactly
  /// spine ∪ (previous spine during overlap) ∪ volatile edges, with the
  /// era number as the spine's stable identity — the checker certifies
  /// windows by spine witness without ever materializing a delta.
  [[nodiscard]] bool has_composition() const override { return true; }
  [[nodiscard]] const graph::RoundComposition* Composition(
      std::int64_t round) const override {
    return round == comp_round_ ? &comp_ : nullptr;
  }
  /// Generator buffers: the live spine vectors (current, previous and the
  /// next era's once drawn ahead), the cached era overlap union, and the
  /// per-round assembly/volatile scratch. Pure function of the round
  /// sequence (capacities only grow along it).
  [[nodiscard]] std::int64_t BufferBytes() const override {
    const auto vec = [](const auto& v) {
      using T = typename std::decay_t<decltype(v)>::value_type;
      return static_cast<std::int64_t>(v.capacity() * sizeof(T));
    };
    std::int64_t total = vec(overlap_base_) + vec(round_edges_) +
                         vec(fresh_edges_) + vec(fresh_keys_);
    if (current_spine_ != nullptr) total += vec(*current_spine_);
    if (previous_spine_ != nullptr) total += vec(*previous_spine_);
    if (next_spine_ != nullptr) total += vec(*next_spine_);
    return total;
  }

  [[nodiscard]] std::string name() const override;

  /// The spine active in `round`'s era (for tests and d-calibration).
  [[nodiscard]] graph::Graph SpineForRound(std::int64_t round);

 private:
  void AdvanceToEra(std::int64_t era);
  /// Era `era`'s spine: MakeSpineEdges on the era's forked rng, shared so
  /// a composition consumer can pin it past the era.
  [[nodiscard]] std::shared_ptr<const std::vector<graph::Edge>> DrawSpine(
      std::int64_t era);
  /// The sorted-unique union of the current and previous spines, built once
  /// per era (used by the first T-1 overlap rounds of that era).
  const std::vector<graph::Edge>& OverlapBase();
  /// Fills `out` with round's sorted, deduplicated edge list (spine ∪
  /// overlap spine ∪ fresh volatile edges), advancing the volatile RNG.
  void BuildRoundEdges(std::int64_t round, std::vector<graph::Edge>& out);

  graph::NodeId n_;
  int t_;
  StableSpineOptions options_;
  std::int64_t era_length_;
  util::Rng seed_rng_;
  util::Rng volatile_rng_;
  std::int64_t current_era_ = -1;
  bool has_previous_ = false;  // a previous era's spine exists
  // Sorted-unique spine edge lists (the spine CSR is never needed), shared
  // with the RoundComposition owners; null until the first AdvanceToEra.
  std::shared_ptr<const std::vector<graph::Edge>> current_spine_;
  std::shared_ptr<const std::vector<graph::Edge>> previous_spine_;
  // Era current_era_ + 1's spine, drawn by the era's last round; null
  // otherwise. AdvanceToEra moves it in as the next current spine.
  std::shared_ptr<const std::vector<graph::Edge>> next_spine_;
  std::vector<graph::Edge> overlap_base_;    // cached cur ∪ prev of one era
  std::int64_t overlap_base_era_ = -1;
  std::vector<graph::Edge> round_edges_;  // DeltaFor's reused assembly buffer
  std::vector<graph::Edge> fresh_edges_;  // volatile-edge scratch
  std::vector<std::uint64_t> fresh_keys_;  // packed volatile draws pre-sort
  graph::RoundComposition comp_;     // last built round's structure
  std::int64_t comp_round_ = -1;     // round comp_ describes
};

}  // namespace sdn::adversary
