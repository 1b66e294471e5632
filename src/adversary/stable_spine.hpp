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
// Era prep: everything era k+1 needs before its first round, its spine
// S_{k+1} from the era's forked rng and (when T >= 2) the overlap base
// S_k ∪ S_{k+1}, depends only on the seed and S_k. When the caller's view
// reports a prefetching engine (AdversaryView::prefetches_topology()), the
// adversary issues that prep on a helper lane of its own as era k starts
// and joins it as era k+1 starts, so the spine draw and the union run on
// an otherwise idle core instead of inside a round build. Otherwise the
// same prep runs inline at the join. Either way the draws, the rounds and
// BufferBytes() are the same, and a prep error surfaces from the topology
// call that joins it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "adversary/spine.hpp"
#include "net/adversary.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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
  // An in-flight prep holds `this`.
  StableSpineAdversary(const StableSpineAdversary&) = delete;
  StableSpineAdversary& operator=(const StableSpineAdversary&) = delete;

  [[nodiscard]] graph::NodeId num_nodes() const override { return n_; }
  [[nodiscard]] int interval() const override { return t_; }
  graph::Graph TopologyFor(std::int64_t round,
                           const net::AdversaryView& view) override;
  /// Fastest path: writes the round's full sorted-unique edge list straight
  /// into the caller's buffer, skipping both the Graph build and the diff.
  /// It never declines, so the engine never calls DeltaFor here; direct
  /// DeltaFor callers get the base class's TopologyFor + diff.
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
  /// Generator buffers: the current and previous spines, the overlap base,
  /// the volatile scratch, and the next era's prep outputs. Those are
  /// charged from the join that issues the prep: the spare overlap buffer
  /// at the capacity the prep gets it with, and the spine at the size of
  /// the spine just joined, since the prep's own spine is unknown until its
  /// join. The gauge reads nothing the helper lane may be writing, so it is
  /// a pure function of the round sequence and the same whether the prep
  /// runs there or inline.
  [[nodiscard]] std::int64_t BufferBytes() const override {
    const auto vec = [](const auto& v) {
      using T = typename std::decay_t<decltype(v)>::value_type;
      return static_cast<std::int64_t>(v.capacity() * sizeof(T));
    };
    std::int64_t total = vec(overlap_base_) + vec(fresh_edges_) +
                         vec(fresh_keys_) + prep_bytes_;
    if (current_spine_ != nullptr) total += vec(*current_spine_);
    if (previous_spine_ != nullptr) total += vec(*previous_spine_);
    return total;
  }

  [[nodiscard]] std::string name() const override;

  /// The spine active in `round`'s era (for tests and d-calibration).
  [[nodiscard]] graph::Graph SpineForRound(std::int64_t round);

 private:
  using SpinePtr = std::shared_ptr<const std::vector<graph::Edge>>;

  /// Enters `era`, passing through every era before it: joins (or runs
  /// inline) each era's prep, rotates the spines and the overlap base, and
  /// on a `helper` request issues the next era's prep on prep_lane_.
  void AdvanceToEra(std::int64_t era, bool helper);
  /// Era `era`'s spine: MakeSpineEdges on the era's forked rng, shared so
  /// a composition consumer can pin it past the era.
  [[nodiscard]] SpinePtr DrawSpine(std::int64_t era) const;
  /// The era prep (see the header) for `era` >= 1, whose previous era's
  /// spine is `previous`. Writes prep_spine_ and prep_overlap_ only.
  void PrepareEra(std::int64_t era, const SpinePtr& previous);
  /// Fills `out` with round's sorted, deduplicated edge list (spine ∪
  /// overlap spine ∪ fresh volatile edges), advancing the volatile RNG.
  void BuildRoundEdges(std::int64_t round, bool helper,
                       std::vector<graph::Edge>& out);

  graph::NodeId n_;
  int t_;
  StableSpineOptions options_;
  std::int64_t era_length_;
  util::Rng seed_rng_;
  util::Rng volatile_rng_;
  std::int64_t current_era_ = -1;
  // Sorted-unique spine edge lists (the spine CSR is never needed), shared
  // with the RoundComposition owners; current is null until era 0 starts,
  // previous until era 1 does.
  SpinePtr current_spine_;
  SpinePtr previous_spine_;
  std::vector<graph::Edge> overlap_base_;  // current ∪ previous (T >= 2)
  std::vector<graph::Edge> fresh_edges_;  // volatile-edge scratch
  std::vector<std::uint64_t> fresh_keys_;  // packed volatile draws pre-sort
  graph::RoundComposition comp_;     // last built round's structure
  std::int64_t comp_round_ = -1;     // round comp_ describes
  // The era prep's outputs, moved in (spine) and swapped in (overlap base,
  // whose spare buffer the next prep refills) when the prep is joined.
  SpinePtr prep_spine_;
  std::vector<graph::Edge> prep_overlap_;
  std::int64_t prep_era_ = -1;   // era whose prep is on prep_lane_, or -1
  std::int64_t prep_bytes_ = 0;  // what BufferBytes charges for the prep
  // Declared after every member the prep writes, so destroying the
  // adversary joins an in-flight prep before those members go away.
  util::AuxLane prep_lane_;
};

}  // namespace sdn::adversary
