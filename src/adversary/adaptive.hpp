// Adaptive adversary.
//
// Reads the algorithm's published per-node state at each era boundary and
// rebuilds its spine as a path sorted by that state: nodes that have learned
// the most are packed next to each other at one end, so each window moves
// information into the uninformed mass as slowly as the promise allows.
// This is the simulation-level analogue of the "spooling" arguments behind
// the Ω(N) lower-bound constructions, and the stress test for the hjswy
// verification machinery (experiment F7).
//
// Era/overlap structure is the same as StableSpineAdversary, so the
// T-interval promise holds by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "net/adversary.hpp"
#include "util/rng.hpp"

namespace sdn::adversary {

class AdaptiveSortPathAdversary final : public net::Adversary {
 public:
  /// `descending`: most-informed nodes at the low end of the path (default)
  /// — ties broken uniformly at random.
  AdaptiveSortPathAdversary(graph::NodeId n, int T, std::uint64_t seed,
                            bool descending = true);

  [[nodiscard]] graph::NodeId num_nodes() const override { return n_; }
  [[nodiscard]] int interval() const override { return t_; }
  graph::Graph TopologyFor(std::int64_t round,
                           const net::AdversaryView& view) override;
  /// Fastest path: the full round list straight into the caller's buffer —
  /// no Graph build, no diff. Adaptive topologies cannot be prefetched, so
  /// this is the one lever that shortens their critical path. It never
  /// declines, so the engine never calls DeltaFor here; direct DeltaFor
  /// callers get the base class's TopologyFor + diff.
  bool RoundEdgesInto(std::int64_t round, const net::AdversaryView& view,
                      std::vector<graph::Edge>& out) override;
  [[nodiscard]] std::string name() const override;
  /// Samples PublicState at era boundaries — topology prefetch would let it
  /// observe mid-round state, so the engine must call it synchronously.
  [[nodiscard]] bool oblivious() const override { return false; }

 private:
  /// Writes into `out` the sorted edge list of a fresh state-sorted path.
  void BuildSortedPath(const net::AdversaryView& view,
                       std::vector<graph::Edge>& out);
  /// Advances the era state machine and fills `out` with round's sorted,
  /// deduplicated edge list (spine, plus the previous era's spine during
  /// the first T-1 rounds of an era).
  void BuildRoundEdges(std::int64_t round, const net::AdversaryView& view,
                       std::vector<graph::Edge>& out);

  graph::NodeId n_;
  int t_;
  bool descending_;
  util::Rng rng_;
  std::int64_t era_length_;
  std::int64_t current_era_ = -1;
  std::vector<graph::Edge> current_spine_;   // sorted
  std::vector<graph::Edge> previous_spine_;  // sorted; meaningful era >= 1
  // Era-build scratch, reused every era.
  struct Ranked {
    double state;  // the node's PublicState at the era boundary
    graph::NodeId node;
  };
  std::vector<Ranked> ranked_;          // path order once sorted
  std::vector<std::size_t> position_;   // path position per node
};

}  // namespace sdn::adversary
