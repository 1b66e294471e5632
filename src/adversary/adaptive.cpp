#include "adversary/adaptive.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "graph/delta.hpp"
#include "util/check.hpp"

namespace sdn::adversary {

AdaptiveSortPathAdversary::AdaptiveSortPathAdversary(graph::NodeId n, int T,
                                                     std::uint64_t seed,
                                                     bool descending)
    : n_(n),
      t_(T),
      descending_(descending),
      rng_(seed),
      era_length_(std::max<std::int64_t>(T, 1)) {
  SDN_CHECK(n >= 1);
  SDN_CHECK(T >= 1);
}

void AdaptiveSortPathAdversary::BuildSortedPath(
    const net::AdversaryView& view, std::vector<graph::Edge>& out) {
  const auto n = static_cast<std::size_t>(n_);
  ranked_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ranked_[i].node = static_cast<graph::NodeId>(i);
  }
  // Random shuffle first so equal-state nodes land in random positions.
  rng_.Shuffle(std::span<Ranked>(ranked_));
  // One PublicState read per node per era. The stable sort compares the
  // cached values, so it puts the nodes in the order a comparator reading
  // the view would.
  for (Ranked& x : ranked_) x.state = view.PublicState(x.node);
  if (descending_) {
    std::stable_sort(ranked_.begin(), ranked_.end(),
                     [](const Ranked& a, const Ranked& b) {
                       return a.state > b.state;
                     });
  } else {
    std::stable_sort(ranked_.begin(), ranked_.end(),
                     [](const Ranked& a, const Ranked& b) {
                       return a.state < b.state;
                     });
  }
  // The path's edges in sorted order without a sort: walking the nodes in
  // ascending id, each emits its path neighbours above it, lower first.
  // Both candidate slots are written and the cursor advances past the
  // kept ones, so the walk carries no data-dependent branch; the two
  // spare slots absorb the last node's writes.
  position_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    position_[static_cast<std::size_t>(ranked_[i].node)] = i;
  }
  out.resize(n + 1);
  graph::Edge* o = out.data();
  for (std::size_t u = 0; u < n; ++u) {
    const std::size_t i = position_[u];
    const graph::NodeId prev = i > 0 ? ranked_[i - 1].node : -1;
    const graph::NodeId next = i + 1 < n ? ranked_[i + 1].node : -1;
    const auto self = static_cast<graph::NodeId>(u);
    const graph::NodeId lo = std::min(prev, next);
    const graph::NodeId hi = std::max(prev, next);
    o->u = self;  // a kept slot has v > u, the Edge invariant
    o->v = lo;
    o += static_cast<std::ptrdiff_t>(lo > self);
    o->u = self;
    o->v = hi;
    o += static_cast<std::ptrdiff_t>(hi > self);
  }
  out.resize(static_cast<std::size_t>(o - out.data()));
}

void AdaptiveSortPathAdversary::BuildRoundEdges(std::int64_t round,
                                                const net::AdversaryView& view,
                                                std::vector<graph::Edge>& out) {
  SDN_CHECK(round >= 1);
  const std::int64_t era = (round - 1) / era_length_;
  const std::int64_t offset = (round - 1) % era_length_;
  SDN_CHECK_MSG(era >= current_era_, "rounds must be non-decreasing");
  while (current_era_ < era) {
    ++current_era_;
    // The retired era's buffer becomes the new spine's: no per-era
    // allocation once both have reached n - 1 edges.
    std::swap(previous_spine_, current_spine_);
    BuildSortedPath(view, current_spine_);
  }
  if (offset < t_ - 1 && current_era_ >= 1) {
    graph::UnionSorted(current_spine_, previous_spine_, out);
  } else {
    out.assign(current_spine_.begin(), current_spine_.end());
  }
}

graph::Graph AdaptiveSortPathAdversary::TopologyFor(
    std::int64_t round, const net::AdversaryView& view) {
  std::vector<graph::Edge> merged;
  BuildRoundEdges(round, view, merged);
  return graph::Graph(n_, std::move(merged), graph::Graph::SortedEdges{});
}

bool AdaptiveSortPathAdversary::RoundEdgesInto(std::int64_t round,
                                               const net::AdversaryView& view,
                                               std::vector<graph::Edge>& out) {
  BuildRoundEdges(round, view, out);
  return true;
}

std::string AdaptiveSortPathAdversary::name() const {
  std::ostringstream os;
  os << "adaptive-sort-path[" << (descending_ ? "desc" : "asc") << "]";
  return os.str();
}

}  // namespace sdn::adversary
