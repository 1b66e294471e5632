#include "adversary/adaptive.hpp"

#include <algorithm>
#include <numeric>
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

std::vector<graph::Edge> AdaptiveSortPathAdversary::BuildSortedPath(
    const net::AdversaryView& view) {
  std::vector<graph::NodeId> order(static_cast<std::size_t>(n_));
  std::iota(order.begin(), order.end(), graph::NodeId{0});
  // Random shuffle first so equal-state nodes land in random positions.
  rng_.Shuffle(std::span<graph::NodeId>(order));
  std::stable_sort(order.begin(), order.end(),
                   [&](graph::NodeId a, graph::NodeId b) {
                     const double sa = view.PublicState(a);
                     const double sb = view.PublicState(b);
                     return descending_ ? sa > sb : sa < sb;
                   });
  std::vector<graph::Edge> edges;
  edges.reserve(order.size());
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    edges.emplace_back(order[i], order[i + 1]);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
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
    previous_spine_ = std::move(current_spine_);
    current_spine_ = BuildSortedPath(view);
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
