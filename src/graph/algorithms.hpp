// Classic graph algorithms used by generators, validators and metrics.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/check.hpp"

namespace sdn::graph {

/// Disjoint-set union with union-by-size and path halving. Find/Union are
/// inline: the connected-generator hot loop calls Union once per candidate
/// edge, where an out-of-line call costs as much as the find itself.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n);

  /// Reinitializes to n singleton sets, reusing the existing buffers when
  /// large enough (the streaming T-interval checker re-runs scratch
  /// union-finds every era; reallocating per use would dominate).
  void Reset(std::size_t n);

  NodeId Find(NodeId x) {
    SDN_CHECK(x >= 0 && static_cast<std::size_t>(x) < parent_.size());
    while (parent_[static_cast<std::size_t>(x)] != x) {
      const NodeId grand = parent_[static_cast<std::size_t>(
          parent_[static_cast<std::size_t>(x)])];
      parent_[static_cast<std::size_t>(x)] = grand;
      x = grand;
    }
    return x;
  }

  /// Returns true if x and y were in different sets (i.e. a merge happened).
  bool Union(NodeId x, NodeId y) {
    NodeId rx = Find(x);
    NodeId ry = Find(y);
    if (rx == ry) return false;
    if (size_[static_cast<std::size_t>(rx)] <
        size_[static_cast<std::size_t>(ry)]) {
      std::swap(rx, ry);
    }
    parent_[static_cast<std::size_t>(ry)] = rx;
    size_[static_cast<std::size_t>(rx)] += size_[static_cast<std::size_t>(ry)];
    --components_;
    return true;
  }

  [[nodiscard]] std::size_t num_components() const { return components_; }

  /// Byte footprint of the owned buffers (memory-budget gauges).
  [[nodiscard]] std::int64_t ApproxBytes() const {
    return static_cast<std::int64_t>(parent_.capacity() * sizeof(NodeId) +
                                     size_.capacity() * sizeof(std::int32_t));
  }

 private:
  std::vector<NodeId> parent_;
  std::vector<std::int32_t> size_;
  std::size_t components_ = 0;
};

/// BFS hop distances from `source`; unreachable nodes get -1.
std::vector<std::int32_t> BfsDistances(const Graph& g, NodeId source);

bool IsConnected(const Graph& g);

/// Component label per node (labels are representative node ids, dense order
/// of first appearance is NOT guaranteed).
std::vector<NodeId> ComponentLabels(const Graph& g);

/// Max BFS distance from `source` to any node; -1 if g is disconnected.
std::int32_t Eccentricity(const Graph& g, NodeId source);

/// Exact diameter via all-sources BFS (O(N·E) — fine at simulator scales);
/// -1 if disconnected, 0 for a single node.
std::int32_t Diameter(const Graph& g);

/// Edges of a BFS spanning tree rooted at `root`.
/// Returns nullopt if g is disconnected.
std::optional<std::vector<Edge>> BfsSpanningTree(const Graph& g, NodeId root);

/// Number of edges in a maximal spanning forest (n - #components).
std::int64_t SpanningForestSize(const Graph& g);

}  // namespace sdn::graph
