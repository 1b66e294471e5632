#include "graph/algorithms.hpp"

#include <algorithm>
#include <queue>

#include "util/check.hpp"

namespace sdn::graph {

UnionFind::UnionFind(std::size_t n)
    : parent_(n), size_(n, 1), components_(n) {
  for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<NodeId>(i);
}

void UnionFind::Reset(std::size_t n) {
  parent_.resize(n);
  size_.assign(n, 1);
  components_ = n;
  for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<NodeId>(i);
}

std::vector<std::int32_t> BfsDistances(const Graph& g, NodeId source) {
  SDN_CHECK(source >= 0 && source < g.num_nodes());
  std::vector<std::int32_t> dist(static_cast<std::size_t>(g.num_nodes()), -1);
  std::queue<NodeId> frontier;
  dist[static_cast<std::size_t>(source)] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const NodeId v : g.Neighbors(u)) {
      if (dist[static_cast<std::size_t>(v)] < 0) {
        dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

bool IsConnected(const Graph& g) {
  if (g.num_nodes() <= 1) return true;
  const auto dist = BfsDistances(g, 0);
  return std::all_of(dist.begin(), dist.end(), [](std::int32_t d) { return d >= 0; });
}

std::vector<NodeId> ComponentLabels(const Graph& g) {
  UnionFind uf(static_cast<std::size_t>(g.num_nodes()));
  for (const Edge& e : g.Edges()) uf.Union(e.u, e.v);
  std::vector<NodeId> labels(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    labels[static_cast<std::size_t>(u)] = uf.Find(u);
  }
  return labels;
}

std::int32_t Eccentricity(const Graph& g, NodeId source) {
  const auto dist = BfsDistances(g, source);
  std::int32_t ecc = 0;
  for (const std::int32_t d : dist) {
    if (d < 0) return -1;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::int32_t Diameter(const Graph& g) {
  if (g.num_nodes() == 0) return 0;
  std::int32_t diam = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const std::int32_t ecc = Eccentricity(g, u);
    if (ecc < 0) return -1;
    diam = std::max(diam, ecc);
  }
  return diam;
}

std::optional<std::vector<Edge>> BfsSpanningTree(const Graph& g, NodeId root) {
  SDN_CHECK(root >= 0 && root < g.num_nodes());
  std::vector<bool> seen(static_cast<std::size_t>(g.num_nodes()), false);
  std::vector<Edge> tree;
  std::queue<NodeId> frontier;
  seen[static_cast<std::size_t>(root)] = true;
  frontier.push(root);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const NodeId v : g.Neighbors(u)) {
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = true;
        tree.emplace_back(u, v);
        frontier.push(v);
      }
    }
  }
  if (!std::all_of(seen.begin(), seen.end(), [](bool b) { return b; })) {
    return std::nullopt;
  }
  return tree;
}

std::int64_t SpanningForestSize(const Graph& g) {
  UnionFind uf(static_cast<std::size_t>(g.num_nodes()));
  for (const Edge& e : g.Edges()) uf.Union(e.u, e.v);
  return g.num_nodes() - static_cast<std::int64_t>(uf.num_components());
}

}  // namespace sdn::graph
