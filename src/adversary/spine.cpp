#include "adversary/spine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <vector>

#include "graph/generators.hpp"
#include "util/check.hpp"

namespace sdn::adversary {

namespace {

/// Applies a uniform random relabeling to g's nodes.
graph::Graph Relabel(const graph::Graph& g, util::Rng& rng) {
  const graph::NodeId n = g.num_nodes();
  std::vector<graph::NodeId> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), graph::NodeId{0});
  rng.Shuffle(std::span<graph::NodeId>(perm));
  std::vector<graph::Edge> edges;
  edges.reserve(static_cast<std::size_t>(g.num_edges()));
  for (const graph::Edge& e : g.Edges()) {
    edges.emplace_back(perm[static_cast<std::size_t>(e.u)],
                       perm[static_cast<std::size_t>(e.v)]);
  }
  return graph::Graph(n, edges);
}

graph::Graph MakePathOfCliques(graph::NodeId n, graph::NodeId clique_size) {
  SDN_CHECK(clique_size >= 1);
  const graph::NodeId size = std::min(clique_size, n);
  const graph::NodeId full = n / size;
  const graph::NodeId remainder = n - full * size;
  graph::Graph base = graph::PathOfCliques(std::max<graph::NodeId>(full, 1), size);
  if (remainder == 0 && full >= 1) return base;
  // Absorb leftover nodes into a ragged final clique chained to the rest.
  std::vector<graph::Edge> edges(base.Edges().begin(), base.Edges().end());
  const graph::NodeId base_n = base.num_nodes();
  for (graph::NodeId u = base_n; u < n; ++u) {
    for (graph::NodeId v = std::max<graph::NodeId>(base_n, u - size); v < u; ++v) {
      edges.emplace_back(u, v);
    }
    if (u == base_n && base_n > 0) edges.emplace_back(u, base_n - 1);
  }
  return graph::Graph(n, edges);
}

}  // namespace

std::string SpineSpec::Name() const {
  std::ostringstream os;
  switch (kind) {
    case SpineKind::kPath:
      os << "path";
      break;
    case SpineKind::kStar:
      os << "star";
      break;
    case SpineKind::kBinaryTree:
      os << "btree";
      break;
    case SpineKind::kRandomTree:
      os << "rtree";
      break;
    case SpineKind::kGnp:
      os << "gnp";
      if (gnp_p > 0.0) os << "(p=" << gnp_p << ")";
      break;
    case SpineKind::kExpander:
      os << "expander(c=" << expander_cycles << ")";
      break;
    case SpineKind::kPathOfCliques:
      os << "cliques(m=" << clique_size << ")";
      break;
  }
  return os.str();
}

graph::Graph MakeSpine(const SpineSpec& spec, graph::NodeId n, util::Rng& rng) {
  SDN_CHECK(n >= 1);
  switch (spec.kind) {
    case SpineKind::kPath:
      return Relabel(graph::Path(n), rng);
    case SpineKind::kStar:
      return Relabel(graph::Star(n), rng);
    case SpineKind::kBinaryTree:
      return Relabel(graph::BinaryTree(n), rng);
    case SpineKind::kRandomTree:
      return graph::RandomTree(n, rng);
    case SpineKind::kGnp: {
      const double p = spec.gnp_p > 0.0
                           ? spec.gnp_p
                           : std::min(1.0, 2.0 * std::log(static_cast<double>(
                                                std::max<graph::NodeId>(n, 2))) /
                                               static_cast<double>(n));
      return graph::ConnectedGnp(n, p, rng);
    }
    case SpineKind::kExpander:
      if (n < 3) return graph::Path(n);
      return graph::RandomExpander(n, spec.expander_cycles, rng);
    case SpineKind::kPathOfCliques:
      return Relabel(MakePathOfCliques(n, spec.clique_size), rng);
  }
  SDN_CHECK_MSG(false, "unknown spine kind");
  return graph::Graph(n);
}

std::vector<graph::Edge> MakeSpineEdges(const SpineSpec& spec, graph::NodeId n,
                                        util::Rng& rng) {
  SDN_CHECK(n >= 1);
  if (spec.kind == SpineKind::kGnp) {
    const double p = spec.gnp_p > 0.0
                         ? spec.gnp_p
                         : std::min(1.0, 2.0 * std::log(static_cast<double>(
                                              std::max<graph::NodeId>(n, 2))) /
                                             static_cast<double>(n));
    return graph::ConnectedGnpEdges(n, p, rng);
  }
  const graph::Graph g = MakeSpine(spec, n, rng);
  return {g.Edges().begin(), g.Edges().end()};
}

}  // namespace sdn::adversary
