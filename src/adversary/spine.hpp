// Spine specifications: the connected spanning subgraphs adversaries keep
// stable inside an era. The spine family controls the dynamic flooding time d
// of the run (expander/Gnp spines -> d = O(log N); path spine -> d = Θ(N);
// path-of-cliques -> d dialed by the clique count), which is how experiments
// separate the d- and N-dependence of each algorithm.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace sdn::adversary {

enum class SpineKind {
  kPath,
  kStar,
  kBinaryTree,
  kRandomTree,
  kGnp,
  kExpander,
  kPathOfCliques,
};

struct SpineSpec {
  SpineKind kind = SpineKind::kExpander;
  /// Gnp edge probability; <= 0 means the default 2·ln(n)/n.
  double gnp_p = 0.0;
  /// Hamiltonian cycles unioned for kExpander.
  int expander_cycles = 2;
  /// Clique size for kPathOfCliques (node count must divide accordingly;
  /// a ragged final clique absorbs the remainder).
  graph::NodeId clique_size = 8;

  [[nodiscard]] std::string Name() const;
};

/// Builds one connected spanning spine on n nodes. Randomized kinds draw
/// from `rng`; deterministic kinds (path/star/tree/cliques) apply a random
/// node relabeling so eras differ even for fixed shapes.
graph::Graph MakeSpine(const SpineSpec& spec, graph::NodeId n, util::Rng& rng);

/// Sorted-unique edge list of MakeSpine — identical RNG draws and edge set.
/// The hot-path variant for adversaries that assemble rounds from lists and
/// never touch the spine's own CSR adjacency (kGnp skips building it).
std::vector<graph::Edge> MakeSpineEdges(const SpineSpec& spec, graph::NodeId n,
                                        util::Rng& rng);

}  // namespace sdn::adversary
