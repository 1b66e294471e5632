// Round-over-round topology deltas and the incremental graph they drive.
//
// The T-interval model guarantees consecutive rounds share a stable connected
// subgraph, so the edge sets of rounds r and r+1 differ by a small delta by
// construction. This header is the hot-path representation of that fact:
// instead of rebuilding a `Graph` from scratch every round, the engine keeps
// one `DynGraph` and applies a `TopologyDelta` in place.
//
// Delta contract (enforced by `DynGraph::Apply`, spelled out in DESIGN.md):
//   * `added` and `removed` are sorted ascending and duplicate-free;
//   * they are disjoint (an edge flips at most once per round);
//   * no self-loops (guaranteed by the `Edge` constructor invariant);
//   * every `removed` edge is present in the graph the delta applies to, and
//     no `added` edge is.
// A violated contract throws CheckError — a buggy adversary cannot silently
// desynchronize the incremental topology from its from-scratch meaning.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace sdn::graph {

/// Sorted edge-set difference between two consecutive rounds' topologies.
struct TopologyDelta {
  std::vector<Edge> added;
  std::vector<Edge> removed;

  [[nodiscard]] bool empty() const { return added.empty() && removed.empty(); }
  /// Total number of edge flips.
  [[nodiscard]] std::int64_t size() const {
    return static_cast<std::int64_t>(added.size() + removed.size());
  }
  void clear() {
    added.clear();
    removed.clear();
  }

  friend bool operator==(const TopologyDelta&, const TopologyDelta&) = default;
};

/// Writes into `out` the delta turning sorted edge list `from` into sorted
/// edge list `to` (one linear merge walk; `out`'s capacity is reused).
/// Both inputs must be sorted and duplicate-free.
void DiffSorted(std::span<const Edge> from, std::span<const Edge> to,
                TopologyDelta& out);

/// Delta turning `from` into `to` (graphs must share num_nodes; CheckError).
TopologyDelta Diff(const Graph& from, const Graph& to);

/// Writes into `out` the sorted-unique union of sorted-unique edge lists `a`
/// and `b` (`out`'s capacity is reused; `out` must not alias an input). The
/// merge step is branch-free — adversaries call this once per era on two
/// full spines whose interleaving is random, where a compare-and-branch
/// merge spends most of its time in branch mispredictions.
void UnionSorted(std::span<const Edge> a, std::span<const Edge> b,
                 std::vector<Edge>& out);

/// CheckError unless `delta` satisfies the contract above for an n-node
/// graph (sorted, unique, disjoint, in range). Presence/absence against a
/// concrete graph is checked by `DynGraph::Apply` itself.
void CheckDeltaWellFormed(const TopologyDelta& delta, NodeId n);

/// A mutable dynamic graph: one `Graph` maintained under in-place delta
/// application. `Apply` patches the sorted edge list with chunked copies
/// (O(|Δ| log E) decision points plus the bytes moved) for sparse deltas and
/// falls back to one linear merge pass when the delta is dense (lower_bound
/// per flip would then cost more than the walk it skips), then refills the
/// CSR adjacency of the view with a CsrBuilder — on every lane of `pool`
/// when one is given, with identical bytes either way; an empty
/// delta returns the cached view in O(1). The returned reference stays
/// valid (and its contents stable) until the next Apply/Reset — exactly the
/// engine's "topology of the round being executed" lifetime.
class DynGraph {
 public:
  /// Empty graph on n isolated nodes.
  explicit DynGraph(NodeId n = 0);
  /// Starts from an existing graph.
  explicit DynGraph(Graph g);

  [[nodiscard]] NodeId num_nodes() const { return g_.num_nodes(); }

  /// The current topology as an immutable view.
  [[nodiscard]] const Graph& View() const { return g_; }

  /// Applies `delta` in place and returns the updated view. CheckError on a
  /// contract violation (unsorted/overlapping lists, removing an absent
  /// edge, adding a present one); the graph is unchanged on failure.
  const Graph& Apply(const TopologyDelta& delta,
                     util::ThreadPool* pool = nullptr);

  /// Replaces the current topology wholesale (keyframe recovery / reuse
  /// across runs). Buffer capacity is retained.
  void Reset(const Graph& g);
  void Reset(NodeId n);

  /// Direct-assignment fast path, paired with `CommitEdges`: expose the
  /// internal scratch buffer for a producer (Adversary::RoundEdgesInto) to
  /// fill with the next round's complete sorted-unique edge list. The
  /// buffer's contents on entry are unspecified; the current View() is
  /// untouched until CommitEdges, so an abandoned edit (producer returned
  /// false) costs nothing.
  [[nodiscard]] std::vector<Edge>& EditBuffer() { return scratch_edges_; }

  /// Swaps the filled EditBuffer in as the new topology and rebuilds the
  /// CSR adjacency, pooled like Apply. Edges are always range-checked — a
  /// CheckError leaves View() untouched; the sorted/unique scan is gated on
  /// VerifySortedEdges() like the SortedEdges Graph constructor.
  const Graph& CommitEdges(util::ThreadPool* pool = nullptr);

  /// Byte footprint of the maintenance scratch (edit double buffer, CSR
  /// fill cursors) — the allocation the View() itself does not show.
  /// Capacities only, a pure function of the applied edge-count stream
  /// (never of the pool); surfaced by the engine as the "topology_scratch"
  /// memory gauge.
  [[nodiscard]] std::int64_t ScratchBytes() const {
    return static_cast<std::int64_t>(scratch_edges_.capacity() *
                                     sizeof(Edge)) +
           csr_.ScratchBytes();
  }

 private:
  Graph g_;
  std::vector<Edge> scratch_edges_;  // double buffer for the merge pass
  CsrBuilder csr_;                   // CSR fill cursors
};

}  // namespace sdn::graph
