// Immutable undirected graph on nodes [0, N).
//
// This is the per-round topology type the adversary hands to the engine.
// Adjacency is stored sorted so neighbor iteration is deterministic and
// edge-set operations (intersection across a T-window) are linear merges.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace sdn::util {
class ThreadPool;
}  // namespace sdn::util

namespace sdn::graph {

using NodeId = std::int32_t;

/// Undirected edge with the invariant u < v (normalized on construction).
struct Edge {
  NodeId u = 0;
  NodeId v = 0;

  Edge() = default;
  /// Inline: constructed once per generated edge in the topology hot loops.
  Edge(NodeId a, NodeId b) : u(std::min(a, b)), v(std::max(a, b)) {
    SDN_CHECK_MSG(a != b, "self-loop at node " << a);
  }

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Toggles the O(E) sortedness scan in the `Graph::SortedEdges` constructor.
/// Default: on in debug builds, off under NDEBUG; the SDN_VERIFY_SORTED
/// environment variable ("0"/"1", read once at startup) overrides either
/// way. Engine-internal callers construct from lists that are sorted by
/// construction, so release builds skip the scan; tests flip it on.
void SetVerifySortedEdges(bool on);
[[nodiscard]] bool VerifySortedEdges();

/// The one CSR fill behind Graph and DynGraph: a stable counting sort of
/// the 2|E| edge endpoints into per-node buckets. The edge list is cut into
/// Chunks(|E|) contiguous chunks; each chunk counts its endpoints into its
/// own row of fill cursors, a prefix over (node, chunk) turns the rows into
/// start cursors, and each chunk then scatters its edges, v-side entries
/// first, then u-side. For a (u,v)-sorted list every bucket comes out
/// sorted, and the bytes are the same with or without a pool at any lane
/// count, because the chunk boundaries depend on |E| alone. With a pool the
/// chunks run on every lane; without one they run inline in chunk order.
class CsrBuilder {
 public:
  /// A list of at most this many edges is one chunk (the serial fill).
  static constexpr std::int64_t kChunkEdges = std::int64_t{1} << 16;
  /// Chunk cap: each chunk owns num_nodes fill cursors.
  static constexpr int kMaxChunks = 8;

  /// ceil(edges / kChunkEdges) clamped to [1, kMaxChunks].
  [[nodiscard]] static int Chunks(std::int64_t edges);

  /// Fills `offsets` (n+1 entries) and `adjacency` (2·|edges|) for the
  /// sorted edge list `edges` on nodes [0, n). Every edge is range-checked
  /// (CheckError) before either output is written, so a rejected list
  /// leaves both untouched. The inline (pool-less) fill allocates nothing
  /// once the buffers have grown.
  void Build(NodeId n, std::span<const Edge> edges,
             std::vector<std::int64_t>& offsets,
             std::vector<NodeId>& adjacency, util::ThreadPool* pool);

  /// Capacity of the fill cursors: Chunks(|E|)·n entries at the largest
  /// list built so far, a function of the edge counts only.
  [[nodiscard]] std::int64_t ScratchBytes() const {
    return static_cast<std::int64_t>(cursor_.capacity() *
                                     sizeof(std::int64_t));
  }

 private:
  std::vector<std::int64_t> cursor_;  // chunk-major rows of n fill cursors
};

class Graph {
 public:
  /// Tag for the pre-sorted constructor overload.
  struct SortedEdges {};

  /// Empty graph on n isolated nodes. Requires n >= 0.
  explicit Graph(NodeId n = 0);

  /// Graph on n nodes with the given edges; duplicates are collapsed and
  /// self-loops and out-of-range edges rejected (CheckError).
  Graph(NodeId n, std::span<const Edge> edges);

  /// Hot-path constructor: takes ownership of an already-sorted edge list
  /// (ascending (u,v); duplicates allowed, collapsed linearly) and skips the
  /// O(E log E) sort. Sortedness is CheckError-verified in O(E) only when
  /// VerifySortedEdges() is on (see above); the per-edge range check always
  /// runs. Used by per-round adversary topology construction.
  Graph(NodeId n, std::vector<Edge> edges, SortedEdges);

  [[nodiscard]] NodeId num_nodes() const { return n_; }
  [[nodiscard]] std::int64_t num_edges() const {
    return static_cast<std::int64_t>(edges_.size());
  }

  /// Sorted neighbor list of u.
  [[nodiscard]] std::span<const NodeId> Neighbors(NodeId u) const;

  [[nodiscard]] NodeId Degree(NodeId u) const;
  [[nodiscard]] bool HasEdge(NodeId u, NodeId v) const;

  /// Sorted, deduplicated edge list.
  [[nodiscard]] std::span<const Edge> Edges() const { return edges_; }

  /// New graph = this plus `extra` edges (duplicates fine).
  [[nodiscard]] Graph WithEdges(std::span<const Edge> extra) const;

  friend bool operator==(const Graph&, const Graph&) = default;

 private:
  /// DynGraph (graph/delta.hpp) maintains edges_/adjacency_/offsets_ in
  /// place under delta application, preserving every Graph invariant.
  friend class DynGraph;

  void BuildAdjacency();

  NodeId n_ = 0;
  std::vector<Edge> edges_;             // sorted, unique
  std::vector<NodeId> adjacency_;       // flattened CSR payload
  std::vector<std::int64_t> offsets_;   // size n_+1
};

/// Intersection of the edge sets of `graphs` (all must share num_nodes).
/// Returns the graph whose edges appear in every input — the "stable
/// subgraph" of a T-window.
Graph EdgeIntersection(std::span<const Graph> graphs);

}  // namespace sdn::graph
