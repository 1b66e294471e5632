#include "graph/graph.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace sdn::graph {

namespace {

bool InitVerifySortedEdges() {
  if (const char* env = std::getenv("SDN_VERIFY_SORTED")) {
    return env[0] != '0';
  }
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

std::atomic<bool> g_verify_sorted{InitVerifySortedEdges()};

}  // namespace

void SetVerifySortedEdges(bool on) {
  g_verify_sorted.store(on, std::memory_order_relaxed);
}

bool VerifySortedEdges() {
  return g_verify_sorted.load(std::memory_order_relaxed);
}

Graph::Graph(NodeId n) : n_(n) {
  SDN_CHECK(n >= 0);
  BuildAdjacency();
}

Graph::Graph(NodeId n, std::span<const Edge> edges)
    : n_(n), edges_(edges.begin(), edges.end()) {
  SDN_CHECK(n >= 0);
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  BuildAdjacency();
}

Graph::Graph(NodeId n, std::vector<Edge> edges, SortedEdges)
    : n_(n), edges_(std::move(edges)) {
  SDN_CHECK(n >= 0);
  // The sortedness scan is optional (VerifySortedEdges — debug/test builds);
  // the range check inside the CSR fill always runs because an out-of-range
  // edge would corrupt the fill, not just mislabel a neighbor.
  if (VerifySortedEdges()) {
    SDN_CHECK_MSG(std::is_sorted(edges_.begin(), edges_.end()),
                  "SortedEdges constructor given an unsorted edge list");
  }
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  BuildAdjacency();
}

int CsrBuilder::Chunks(std::int64_t edges) {
  return static_cast<int>(std::clamp<std::int64_t>(
      (edges + kChunkEdges - 1) / kChunkEdges, 1, kMaxChunks));
}

void CsrBuilder::Build(NodeId n, std::span<const Edge> edges,
                       std::vector<std::int64_t>& offsets,
                       std::vector<NodeId>& adjacency,
                       util::ThreadPool* pool) {
  const auto un = static_cast<std::size_t>(n);
  const auto n32 = static_cast<std::uint32_t>(n);
  const auto m = static_cast<std::int64_t>(edges.size());
  const int chunks = Chunks(m);
  // Runs fn over the `chunks` slices [total·c/chunks, total·(c+1)/chunks)
  // of [0, total): pooled when there is more than one, else inline in
  // slice order. Every slice of the edge list is non-empty (a multi-chunk
  // list has more than kChunkEdges edges), so each row gets its count pass.
  const auto for_slices = [&](std::int64_t total, const auto& fn) {
    if (pool != nullptr && chunks > 1) {
      pool->ParallelFor(total, chunks, pool->lanes(), fn);
      return;
    }
    for (int c = 0; c < chunks; ++c) {
      fn(c, total * c / chunks, total * (c + 1) / chunks);
    }
  };
  cursor_.resize(static_cast<std::size_t>(chunks) * un);
  const auto row = [&](int c) {
    return cursor_.data() + static_cast<std::size_t>(c) * un;
  };

  // 1. Per chunk: range-check and count both endpoints into the chunk's row.
  //    Nothing but the scratch rows is written until every chunk passed.
  for_slices(m, [&](int c, std::int64_t begin, std::int64_t end) {
    std::int64_t* counts = row(c);
    std::fill(counts, counts + un, 0);
    for (std::int64_t i = begin; i < end; ++i) {
      const Edge& e = edges[static_cast<std::size_t>(i)];
      // Unsigned compares also reject negative ids on either end.
      SDN_CHECK_MSG(static_cast<std::uint32_t>(e.u) < n32 &&
                        static_cast<std::uint32_t>(e.v) < n32,
                    "edge (" << e.u << "," << e.v
                             << ") out of range for n=" << n);
      ++counts[static_cast<std::size_t>(e.u)];
      ++counts[static_cast<std::size_t>(e.v)];
    }
  });

  // 2. Per node range: its endpoint total; an exclusive scan over the
  //    ranges gives each range's first offset.
  std::array<std::int64_t, kMaxChunks + 1> range_base{};
  for_slices(n, [&](int r, std::int64_t w0, std::int64_t w1) {
    std::int64_t total = 0;
    for (int c = 0; c < chunks; ++c) {
      const std::int64_t* counts = row(c);
      for (std::int64_t w = w0; w < w1; ++w) total += counts[w];
    }
    range_base[static_cast<std::size_t>(r) + 1] = total;
  });
  for (int r = 0; r < chunks; ++r) {
    range_base[static_cast<std::size_t>(r) + 1] +=
        range_base[static_cast<std::size_t>(r)];
  }

  // 3. Per node range: offsets, and each chunk's start cursor in bucket w
  //    (the bucket's offset plus the counts of the chunks before it).
  offsets.resize(un + 1);
  offsets[0] = 0;
  adjacency.resize(edges.size() * 2);
  for_slices(n, [&](int r, std::int64_t w0, std::int64_t w1) {
    std::int64_t at = range_base[static_cast<std::size_t>(r)];
    for (std::int64_t w = w0; w < w1; ++w) {
      for (int c = 0; c < chunks; ++c) {
        std::int64_t& cursor = row(c)[w];
        const std::int64_t count = cursor;
        cursor = at;
        at += count;
      }
      offsets[static_cast<std::size_t>(w) + 1] = at;
    }
  });

  // 4. Per chunk: two ordered passes over its edges. Bucket w receives the
  //    u-values of edges with v == w (all < w, ascending because u is the
  //    primary sort key), then the v-values of edges with u == w (all > w,
  //    ascending within the contiguous u == w run). In edge order every
  //    v == w edge precedes every u == w edge, so concatenating the chunks'
  //    runs in chunk order reproduces the single-chunk fill byte for byte.
  NodeId* const adj = adjacency.data();
  for_slices(m, [&](int c, std::int64_t begin, std::int64_t end) {
    std::int64_t* cursor = row(c);
    for (std::int64_t i = begin; i < end; ++i) {
      const Edge& e = edges[static_cast<std::size_t>(i)];
      adj[cursor[static_cast<std::size_t>(e.v)]++] = e.u;
    }
    for (std::int64_t i = begin; i < end; ++i) {
      const Edge& e = edges[static_cast<std::size_t>(i)];
      adj[cursor[static_cast<std::size_t>(e.u)]++] = e.v;
    }
  });
}

void Graph::BuildAdjacency() {
  CsrBuilder().Build(n_, edges_, offsets_, adjacency_, nullptr);
}

std::span<const NodeId> Graph::Neighbors(NodeId u) const {
  SDN_CHECK(u >= 0 && u < n_);
  const auto begin = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(u)]);
  const auto end = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(u) + 1]);
  return {adjacency_.data() + begin, end - begin};
}

NodeId Graph::Degree(NodeId u) const {
  return static_cast<NodeId>(Neighbors(u).size());
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  if (u == v) return false;
  const auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

Graph Graph::WithEdges(std::span<const Edge> extra) const {
  std::vector<Edge> merged(edges_);
  merged.insert(merged.end(), extra.begin(), extra.end());
  return Graph(n_, merged);
}

Graph EdgeIntersection(std::span<const Graph> graphs) {
  SDN_CHECK(!graphs.empty());
  const NodeId n = graphs[0].num_nodes();
  for (const Graph& g : graphs) {
    SDN_CHECK_MSG(g.num_nodes() == n, "EdgeIntersection on mismatched sizes");
  }
  std::vector<Edge> common(graphs[0].Edges().begin(), graphs[0].Edges().end());
  std::vector<Edge> next;
  for (std::size_t i = 1; i < graphs.size() && !common.empty(); ++i) {
    next.clear();
    const auto other = graphs[i].Edges();
    std::set_intersection(common.begin(), common.end(), other.begin(),
                          other.end(), std::back_inserter(next));
    common.swap(next);
  }
  return Graph(n, common);
}

}  // namespace sdn::graph
