#include "graph/delta.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace sdn::graph {

void DiffSorted(std::span<const Edge> from, std::span<const Edge> to,
                TopologyDelta& out) {
  out.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < from.size() && j < to.size()) {
    if (from[i] < to[j]) {
      out.removed.push_back(from[i++]);
    } else if (to[j] < from[i]) {
      out.added.push_back(to[j++]);
    } else {
      ++i;
      ++j;
    }
  }
  out.removed.insert(out.removed.end(), from.begin() + static_cast<std::ptrdiff_t>(i),
                     from.end());
  out.added.insert(out.added.end(), to.begin() + static_cast<std::ptrdiff_t>(j),
                   to.end());
}

TopologyDelta Diff(const Graph& from, const Graph& to) {
  SDN_CHECK_MSG(from.num_nodes() == to.num_nodes(),
                "Diff on mismatched node counts: " << from.num_nodes() << " vs "
                                                   << to.num_nodes());
  TopologyDelta out;
  DiffSorted(from.Edges(), to.Edges(), out);
  return out;
}

namespace {

/// Edge as one 64-bit key preserving (u,v) lexicographic order (both fields
/// are non-negative 31-bit values), so a merge decision is a single compare.
std::uint64_t EdgeKey(const Edge& e) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.u)) << 32) |
         static_cast<std::uint32_t>(e.v);
}

}  // namespace

void UnionSorted(std::span<const Edge> a, std::span<const Edge> b,
                 std::vector<Edge>& out) {
  out.resize(a.size() + b.size());
  const Edge* pa = a.data();
  const Edge* const ae = pa + a.size();
  const Edge* pb = b.data();
  const Edge* const be = pb + b.size();
  Edge* o = out.data();
  // Both inputs are sorted-unique, so duplicates only occur across the
  // lists; on a tie both sides advance and the element is written once.
  // The selects compile to conditional moves — the interleaving of two
  // independently generated spines is random, so a branch here would
  // mispredict roughly every other element.
  while (pa != ae && pb != be) {
    const std::uint64_t ka = EdgeKey(*pa);
    const std::uint64_t kb = EdgeKey(*pb);
    *o++ = ka <= kb ? *pa : *pb;
    pa += static_cast<std::ptrdiff_t>(ka <= kb);
    pb += static_cast<std::ptrdiff_t>(kb <= ka);
  }
  o = std::copy(pa, ae, o);
  o = std::copy(pb, be, o);
  out.resize(static_cast<std::size_t>(o - out.data()));
}

namespace {

void CheckSortedUniqueInRange(std::span<const Edge> edges, NodeId n,
                              const char* which) {
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    SDN_CHECK_MSG(e.u >= 0 && e.v < n, "delta " << which << " edge (" << e.u
                                                << "," << e.v
                                                << ") out of range for n=" << n);
    SDN_CHECK_MSG(i == 0 || edges[i - 1] < e,
                  "delta " << which << " list not sorted/unique at index " << i);
  }
}

}  // namespace

void CheckDeltaWellFormed(const TopologyDelta& delta, NodeId n) {
  CheckSortedUniqueInRange(delta.added, n, "added");
  CheckSortedUniqueInRange(delta.removed, n, "removed");
  // Disjointness: one merge walk over the two sorted lists.
  std::size_t a = 0;
  std::size_t r = 0;
  while (a < delta.added.size() && r < delta.removed.size()) {
    if (delta.added[a] < delta.removed[r]) {
      ++a;
    } else if (delta.removed[r] < delta.added[a]) {
      ++r;
    } else {
      SDN_CHECK_MSG(false, "delta adds and removes the same edge ("
                               << delta.added[a].u << "," << delta.added[a].v
                               << ")");
    }
  }
}

DynGraph::DynGraph(NodeId n) : g_(n) {}

DynGraph::DynGraph(Graph g) : g_(std::move(g)) {}

void DynGraph::Reset(const Graph& g) { g_ = g; }

void DynGraph::Reset(NodeId n) { g_ = Graph(n); }

const Graph& DynGraph::Apply(const TopologyDelta& delta,
                             util::ThreadPool* pool) {
  if (delta.empty()) return g_;
  CheckDeltaWellFormed(delta, g_.num_nodes());

  // Patch the sorted edge list into the double buffer. All contract checks
  // happen before any member other than the scratch buffer mutates, so a
  // CheckError leaves the graph exactly as it was. Two strategies by delta
  // density: sparse deltas block-copy the untouched runs between flips
  // (O(|Δ| log E) decision points plus the bytes moved); dense deltas — a
  // high-churn adversary swapping most of the graph — take one linear merge
  // walk instead, where a lower_bound per flip would cost more than the walk
  // it skips.
  const std::vector<Edge>& old = g_.edges_;
  scratch_edges_.clear();
  scratch_edges_.reserve(old.size() + delta.added.size());
  if (delta.size() * 8 >= static_cast<std::int64_t>(old.size())) {
    const Edge* o = old.data();
    const Edge* const oe = o + old.size();
    const Edge* ad = delta.added.data();
    const Edge* const ade = ad + delta.added.size();
    const Edge* rm = delta.removed.data();
    const Edge* const rme = rm + delta.removed.size();
    while (o != oe || ad != ade) {
      if (ad != ade && (o == oe || *ad < *o)) {
        scratch_edges_.push_back(*ad++);
        continue;
      }
      if (rm != rme && *rm == *o) {
        ++rm;
        ++o;
        continue;
      }
      SDN_CHECK_MSG(rm == rme || *o < *rm,
                    "delta removes edge (" << rm->u << "," << rm->v
                                           << ") not present");
      SDN_CHECK_MSG(ad == ade || !(*ad == *o),
                    "delta adds edge (" << ad->u << "," << ad->v
                                        << ") already present");
      scratch_edges_.push_back(*o++);
    }
    // Message only renders on failure, where rm != rme holds.
    SDN_CHECK_MSG(rm == rme, "delta removes edge (" << rm->u << "," << rm->v
                                                    << ") not present");
  } else {
    std::size_t i = 0;
    std::size_t a = 0;
    std::size_t r = 0;
    while (a < delta.added.size() || r < delta.removed.size()) {
      const bool take_add =
          a < delta.added.size() &&
          (r == delta.removed.size() || delta.added[a] < delta.removed[r]);
      const Edge ev = take_add ? delta.added[a] : delta.removed[r];
      const auto run_end =
          std::lower_bound(old.begin() + static_cast<std::ptrdiff_t>(i),
                           old.end(), ev);
      scratch_edges_.insert(scratch_edges_.end(),
                            old.begin() + static_cast<std::ptrdiff_t>(i),
                            run_end);
      i = static_cast<std::size_t>(run_end - old.begin());
      if (take_add) {
        SDN_CHECK_MSG(i == old.size() || !(old[i] == ev),
                      "delta adds edge (" << ev.u << "," << ev.v
                                          << ") already present");
        scratch_edges_.push_back(ev);
        ++a;
      } else {
        SDN_CHECK_MSG(i < old.size() && old[i] == ev,
                      "delta removes edge (" << ev.u << "," << ev.v
                                             << ") not present");
        ++i;  // skip the removed edge
        ++r;
      }
    }
    scratch_edges_.insert(scratch_edges_.end(),
                          old.begin() + static_cast<std::ptrdiff_t>(i),
                          old.end());
  }

  g_.edges_.swap(scratch_edges_);
  csr_.Build(g_.n_, g_.edges_, g_.offsets_, g_.adjacency_, pool);
  return g_;
}

const Graph& DynGraph::CommitEdges(util::ThreadPool* pool) {
  if (VerifySortedEdges()) {
    for (std::size_t i = 1; i < scratch_edges_.size(); ++i) {
      SDN_CHECK_MSG(scratch_edges_[i - 1] < scratch_edges_[i],
                    "CommitEdges given an unsorted or duplicated edge list");
    }
  }
  // The fill range-checks every edge before it writes the view's CSR, so a
  // rejected list leaves View() as it was; the edges swap in after.
  csr_.Build(g_.n_, scratch_edges_, g_.offsets_, g_.adjacency_, pool);
  g_.edges_.swap(scratch_edges_);
  return g_;
}

}  // namespace sdn::graph
