#include "adversary/stable_spine.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <vector>

#include "graph/delta.hpp"
#include "util/check.hpp"

namespace sdn::adversary {

StableSpineAdversary::StableSpineAdversary(graph::NodeId n, int T,
                                           StableSpineOptions options,
                                           std::uint64_t seed)
    : n_(n),
      t_(T),
      options_(options),
      era_length_(options.era_length > 0 ? options.era_length : T),
      seed_rng_(seed),
      volatile_rng_(seed_rng_.Fork(0xed9e5ULL)) {
  SDN_CHECK(n >= 1);
  SDN_CHECK(T >= 1);
  // The T-1 round overlap must fit inside one era; otherwise a window can
  // straddle three spines while only one previous spine is retained.
  SDN_CHECK_MSG(era_length_ >= std::max<std::int64_t>(1, T - 1),
                "era_length must be >= T-1 (got " << era_length_ << " for T="
                                                  << T << ")");
}

void StableSpineAdversary::AdvanceToEra(std::int64_t era) {
  SDN_CHECK(era >= 0);
  SDN_CHECK_MSG(era >= current_era_,
                "StableSpineAdversary rounds must be non-decreasing");
  while (current_era_ < era) {
    ++current_era_;
    has_previous_ = current_era_ >= 1;
    previous_spine_ = std::move(current_spine_);
    // A held spine was drawn for exactly this era: the loop visits every
    // era, so even a request that skips eras passes through it first.
    current_spine_ = next_spine_ != nullptr ? std::move(next_spine_)
                                            : DrawSpine(current_era_);
  }
}

std::shared_ptr<const std::vector<graph::Edge>>
StableSpineAdversary::DrawSpine(std::int64_t era) {
  util::Rng era_rng = seed_rng_.Fork(static_cast<std::uint64_t>(era) + 1);
  return std::make_shared<const std::vector<graph::Edge>>(
      MakeSpineEdges(options_.spine, n_, era_rng));
}

graph::Graph StableSpineAdversary::SpineForRound(std::int64_t round) {
  SDN_CHECK(round >= 1);
  AdvanceToEra((round - 1) / era_length_);
  std::vector<graph::Edge> copy = *current_spine_;
  return graph::Graph(n_, std::move(copy), graph::Graph::SortedEdges{});
}

const std::vector<graph::Edge>& StableSpineAdversary::OverlapBase() {
  if (overlap_base_era_ != current_era_) {
    overlap_base_era_ = current_era_;
    graph::UnionSorted(*current_spine_, *previous_spine_, overlap_base_);
  }
  return overlap_base_;
}

void StableSpineAdversary::BuildRoundEdges(std::int64_t round,
                                           std::vector<graph::Edge>& out) {
  SDN_CHECK(round >= 1);
  const std::int64_t era = (round - 1) / era_length_;
  const std::int64_t offset = (round - 1) % era_length_;
  AdvanceToEra(era);

  // Overlap: previous era's spine persists through the first T-1 rounds of
  // this era so sliding T-windows keep a common connected spanning subgraph.
  const bool overlap = offset < t_ - 1 && has_previous_;
  const std::int64_t volatile_count = n_ >= 2 ? options_.volatile_edges : 0;

  // This runs once per simulated round: the base (spine, or the per-era
  // cached spine union during overlap) is already sorted-unique, so the
  // round list is one block-copy merge of the few volatile edges into the
  // base — runs between volatile insertion points are copied wholesale.
  const std::vector<graph::Edge>& base =
      overlap ? OverlapBase() : *current_spine_;
  out.clear();
  out.reserve(base.size() + static_cast<std::size_t>(volatile_count));
  if (volatile_count > 0) {
    // Draw the volatile edges as packed (u<<32)|v keys — lexicographic Edge
    // order and key order coincide for non-negative node ids, and sorting
    // u64 keys halves the compare work of sorting two-field Edges.
    fresh_keys_.clear();
    fresh_keys_.reserve(static_cast<std::size_t>(volatile_count));
    for (std::int64_t i = 0; i < volatile_count; ++i) {
      const auto u = static_cast<graph::NodeId>(
          volatile_rng_.UniformU64(static_cast<std::uint64_t>(n_)));
      auto v = static_cast<graph::NodeId>(
          volatile_rng_.UniformU64(static_cast<std::uint64_t>(n_) - 1));
      if (v >= u) ++v;
      const auto lo = static_cast<std::uint32_t>(std::min(u, v));
      const auto hi = static_cast<std::uint32_t>(std::max(u, v));
      fresh_keys_.push_back((static_cast<std::uint64_t>(lo) << 32) | hi);
    }
    std::sort(fresh_keys_.begin(), fresh_keys_.end());
    fresh_edges_.clear();
    fresh_edges_.reserve(fresh_keys_.size());
    for (const std::uint64_t k : fresh_keys_) {
      fresh_edges_.emplace_back(static_cast<graph::NodeId>(k >> 32),
                                static_cast<graph::NodeId>(k & 0xffffffffULL));
    }
    // Sorted-unique: the composition claim below exposes this span, and
    // the merge's own duplicate check makes the dedup output-invariant.
    fresh_edges_.erase(std::unique(fresh_edges_.begin(), fresh_edges_.end()),
                       fresh_edges_.end());
  }
  const graph::Edge* b = base.data();
  const graph::Edge* const be = b + base.size();
  for (const graph::Edge& f : fresh_edges_) {
    // Galloping run search: runs between volatile insertion points average
    // |base|/|volatile| elements, so probing 1,2,4,... from the cursor stays
    // in the cache lines the block copy is about to stream anyway — a
    // binary search over the whole remaining range touches cold memory.
    const graph::Edge* run_end = b;
    if (b != be && *b < f) {
      std::size_t hi = 1;
      const auto rem = static_cast<std::size_t>(be - b);
      while (hi < rem && b[hi] < f) hi <<= 1;
      run_end = std::lower_bound(b + (hi >> 1) + 1,
                                 b + std::min(hi + 1, rem), f);
    }
    out.insert(out.end(), b, run_end);
    b = run_end;
    if (b != be && *b == f) continue;            // already a base edge
    if (!out.empty() && out.back() == f) continue;  // duplicate volatile draw
    out.push_back(f);
  }
  out.insert(out.end(), b, be);

  // Publish the round's structural claim (Composition): the round is
  // exactly core ∪ support ∪ fresh, with era numbers as pinned-set ids.
  // The shared spine vectors double as the span-lifetime contract's
  // owners: a consumer pinning an era's spine (the checker's spine cache,
  // the async certification lane) holds the shared_ptr, so the set
  // survives era rotation with zero copies anywhere.
  comp_.core = {current_spine_->data(), current_spine_->size()};
  comp_.core_id = static_cast<std::uint64_t>(current_era_);
  comp_.core_owner = current_spine_;
  if (overlap) {
    comp_.support = {previous_spine_->data(), previous_spine_->size()};
    comp_.support_id = static_cast<std::uint64_t>(current_era_ - 1);
    comp_.support_owner = previous_spine_;
  } else {
    comp_.support = {};
    comp_.support_id = graph::RoundComposition::kNoId;
    comp_.support_owner.reset();
  }
  comp_.fresh = {fresh_edges_.data(), fresh_edges_.size()};
  comp_round_ = round;

  // The era's last round draws the next era's spine (see the header): the
  // spine generator then runs in this round's build, not in the boundary
  // round's, which also unions the two spines.
  if (offset == era_length_ - 1 && next_spine_ == nullptr) {
    next_spine_ = DrawSpine(current_era_ + 1);
  }
}

graph::Graph StableSpineAdversary::TopologyFor(std::int64_t round,
                                               const net::AdversaryView&) {
  std::vector<graph::Edge> merged;
  BuildRoundEdges(round, merged);
  return graph::Graph(n_, std::move(merged), graph::Graph::SortedEdges{});
}

void StableSpineAdversary::DeltaFor(std::int64_t round,
                                    const net::AdversaryView&,
                                    const graph::Graph& prev,
                                    graph::TopologyDelta& out) {
  BuildRoundEdges(round, round_edges_);
  graph::DiffSorted(prev.Edges(), round_edges_, out);
}

bool StableSpineAdversary::RoundEdgesInto(std::int64_t round,
                                          const net::AdversaryView&,
                                          std::vector<graph::Edge>& out) {
  BuildRoundEdges(round, out);
  return true;
}

std::string StableSpineAdversary::name() const {
  std::ostringstream os;
  os << "spine[" << options_.spine.Name() << ",era=" << era_length_
     << ",vol=" << options_.volatile_edges << "]";
  return os.str();
}

}  // namespace sdn::adversary
