#include "graph/tinterval.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"
#include "util/check.hpp"

namespace sdn::graph {

namespace {

constexpr std::uint64_t kNoId = RoundComposition::kNoId;

/// splitmix64 step — the composition spot-checker's deterministic sampler.
std::uint64_t Mix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool ContainsEdge(std::span<const Edge> sorted, const Edge& e) {
  const auto it = std::lower_bound(
      sorted.begin(), sorted.end(), e, [](const Edge& a, const Edge& b) {
        return a.u != b.u ? a.u < b.u : a.v < b.v;
      });
  return it != sorted.end() && it->u == e.u && it->v == e.v;
}

/// out = a ∩ b over sorted-unique edge lists.
void IntersectSorted(const std::vector<Edge>& a, const std::vector<Edge>& b,
                     std::vector<Edge>& out) {
  out.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const Edge& x = a[i];
    const Edge& y = b[j];
    if (x.u == y.u && x.v == y.v) {
      out.push_back(x);
      ++i;
      ++j;
    } else if (x.u != y.u ? x.u < y.u : x.v < y.v) {
      ++i;
    } else {
      ++j;
    }
  }
}

}  // namespace

TIntervalReport ValidateTInterval(std::span<const Graph> sequence, int T,
                                  ValidateMode mode) {
  SDN_CHECK(T >= 1);
  TIntervalReport report;
  if (sequence.empty()) return report;
  const NodeId n = sequence[0].num_nodes();
  for (const Graph& g : sequence) SDN_CHECK(g.num_nodes() == n);
  report.min_stable_forest = n >= 1 ? n - 1 : 0;

  const auto len = static_cast<std::int64_t>(sequence.size());
  const std::int64_t window = std::min<std::int64_t>(T, len);
  for (std::int64_t start = 0; start + window <= len; ++start) {
    const Graph common = EdgeIntersection(
        sequence.subspan(static_cast<std::size_t>(start),
                         static_cast<std::size_t>(window)));
    const std::int64_t forest = SpanningForestSize(common);
    report.min_stable_forest = std::min(report.min_stable_forest, forest);
    ++report.windows_checked;
    if (!IsConnected(common) && report.ok) {
      report.ok = false;
      report.first_bad_window = start;
      if (mode == ValidateMode::kEarlyExit) return report;
    }
  }
  return report;
}

TIntervalChecker::TIntervalChecker(NodeId n, int T)
    : n_(n),
      t_(T),
      cert_(T),
      min_stable_forest_(n - 1),
      boot_forest_(n - 1),
      forest_(n) {
  SDN_CHECK(T >= 1);
  SDN_CHECK(n >= 1);
  aging_.resize(static_cast<std::size_t>(t_));
}

bool TIntervalChecker::Push(const Graph& g) {
  SDN_CHECK(g.num_nodes() == n_);
  if (mode_ == Mode::kNone) mode_ = Mode::kGraph;
  SDN_CHECK_MSG(mode_ == Mode::kGraph,
                "TIntervalChecker feed methods must not be mixed");
  DiffSorted(prev_edges_, g.Edges(), scratch_delta_);
  prev_edges_.assign(g.Edges().begin(), g.Edges().end());
  return PushDeltaImpl(scratch_delta_);
}

bool TIntervalChecker::PushDelta(const TopologyDelta& delta) {
  if (mode_ == Mode::kNone) mode_ = Mode::kDelta;
  SDN_CHECK_MSG(mode_ == Mode::kDelta,
                "TIntervalChecker feed methods must not be mixed");
  return PushDeltaImpl(delta);
}

bool TIntervalChecker::PushDeltaImpl(const TopologyDelta& delta) {
  const std::int64_t r = ++rounds_seen_;
  // The window [r-T+1, r] intersection is exactly the present edges with
  // since <= threshold.
  const std::int64_t threshold = r - t_ + 1;

  for (const Edge& e : delta.removed) {
    const auto it = since_.find(Key(e));
    SDN_CHECK_MSG(it != since_.end(),
                  "T-interval checker: delta removes absent edge ("
                      << e.u << "," << e.v << ") at round " << r);
    if (it->second <= threshold - 1) {
      // Was in the previous round's stable set; the intersection shrinks.
      --stable_count_;
      forest_.Erase(Key(e));  // marks the forest dirty iff a tree edge
    }
    since_.erase(it);
  }

  // Added edges (re)appear now and can age into the stable set at round
  // r + T - 1; for T == 1 that is this very round, handled by the aging
  // pass below reading the bucket entries just pushed.
  auto& incoming = aging_[static_cast<std::size_t>((r + t_ - 1) % t_)];
  for (const Edge& e : delta.added) {
    const bool inserted = since_.emplace(Key(e), r).second;
    SDN_CHECK_MSG(inserted, "T-interval checker: delta adds present edge ("
                                << e.u << "," << e.v << ") at round " << r);
    incoming.push_back(e);
  }

  // Aging pass: edges scheduled for this round join the stable set if they
  // are still present and were not re-added since scheduling.
  auto& bucket = aging_[static_cast<std::size_t>(r % t_)];
  for (const Edge& e : bucket) {
    const auto it = since_.find(Key(e));
    if (it != since_.end() && it->second == threshold) {
      ++stable_count_;
      forest_.Insert(e.u, e.v, Key(e));  // near-O(α) union
    }
  }
  bucket.clear();

  if (r >= t_) {
    if (forest_.dirty()) RebuildForest(threshold);
    const bool connected = forest_.connected();
    min_stable_forest_ =
        std::min(min_stable_forest_, forest_.forest_size());
    if (!connected) {
      if (ok_) first_bad_window_ = r - t_;
      ok_ = false;
      if (cert_ > 0) {
        cert_ = std::min(cert_, LargestConnectedSuffix(r, t_));
      }
    }
  } else {
    EvaluateBootstrap(r);
  }
  return ok_;
}

void TIntervalChecker::RebuildForest(std::int64_t threshold) {
  forest_.BeginRebuild();
  std::int64_t counted = 0;
  for (const auto& [key, since] : since_) {
    if (since <= threshold) {
      forest_.Insert(static_cast<NodeId>(key >> 32),
                     static_cast<NodeId>(key & 0xffffffffULL), key);
      ++counted;
    }
  }
  SDN_CHECK_MSG(counted == stable_count_,
                "T-interval checker stable-set bookkeeping drifted: counted "
                    << stable_count_ << ", found " << counted);
}

void TIntervalChecker::EvaluateBootstrap(std::int64_t r) {
  // Streams shorter than T have no complete window yet; the promise
  // restricted to the rounds that exist is the prefix intersection
  // [1, r] = the present edges that have been in since round 1.
  scratch_uf_.Reset(static_cast<std::size_t>(n_));
  for (const auto& [key, since] : since_) {
    if (since <= 1) {
      scratch_uf_.Union(static_cast<NodeId>(key >> 32),
                        static_cast<NodeId>(key & 0xffffffffULL));
    }
  }
  boot_forest_ = static_cast<std::int64_t>(n_) -
                 static_cast<std::int64_t>(scratch_uf_.num_components());
  const bool connected = scratch_uf_.num_components() == 1;
  if (!connected && cert_ > 0) {
    cert_ = std::min(cert_, LargestConnectedSuffix(r, r));
  }
}

std::int64_t TIntervalChecker::LargestConnectedSuffix(std::int64_t r,
                                                      std::int64_t cap) {
  // Bucket present edges by clamp(since - (r-cap+1), 0, cap-1); adding the
  // buckets in ascending order makes the union-find hold, after bucket i,
  // the intersection of the window [r-cap+1+i, r] — the first connected
  // prefix of buckets identifies the longest connected suffix window.
  const std::int64_t base = r - cap + 1;
  if (sweep_buckets_.size() < static_cast<std::size_t>(cap)) {
    sweep_buckets_.resize(static_cast<std::size_t>(cap));
  }
  for (std::int64_t i = 0; i < cap; ++i) {
    sweep_buckets_[static_cast<std::size_t>(i)].clear();
  }
  for (const auto& [key, since] : since_) {
    const std::int64_t idx = std::max<std::int64_t>(since - base, 0);
    sweep_buckets_[static_cast<std::size_t>(idx)].push_back(key);
  }
  scratch_uf_.Reset(static_cast<std::size_t>(n_));
  for (std::int64_t i = 0; i < cap; ++i) {
    for (const std::uint64_t key : sweep_buckets_[static_cast<std::size_t>(i)]) {
      scratch_uf_.Union(static_cast<NodeId>(key >> 32),
                        static_cast<NodeId>(key & 0xffffffffULL));
    }
    if (scratch_uf_.num_components() == 1) return cap - i;
  }
  return 0;
}

bool TIntervalChecker::PushComposition(const RoundComposition& comp,
                                       const Graph& g) {
  SDN_CHECK(g.num_nodes() == n_);
  if (mode_ == Mode::kNone) mode_ = Mode::kComposition;
  SDN_CHECK_MSG(mode_ == Mode::kComposition,
                "TIntervalChecker feed methods must not be mixed");
  SDN_CHECK_MSG(comp.core_id != kNoId,
                "RoundComposition requires a core id");
  const std::int64_t r = ++rounds_seen_;
  if (ring_fresh_.empty()) {
    ring_fresh_.resize(static_cast<std::size_t>(t_));
    ring_ids_.assign(static_cast<std::size_t>(t_), {kNoId, kNoId});
    spines_.reserve(2 * static_cast<std::size_t>(t_));
  }
  const auto slot = static_cast<std::size_t>((r - 1) % t_);
  const std::uint64_t support_id =
      comp.support.empty() ? kNoId : comp.support_id;
  ring_fresh_[slot].assign(comp.fresh.begin(), comp.fresh.end());
  ring_ids_[slot] = {comp.core_id, support_id};

  bool full_verify = false;
  EnsureSpineVerified(comp.core_id, comp.core, comp.core_owner, support_id,
                      &full_verify);
  if (!comp.support.empty()) {
    SDN_CHECK_MSG(comp.support_id != kNoId,
                  "RoundComposition support span without an id");
    EnsureSpineVerified(comp.support_id, comp.support, comp.support_owner,
                        comp.core_id, &full_verify);
  }
  CheckComposition(comp, g.Edges(), r, full_verify);

  const std::int64_t cap = std::min<std::int64_t>(t_, r);
  bool connected = false;
  std::int64_t forest = n_ - 1;
  if (FindWitness(r, cap) != kNoId) {
    // Some verified-connected pinned set is contained in every round of the
    // window: the window intersection contains a connected spanning
    // subgraph — the T-interval promise verbatim, no intersection needed.
    connected = true;
  } else {
    ExactWindow(r, cap, &connected, &forest);
  }
  if (r >= t_) {
    min_stable_forest_ = std::min(min_stable_forest_, forest);
    if (!connected) {
      if (ok_) first_bad_window_ = r - t_;
      ok_ = false;
    }
  } else {
    boot_forest_ = forest;
  }
  if (!connected && cert_ > 0) {
    cert_ = std::min(cert_, LargestConnectedSuffixFromRing(r, cap));
  }
  return ok_;
}

const TIntervalChecker::SpineRecord* TIntervalChecker::FindSpine(
    std::uint64_t id) const {
  for (const SpineRecord& rec : spines_) {
    if (rec.id == id) return &rec;
  }
  return nullptr;
}

void TIntervalChecker::EnsureSpineVerified(
    std::uint64_t id, std::span<const Edge> edges,
    const std::shared_ptr<const std::vector<Edge>>& owner, std::uint64_t keep,
    bool* full_verify) {
  // Shared-ownership span-lifetime contract: the span must point into the
  // owner's buffer, which the record below pins for as long as the id can
  // be referenced (ring lifetime). No defensive copy is made anywhere.
  SDN_CHECK_MSG(owner != nullptr,
                "RoundComposition id " << id
                                       << " has no shared owner (the span-"
                                          "lifetime contract requires one)");
  SDN_CHECK_MSG(edges.data() >= owner->data() &&
                    edges.data() + edges.size() <= owner->data() + owner->size(),
                "RoundComposition id " << id
                                       << " span outside its owner's buffer");
  for (SpineRecord& rec : spines_) {
    if (rec.id != id) continue;
    SDN_CHECK_MSG(rec.data == edges.data() && rec.size == edges.size(),
                  "RoundComposition id " << id
                                         << " reused for a different span");
    rec.stamp = rounds_seen_;
    return;
  }
  // New id: one union-find pass over the span, early-exiting the moment
  // the set is connected. The span is scanned in a strided interleave: the
  // sorted order leaves high-numbered vertices isolated until their own
  // block (forcing a near-full scan before the exit), while an
  // approximately uniform edge order connects a random graph after about
  // (n/2)·ln n edges — typically half the span. The whole span still fits
  // in L2, so the stride costs nothing.
  scratch_uf_.Reset(static_cast<std::size_t>(n_));
  bool connected = n_ <= 1;
  const std::size_t m = edges.size();
  constexpr std::size_t kStride = 8;
  for (std::size_t phase = 0; phase < kStride && !connected; ++phase) {
    for (std::size_t i = phase; i < m; i += kStride) {
      const Edge& e = edges[i];
      scratch_uf_.Union(e.u, e.v);
      if (scratch_uf_.num_components() == 1) {
        connected = true;
        break;
      }
    }
  }
  ++ids_first_seen_;
  // Full union verification of the composition claim on a fixed schedule
  // of first-seen ids: always the first two (catches structural breakage
  // immediately), then every 16th (bounds the amortized cost; the
  // per-round sampled probes in CheckComposition cover the rest).
  if (ids_first_seen_ <= 2 || ids_first_seen_ % 16 == 0) {
    *full_verify = true;
  }
  // LRU over 2T ids. Every id the last T rounds reference was stamped
  // inside them, and they reference at most 2T ids: this new one, `keep`
  // (the round's other id) and at most 2T-2 from the older rounds. So a
  // full cache always holds another id, and the oldest stamp among those
  // belongs to an id no round in the ring references: the exact-window
  // fallback never reconstructs from an evicted id.
  const std::size_t cap = 2 * static_cast<std::size_t>(t_);
  SpineRecord* rec = nullptr;
  if (spines_.size() < cap) {
    rec = &spines_.emplace_back();
  } else {
    for (SpineRecord& old : spines_) {
      if (old.id != keep && (rec == nullptr || old.stamp < rec->stamp)) {
        rec = &old;
      }
    }
  }
  rec->id = id;
  rec->data = edges.data();
  rec->size = edges.size();
  rec->connected = connected;
  rec->owner = owner;
  rec->stamp = rounds_seen_;
}

void TIntervalChecker::CheckComposition(const RoundComposition& comp,
                                        std::span<const Edge> round_edges,
                                        std::int64_t r, bool full) {
  const auto edges = round_edges;
  const auto e_size = static_cast<std::int64_t>(edges.size());
  SDN_CHECK_MSG(
      e_size >= static_cast<std::int64_t>(comp.core.size()) &&
          e_size >= static_cast<std::int64_t>(comp.support.size()) &&
          e_size <= static_cast<std::int64_t>(comp.core.size() +
                                              comp.support.size() +
                                              comp.fresh.size()),
      "RoundComposition size bounds broken at round " << r);
  if (full) {
    // Exact: walk E_r against the three claimed spans in lockstep. Every
    // span entry must appear in E_r and every E_r edge must be claimed.
    std::size_t ci = 0;
    std::size_t si = 0;
    std::size_t fi = 0;
    for (const Edge& e : edges) {
      const std::uint64_t ke = Key(e);
      bool matched = false;
      const auto eat = [&](std::span<const Edge> s, std::size_t& idx) {
        SDN_CHECK_MSG(idx >= s.size() || Key(s[idx]) >= ke,
                      "RoundComposition claims an edge absent from the "
                      "round at round "
                          << r);
        if (idx < s.size() && Key(s[idx]) == ke) {
          ++idx;
          matched = true;
        }
      };
      eat(comp.core, ci);
      eat(comp.support, si);
      eat(comp.fresh, fi);
      SDN_CHECK_MSG(matched, "RoundComposition misses edge ("
                                 << e.u << "," << e.v << ") at round " << r);
    }
    SDN_CHECK_MSG(ci == comp.core.size() && si == comp.support.size() &&
                      fi == comp.fresh.size(),
                  "RoundComposition claims edges beyond the round's range "
                  "at round "
                      << r);
    return;
  }
  // Sampled membership probes, deterministic in the round number: cheap
  // continuous cross-checking between the scheduled full verifications.
  std::uint64_t x = static_cast<std::uint64_t>(r) * 0x9E3779B97F4A7C15ULL;
  const auto probe = [&](std::span<const Edge> s, int k, const char* what) {
    if (s.empty()) return;
    for (int i = 0; i < k; ++i) {
      const Edge& e = s[Mix64(x) % s.size()];
      SDN_CHECK_MSG(ContainsEdge(edges, e),
                    "RoundComposition " << what << " edge (" << e.u << ","
                                        << e.v
                                        << ") absent from round " << r);
    }
  };
  probe(comp.core, 4, "core");
  probe(comp.support, 2, "support");
  probe(comp.fresh, 2, "fresh");
}

std::uint64_t TIntervalChecker::FindWitness(std::int64_t r,
                                            std::int64_t cap) const {
  // A witness must be pinned in the window's oldest round, so the (at most
  // two) candidate ids come from there; each is checked against the newer
  // rounds' id pairs.
  const auto& oldest = ring_ids_[static_cast<std::size_t>((r - cap) % t_)];
  for (const std::uint64_t id : oldest) {
    if (id == kNoId) continue;
    bool everywhere = true;
    for (std::int64_t s = r - cap + 2; s <= r; ++s) {
      const auto& ids = ring_ids_[static_cast<std::size_t>((s - 1) % t_)];
      if (ids[0] != id && ids[1] != id) {
        everywhere = false;
        break;
      }
    }
    if (everywhere) {
      const SpineRecord* rec = FindSpine(id);
      if (rec != nullptr && rec->connected) return id;
    }
  }
  return kNoId;
}

void TIntervalChecker::ReconstructRound(std::int64_t s, std::vector<Edge>& out) {
  const auto slot = static_cast<std::size_t>((s - 1) % t_);
  const auto& ids = ring_ids_[slot];
  const SpineRecord* core = FindSpine(ids[0]);
  SDN_CHECK_MSG(core != nullptr,
                "T-interval checker: spine id " << ids[0]
                    << " evicted while round " << s << " is in the ring");
  const std::vector<Edge>& fresh = ring_fresh_[slot];
  if (ids[1] != kNoId) {
    const SpineRecord* support = FindSpine(ids[1]);
    SDN_CHECK_MSG(support != nullptr,
                  "T-interval checker: spine id " << ids[1]
                      << " evicted while round " << s << " is in the ring");
    UnionSorted(core->edges(), support->edges(), recon_base_);
    UnionSorted(recon_base_, fresh, out);
  } else {
    UnionSorted(core->edges(), fresh, out);
  }
}

void TIntervalChecker::ExactWindow(std::int64_t r, std::int64_t cap,
                                   bool* connected, std::int64_t* forest) {
  ReconstructRound(r, isect_a_);
  for (std::int64_t s = r - 1; s >= r - cap + 1; --s) {
    ReconstructRound(s, recon_);
    IntersectSorted(isect_a_, recon_, isect_b_);
    std::swap(isect_a_, isect_b_);
  }
  scratch_uf_.Reset(static_cast<std::size_t>(n_));
  for (const Edge& e : isect_a_) scratch_uf_.Union(e.u, e.v);
  *connected = scratch_uf_.num_components() == 1;
  *forest = static_cast<std::int64_t>(n_) -
            static_cast<std::int64_t>(scratch_uf_.num_components());
}

std::int64_t TIntervalChecker::LargestConnectedSuffixFromRing(
    std::int64_t r, std::int64_t cap) {
  // Window connectivity is downward-closed in the window length (longer
  // windows intersect to subsets), so grow the suffix until it breaks.
  std::int64_t best = 0;
  ReconstructRound(r, isect_a_);
  for (std::int64_t len = 1; len <= cap; ++len) {
    if (len > 1) {
      ReconstructRound(r - len + 1, recon_);
      IntersectSorted(isect_a_, recon_, isect_b_);
      std::swap(isect_a_, isect_b_);
    }
    scratch_uf_.Reset(static_cast<std::size_t>(n_));
    bool connected = n_ <= 1;
    for (const Edge& e : isect_a_) {
      scratch_uf_.Union(e.u, e.v);
      if (scratch_uf_.num_components() == 1) {
        connected = true;
        break;
      }
    }
    if (!connected) break;
    best = len;
  }
  return best;
}

std::int64_t TIntervalChecker::ApproxBytes() const {
  const auto vec = [](const auto& v) {
    using T = typename std::decay_t<decltype(v)>::value_type;
    return static_cast<std::int64_t>(v.capacity() * sizeof(T));
  };
  // Hash map: per-entry node (key + value + chain pointer) plus the bucket
  // array. Both counts are pure functions of the pushed stream, so the
  // total is as deterministic as the rest of the checker's state.
  std::int64_t total = static_cast<std::int64_t>(
      since_.size() *
          (sizeof(std::uint64_t) + sizeof(std::int64_t) + sizeof(void*)) +
      since_.bucket_count() * sizeof(void*));
  for (const auto& bucket : aging_) total += vec(bucket);
  total += forest_.ApproxBytes() + scratch_uf_.ApproxBytes();
  for (const auto& bucket : sweep_buckets_) total += vec(bucket);
  total += vec(prev_edges_);
  total += vec(scratch_delta_.added) + vec(scratch_delta_.removed);
  for (const auto& fresh : ring_fresh_) total += vec(fresh);
  total += vec(ring_ids_);
  total += static_cast<std::int64_t>(spines_.capacity() * sizeof(SpineRecord));
  total += vec(isect_a_) + vec(isect_b_) + vec(recon_) + vec(recon_base_);
  return total;
}

std::int64_t TIntervalChecker::certified_T() const { return cert_; }

std::int64_t TIntervalChecker::min_stable_forest() const {
  return rounds_seen_ < t_ ? boot_forest_ : min_stable_forest_;
}

}  // namespace sdn::graph
