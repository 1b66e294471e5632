// T-interval connectivity checking over dynamic graph sequences.
//
// The adversary contract is: for every window of T consecutive rounds, the
// intersection of the window's topologies contains a connected spanning
// subgraph (equivalently: the intersection graph itself is connected, since
// any common spanning connected subgraph is a subgraph of the intersection).
// Tests run every adversary through this validator.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/delta.hpp"
#include "graph/graph.hpp"

namespace sdn::graph {

/// Result of validating one sequence.
struct TIntervalReport {
  bool ok = true;
  /// First (0-based) window start whose intersection is disconnected.
  std::int64_t first_bad_window = -1;
  /// Number of windows checked.
  std::int64_t windows_checked = 0;
  /// Minimum over windows of the intersection's spanning-forest size
  /// (n-1 for every window iff ok). With ValidateMode::kEarlyExit this is
  /// only a partial minimum (windows after the first violation are never
  /// intersected).
  std::int64_t min_stable_forest = 0;
};

enum class ValidateMode {
  /// Check every window; min_stable_forest is the true minimum.
  kFull,
  /// Stop at the first disconnected window. ok/first_bad_window are exact;
  /// windows_checked and min_stable_forest only cover the prefix. Use from
  /// callers that never read min_stable_forest.
  kEarlyExit,
};

/// Checks T-interval connectivity of the full sequence. All graphs must
/// have equal node counts; T >= 1. Sequences shorter than T have no
/// complete window; the whole-sequence intersection is then required to be
/// connected instead (the promise restricted to the windows that exist —
/// exactly the windows_checked = len - min(T, len) + 1 clamped windows).
TIntervalReport ValidateTInterval(std::span<const Graph> sequence, int T,
                                  ValidateMode mode = ValidateMode::kFull);

/// How a round's topology was assembled, exposed by adversaries whose
/// rounds share long-lived structure (net::Adversary::Composition). The
/// claim is
///
///   E_r == core ∪ support ∪ fresh   (each span sorted and duplicate-free;
///                                    the spans may overlap each other)
///
/// where `core` and `support` are pinned edge sets with stable identity
/// tokens: the same id MUST always denote the same edge set (and, for
/// pooled buffers, the same span). The streaming checker certifies a
/// window the moment one connected id appears in every round of it —
/// literally the T-interval promise's common connected spanning subgraph —
/// so per-round certification cost collapses to one connectivity pass per
/// *new* id instead of per round.
///
/// Span lifetime is a shared-ownership contract: `core_owner` /
/// `support_owner` hold the vectors the `core` / `support` spans point
/// into. A consumer (the checker's spine cache) retains the shared_ptr
/// instead of copying the edges, and the adversary may retire the pinned
/// set whenever it likes — the data outlives it as long as anyone still
/// certifies against it.
/// Owners are required whenever the matching span is non-empty (the
/// checker enforces it); `fresh` stays a borrowed span, valid only until
/// the next topology call — consumers that outlive the round copy it
/// (it is O(volatile edges), not O(E)).
struct RoundComposition {
  static constexpr std::uint64_t kNoId = ~0ULL;
  std::span<const Edge> core;
  std::uint64_t core_id = kNoId;
  std::span<const Edge> support;       // empty when the round has none
  std::uint64_t support_id = kNoId;    // meaningful iff !support.empty()
  std::span<const Edge> fresh;         // per-round extras (volatile edges)
  /// Shared owners of the buffers `core`/`support` point into. Each span
  /// must lie inside its owner's buffer; the checker pins the owner for as
  /// long as the id can still be referenced (span-identity test pins this).
  std::shared_ptr<const std::vector<Edge>> core_owner;
  std::shared_ptr<const std::vector<Edge>> support_owner;
};

/// Incremental validator for streaming use (the engine validates as the
/// adversary emits rounds, without storing the whole run).
///
/// Delta-driven: instead of buffering the last T graphs and intersecting
/// them every round (O(T·E) per round), the checker tracks, per present
/// edge, the round it most recently (re)appeared, in one flat
/// open-addressing table keyed by the packed edge. The T-window
/// intersection at round r is exactly the present edges with
/// `since <= r - T + 1`, so per-round maintenance is O(|Δ|) amortized —
/// removed edges leave, added edges are scheduled to "age into" the stable
/// set T-1 rounds later. Connectivity rides a union-find over the stable
/// set: an aged-in edge unions in O(α) and keeps the union's result as the
/// slot's tree bit (the edge is in the spanning forest), a removed edge
/// without the bit leaves the forest valid, and only a removed tree edge
/// forces a lazy rebuild — one pass over the table that re-derives every
/// tree bit (bounded by the deltas that created those tree edges).
///
/// PushComposition is the certification fast path for adversaries that
/// expose their round structure (RoundComposition): windows are certified
/// by witness ids — one union-find pass per new id, O(T) id bookkeeping
/// per round — and only witness-less rounds fall back to exact
/// intersection over the last T rounds, reconstructed from owned spine
/// copies plus a small per-round fresh-edge ring. Rounds the witness rule
/// certifies never materialize the intersection, so stable_edge_count()
/// is unavailable (-1) in this mode.
///
/// Feed methods must not be mixed within one instance: pick Push,
/// PushDelta, or PushComposition and stay with it (checked). The one
/// exception is Push -> PushDelta hand-off, which the engine never needs
/// and the checker rejects anyway for simplicity.
class TIntervalChecker {
 public:
  TIntervalChecker(NodeId n, int T);

  /// Feeds the next round's topology; returns false on first violation
  /// (and stays false afterwards). Diffs against the previous round
  /// internally — use PushDelta when the caller already has the delta.
  bool Push(const Graph& g);

  /// Delta fast path: feeds round `rounds_seen()+1` as the delta against
  /// the previous round's topology (everything `added` on the first call).
  /// The delta must satisfy the graph/delta.hpp contract.
  bool PushDelta(const TopologyDelta& delta);

  /// Composition fast path: feeds round `rounds_seen()+1` as the graph
  /// plus the adversary's structural claim about it. The claimed spans are
  /// cross-checked against `g` (per-round sampled membership probes, full
  /// union verification on a fixed schedule of first-seen ids); a claim
  /// that fails a check throws CheckError rather than certifying garbage.
  bool PushComposition(const RoundComposition& comp, const Graph& g);

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::int64_t rounds_seen() const { return rounds_seen_; }
  [[nodiscard]] std::int64_t first_bad_window() const {
    return first_bad_window_;
  }
  /// Edges that have aged into every window ending at the last pushed round
  /// (the checker's witness size, surfaced for the flight recorder's
  /// kCheckerWindow track). -1 in composition mode, which certifies
  /// windows without materializing their intersections.
  [[nodiscard]] std::int64_t stable_edge_count() const {
    return mode_ == Mode::kComposition ? -1 : stable_count_;
  }
  /// Largest T' <= T such that the rounds seen so far satisfy the
  /// T'-interval promise (every clamped window [max(1, r-T'+1), r] has a
  /// connected intersection). Equals T while ok(); drops to the observed
  /// level on violation; 0 if even single rounds were disconnected.
  /// Matches batch semantics: certified_T() >= T' iff
  /// ValidateTInterval(seq, T').ok for every T' <= T.
  [[nodiscard]] std::int64_t certified_T() const;
  /// Minimum stable-forest size over the complete windows seen so far
  /// (n-1 while ok); for streams still shorter than T, the forest of the
  /// whole-prefix intersection, matching ValidateTInterval's clamping.
  [[nodiscard]] std::int64_t min_stable_forest() const;

  /// Byte footprint of the checker's owned state (edge-age table, aging
  /// ring, forest union-find, scratch buffers, fresh-edge ring). A pure
  /// function of the pushed round stream, so it is safe to surface as a
  /// memory-budget gauge: identical at any engine thread count and with
  /// certification synchronous or on the engine's lane. Spine data held
  /// through shared owners is the adversary's allocation and is not
  /// double-counted here.
  [[nodiscard]] std::int64_t ApproxBytes() const;

 private:
  enum class Mode { kNone, kGraph, kDelta, kComposition };

  struct SpineRecord {
    std::uint64_t id = RoundComposition::kNoId;
    const Edge* data = nullptr;  // span identity (same id => same span)
    std::size_t size = 0;
    bool connected = false;
    /// Shared owner pinning [data, data+size): the exact-window fallback
    /// reconstructs past rounds straight from the adversary's buffer —
    /// the shared-ownership contract replaced the per-id defensive copy
    /// the checker used to make here.
    std::shared_ptr<const std::vector<Edge>> owner;
    std::int64_t stamp = 0;  // last round that referenced the id (LRU)

    [[nodiscard]] std::span<const Edge> edges() const { return {data, size}; }
  };

  static std::uint64_t Key(const Edge& e) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.u))
            << 32) |
           static_cast<std::uint32_t>(e.v);
  }

  /// The general path's edge-age table: each present edge's packed key,
  /// the round it most recently (re)appeared, and its tree bit. Linear
  /// probing with backward-shift deletion, so no tombstones pile up
  /// however long the stream runs. The capacity is the smallest power of
  /// two >= 16 that keeps the load at most 1/2 for the largest edge count
  /// seen: a pure function of the pushed stream, like ApproxBytes().
  class EdgeAges {
   public:
    static constexpr std::uint64_t kEmpty = ~0ULL;  // no u,v < 2^31 packs to it

    struct Slot {
      std::uint64_t key = kEmpty;
      std::int64_t since_tree = 0;  // since << 1 | tree bit

      [[nodiscard]] std::int64_t since() const { return since_tree >> 1; }
      [[nodiscard]] bool tree() const { return (since_tree & 1) != 0; }
      void set_tree(bool tree) {
        since_tree = (since_tree & ~std::int64_t{1}) | std::int64_t{tree};
      }
    };

    /// Grows (rehashing) until `count` edges fit; allocates on first use.
    void Reserve(std::size_t count);
    /// The slot holding `key`, or null.
    Slot* Find(std::uint64_t key);
    /// Adds `key` with tree bit clear; false if it is already present.
    /// Reserve must have made room for it.
    bool Insert(std::uint64_t key, std::int64_t since);
    /// Empties `slot`, shifting the rest of its probe run back over it.
    void Erase(Slot* slot);
    [[nodiscard]] std::size_t size() const { return size_; }
    /// Every slot, empty ones included (key == kEmpty).
    [[nodiscard]] std::span<Slot> slots() { return slots_; }
    [[nodiscard]] std::int64_t ApproxBytes() const {
      return static_cast<std::int64_t>(slots_.capacity() * sizeof(Slot));
    }

   private:
    [[nodiscard]] std::size_t Home(std::uint64_t key) const;

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    int shift_ = 64;  // 64 - log2(capacity)
  };

  // --- general (delta-driven) path ---
  bool PushDeltaImpl(const TopologyDelta& delta);
  void RebuildForest(std::int64_t threshold);
  void EvaluateBootstrap(std::int64_t r);
  /// Largest L <= cap with the suffix window [r-L+1, r]'s intersection
  /// ({since <= r-L+1}) connected; 0 if even E_r is disconnected.
  std::int64_t LargestConnectedSuffix(std::int64_t r, std::int64_t cap);
  // --- composition path ---
  /// Verifies a first-seen id and caches it, or stamps a cached one.
  /// `keep` is the round's other id, never evicted to make room.
  void EnsureSpineVerified(
      std::uint64_t id, std::span<const Edge> edges,
      const std::shared_ptr<const std::vector<Edge>>& owner,
      std::uint64_t keep, bool* full_verify);
  [[nodiscard]] const SpineRecord* FindSpine(std::uint64_t id) const;
  void CheckComposition(const RoundComposition& comp,
                        std::span<const Edge> round_edges, std::int64_t r,
                        bool full);
  /// Witness id connected and present in every round of the window of
  /// `cap` rounds ending at r, or kNoId.
  std::uint64_t FindWitness(std::int64_t r, std::int64_t cap) const;
  /// Rebuilds round s's full edge list (spine copies ∪ that round's fresh
  /// edges) into `out` — the composition claim replayed from owned data.
  void ReconstructRound(std::int64_t s, std::vector<Edge>& out);
  /// Exact intersection of the last `cap` rounds (reconstructed); fills
  /// connectivity and forest size.
  void ExactWindow(std::int64_t r, std::int64_t cap, bool* connected,
                   std::int64_t* forest);
  std::int64_t LargestConnectedSuffixFromRing(std::int64_t r,
                                              std::int64_t cap);

  NodeId n_;
  int t_;
  Mode mode_ = Mode::kNone;
  bool ok_ = true;
  std::int64_t rounds_seen_ = 0;
  std::int64_t first_bad_window_ = -1;
  std::int64_t cert_;                // certified T so far (starts at T)
  std::int64_t min_stable_forest_;   // over complete windows (starts n-1)
  std::int64_t boot_forest_ = 0;     // last prefix-window forest (r < T)

  // General path: present edges -> round they most recently (re)appeared.
  EdgeAges ages_;
  /// Ring of T buckets: keys of edges added at round s land in bucket
  /// (s + T - 1) % T and are tested for aging into the stable set at round
  /// s + T - 1. Stale entries (edge removed or re-added meanwhile) are
  /// filtered by re-checking the edge's since round.
  std::vector<std::vector<std::uint64_t>> aging_;
  std::int64_t stable_count_ = 0;
  /// Spanning forest of the stable set, whose edges carry the tree bit.
  /// Dirty once a tree edge leaves: union-find cannot split, so the round's
  /// verdict waits for RebuildForest.
  UnionFind forest_;
  bool forest_dirty_ = false;
  UnionFind scratch_uf_{1};
  std::vector<std::vector<std::uint64_t>> sweep_buckets_;
  /// Previous round's edges, kept only for the diffing Push() fallback.
  std::vector<Edge> prev_edges_;
  TopologyDelta scratch_delta_;

  // Composition path: last-T ring of per-round fresh-edge copies and id
  // pairs. Full rounds are never buffered — the witness-less fallback
  // reconstructs them from the owned spine copies, so the per-round copy
  // cost is O(|fresh|), not O(|E|).
  std::vector<std::vector<Edge>> ring_fresh_;
  std::vector<std::array<std::uint64_t, 2>> ring_ids_;
  std::vector<SpineRecord> spines_;   // verified-id cache (LRU, 2T ids)
  std::int64_t ids_first_seen_ = 0;   // full-verification schedule counter
  std::vector<Edge> isect_a_, isect_b_;  // intersection scratch
  std::vector<Edge> recon_, recon_base_;  // round-reconstruction scratch
};

}  // namespace sdn::graph
