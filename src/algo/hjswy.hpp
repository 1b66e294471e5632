// The hjswy suite: the paper's headline claim, reconstructed.
//
// RECONSTRUCTION NOTE (DESIGN.md §0/§4.2/§6): the full text of Hou, Jahja,
// Sun, Wu & Yu (SPAA'22) was not available — only the abstract. This module
// rebuilds the *claim* ("Count/Consensus/Max with no Ω(N) term in the round
// complexity under constant T") from the standard toolbox of that research
// line:
//
//   * Doubling phases. Phase p guesses a horizon D_p = D_0·2^p and runs a
//     fixed global schedule of R(D_p) rounds: a dissemination segment
//     followed by a quiet-verification suffix.
//   * Probabilistic aggregation. Each node draws L Exp(1) variates; the
//     coordinate-wise minima flood through the network like a max-aggregate
//     (O(1) coordinates per O(log N)-bit message, rotating). When the phase
//     horizon covers the true dynamic flooding time d, the minima converge
//     and (L-1)/Σmin estimates N within (1±ε), ε ≈ 1/sqrt(L-2). Max and the
//     min-id's input value (consensus) ride along as plain aggregates.
//   * Alarm verification. In the suffix, any node that observes new
//     information — its merged state changed, a neighbor's state fingerprint
//     differs, or a neighbor raised an alarm — raises an alarm, which itself
//     floods. A node accepts the phase only if its suffix stayed quiet.
//     T-interval connectivity guarantees divergent state is adjacent across
//     every window, so alarms are generated as long as information is still
//     missing somewhere nearby.
//
// A node accepts at the first phase with D_p ≳ d, so the decision round is
// O(Σ_{D_p ≤ O(d)} R(D_p)) = Õ(T·d·polylog N): **no Ω(N) term** — the
// claim under reproduction. The worst case (spooling/path adversaries) has
// d = Θ(N) and the complexity honestly degrades to Θ̃(N), as it must.
//
// Correctness envelope: Max/Consensus outputs are exact whp; Count is exact
// whp in `exact_census` mode (unbounded messages carry the id set) and
// (1±ε)-approximate in the bounded O(log N)-bit regime. The real paper's
// verification machinery is proven against worst-case adversaries; this
// reconstruction quantifies its failure rate empirically (bench F7/A8)
// and offers `strict` mode (accept only once D_p >= strict_mult·N̂), which
// restores a known-safe envelope at the cost of re-introducing a linear
// term — exactly the trade-off prior work was stuck with.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "algo/common.hpp"
#include "algo/estimator.hpp"
#include "algo/idset.hpp"
#include "util/rng.hpp"

namespace sdn::algo {

struct HjswyOptions {
  /// The adversary's promised interval (window length for the suffix math).
  int T = 2;
  /// Sketch coordinates L; relative count error ≈ 1/sqrt(L-2).
  int sketch_len = 64;
  /// Sketch coordinates carried per message in the bounded regime.
  int coords_per_msg = 4;
  /// Dissemination segment length multiplier (gamma).
  double gamma = 1.5;
  /// Quiet-suffix length multiplier (beta).
  double beta = 3.0;
  /// First phase horizon D_0.
  std::int64_t initial_horizon = 4;
  /// Unbounded-regime exact Count: messages carry the known-id set.
  bool exact_census = false;
  /// Extension (DESIGN.md §4.2): also estimate Σ max(0, input) with a
  /// weighted sketch riding on the same rotation — Sum/Average answers for
  /// the cost of a second coordinate block per message.
  bool track_sum = false;
  /// Accept a phase only once D_p >= strict_mult·N̂ (safe/linear fallback).
  bool strict = false;
  double strict_mult = 2.0;
};

/// Everything one hjswy run decides.
struct HjswyOutput {
  /// Exact count (exact_census) or rounded estimate (bounded regime).
  std::int64_t count = 0;
  /// Raw estimate, for error reporting.
  double count_estimate = 0.0;
  /// Σ max(0, input) estimate; 0 unless options.track_sum.
  double sum_estimate = 0.0;
  Value max_value = 0;
  Value consensus_value = 0;
  std::int64_t accepted_phase = 0;
  std::int64_t accepted_horizon = 0;
};

class HjswyProgram {
 public:
  /// Upper bound on coords_per_msg (keeps Message trivially copyable and
  /// allocation-free on the engine's hot path).
  static constexpr int kMaxCoordsPerMsg = 16;

  struct alignas(64) Message {
    /// Layout is deliberate (this is the engine's per-delivery read set):
    /// the scalar header, flooded aggregates, fingerprint and the first few
    /// sketch coordinates — everything the default bounded regime touches —
    /// occupy the first 64 bytes, which the alignas pins to one cache line
    /// in the engine's outbox. The exact_census pointer and the
    /// track_sum-only coordinate block follow, so the common delivery never
    /// pulls them in.
    /// Rotating sketch window: float32 bit patterns of coords
    /// [coord_base, coord_base + num_coords).
    std::int32_t coord_base = 0;
    std::int32_t num_coords = 0;
    NodeId min_id = 0;
    bool has_sum = false;
    bool alarm = false;
    Value min_id_value = 0;
    Value max_value = 0;
    std::uint64_t fingerprint = 0;  // 48-bit state fingerprint
    std::array<std::uint32_t, kMaxCoordsPerMsg> coords{};
    /// exact_census only: snapshot of the sender's known-id set.
    std::shared_ptr<const IdSet> census;
    /// track_sum only: the weighted sketch's coordinates for the same
    /// [coord_base, coord_base + num_coords) window; unused otherwise.
    std::array<std::uint32_t, kMaxCoordsPerMsg> sum_coords{};
  };
  using Output = HjswyOutput;

  /// `rng` seeds this node's private sketch draws (fork it per node).
  ///
  /// The sketches live in the shared SoA `pool` at row `id` (the count
  /// sketch in columns [0, L), the track_sum sketch in [L, 2L)): the pool
  /// must be non-null, sized for every node id in the run and for track_sum
  /// if enabled (see RequiredPoolColumns), and must outlive the program.
  HjswyProgram(NodeId id, Value input, HjswyOptions options, util::Rng rng,
               SketchPool* pool);

  /// Pool columns one node needs under `options` (L, or 2L with track_sum).
  static int RequiredPoolColumns(const HjswyOptions& options) {
    return options.track_sum ? 2 * options.sketch_len : options.sketch_len;
  }

  std::optional<Message> OnSend(Round r);
  /// Zero-copy send (net::DirectSendProgram): writes the round-r message
  /// straight into `m` — typically the engine's outbox slot — and returns
  /// whether a message was produced (hjswy always sends; see OnSend).
  /// Overwrites every field a reader may touch (including clearing `census`
  /// when exact_census is off), so a reused slot never leaks a stale field;
  /// only coords/sum_coords lanes at index >= num_coords keep old bytes,
  /// which the Message contract declares meaningless.
  bool OnSendInto(Round r, Message& m);
  void OnReceive(Round r, Inbox<Message> inbox);
  [[nodiscard]] bool HasDecided() const { return decided_.has_value(); }
  [[nodiscard]] std::optional<Output> output() const { return decided_; }
  [[nodiscard]] double PublicState() const;
  static std::size_t MessageBits(const Message& m);

  static AlgoInfo InfoFor(const HjswyOptions& options);

  /// Schedule position of absolute round r (exposed for tests).
  struct Position {
    std::int64_t phase = 0;
    std::int64_t horizon = 0;       // D_p
    std::int64_t round_in_phase = 0;  // 0-based
    bool in_suffix = false;
    bool last_round_of_phase = false;
  };
  [[nodiscard]] Position Locate(Round r) const;

  /// Cursor-accelerated Locate: same result for every r (tests pin the
  /// equivalence), O(1) amortized when rounds are queried in order — the
  /// schedule math (ceil/log2 per candidate phase) runs only on a phase
  /// advance instead of on every call. OnSend/OnReceive go through this.
  [[nodiscard]] Position LocateFast(Round r) const;

  [[nodiscard]] std::int64_t DisseminationLength(std::int64_t horizon) const;
  [[nodiscard]] std::int64_t SuffixLength(std::int64_t horizon) const;

  /// Whether this node has raised an alarm in the current phase (tests).
  [[nodiscard]] bool alarm_raised() const { return alarm_; }

  /// Flight-recorder phase sample (net::ObservableProgram): label is the
  /// schedule segment ("disseminate"/"suffix"/"decided"), index the doubling
  /// phase, work the cumulative count of successful sketch merges.
  [[nodiscard]] net::ProgramPhase ObsPhase() const { return obs_phase_; }

 private:
  [[nodiscard]] std::uint64_t StateFingerprint() const;
  [[nodiscard]] double CachedEstimate() const;
  void RefreshCensusSnapshot();

  HjswyOptions options_;
  NodeId id_;

  CardinalityEstimator sketch_;
  std::optional<CardinalityEstimator> sum_sketch_;  // track_sum only
  NodeId agg_min_id_;
  Value agg_min_value_;
  Value agg_max_value_;
  IdSet census_;  // exact_census only
  std::shared_ptr<const IdSet> census_snapshot_;

  bool alarm_ = false;
  std::int64_t alarm_phase_ = -1;  // phase the alarm flag belongs to

  /// Cached StateFingerprint(); invalidated whenever local state merges.
  mutable std::optional<std::uint64_t> fingerprint_cache_;
  /// Cached sketch_.Estimate() (O(L) to recompute); invalidated together
  /// with the fingerprint. PublicState() is peeked per node per era by
  /// adaptive adversaries, so uncached it is O(L) per peek.
  mutable std::optional<double> estimate_cache_;
  /// Schedule cursor for LocateFast (mutable: advancing it is invisible —
  /// every Position it produces equals Locate(r)).
  mutable PhaseCursor cursor_;

  /// Updated in OnReceive; read by the engine only while a recorder is
  /// attached.
  net::ProgramPhase obs_phase_{.label = "disseminate"};

  std::optional<HjswyOutput> decided_;
};

}  // namespace sdn::algo
