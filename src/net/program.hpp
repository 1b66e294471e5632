// The node-program contract.
//
// An algorithm is a per-node state machine type A satisfying NodeProgram:
//
//   using Message = ...;   // what a node broadcasts each round
//   using Output  = ...;   // what a node eventually decides
//   std::optional<Message> OnSend(Round r);            // may be silent
//   void OnReceive(Round r, Inbox<Message> in);        // neighbor msgs
//   bool HasDecided() const;
//   std::optional<Output> output() const;
//   double PublicState() const;          // what adaptive adversaries may see
//   static std::size_t MessageBits(const Message&);  // honest wire size
//
// The engine calls OnSend for every node, then delivers each node the
// multiset of its current neighbors' messages (anonymous local broadcast),
// then calls OnReceive. A decided node keeps participating (helping others
// terminate) unless the algorithm itself chooses to go silent.
//
// Delivery is zero-copy, with two backings behind the same Inbox view:
//
//   * dense (the common case): when every node produced a message this
//     round, an Inbox is the graph's own CSR neighbor-id span plus the base
//     pointer of the engine's per-round outbox — entry i is
//     outbox[neighbors[i]], read in place with no per-receiver gather at
//     all.
//   * sparse (silent-node rounds, DeliveryMode::kGather, tests): a gather
//     of `const M*` pointers into the outbox, one per messaging neighbor.
//
// Either way a message broadcast to k neighbors exists exactly once in
// memory and is read in place by all k receivers. Iteration yields
// const Message& — a program must never mutate (or cast away const on) an
// inbox entry, because every other receiver of the same sender sees the
// same object. Inbox entries are only valid for the duration of the
// OnReceive call; a program that needs a message beyond that must copy it.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>

namespace sdn::net {

using Round = std::int64_t;

/// Zero-copy view of the messages delivered to one node in one round.
/// Sparse backing: a span over stable pointers into the engine's outbox.
/// Dense backing: the receiver's CSR neighbor-id span plus the outbox base
/// pointer (every slot occupied, so entry i is outbox[ids[i]]).
/// Dereferencing yields const M&; the pointed-to messages are shared by
/// every receiver.
template <typename M>
class Inbox {
 public:
  using value_type = M;

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = M;
    using difference_type = std::ptrdiff_t;
    using pointer = const M*;
    using reference = const M&;

    iterator() = default;
    explicit iterator(const M* const* slot) : slot_(slot) {}
    iterator(const M* base, const std::int32_t* id) : base_(base), id_(id) {}

    reference operator*() const {
      return base_ != nullptr ? base_[static_cast<std::size_t>(*id_)]
                              : **slot_;
    }
    pointer operator->() const { return &operator*(); }
    iterator& operator++() {
      if (base_ != nullptr) {
        ++id_;
      } else {
        ++slot_;
      }
      return *this;
    }
    iterator operator++(int) {
      iterator tmp = *this;
      ++(*this);
      return tmp;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.slot_ == b.slot_ && a.id_ == b.id_;
    }

   private:
    const M* const* slot_ = nullptr;  // sparse cursor
    const M* base_ = nullptr;         // dense outbox base
    const std::int32_t* id_ = nullptr;  // dense cursor
  };
  using const_iterator = iterator;

  /// Empty inbox (a round with no messaging neighbors).
  Inbox() = default;
  /// Sparse view over an externally owned pointer gather (the engine's, or
  /// a test's stack array of &message pointers).
  explicit Inbox(std::span<const M* const> slots) : slots_(slots) {}
  /// Dense view: `outbox[ids[i]]` must hold a live round-r message for
  /// every i (the engine takes this path only when every node sent this
  /// round, so the raw slot array has no engaged/empty distinction to
  /// encode — one pointer plus the CSR ids).
  Inbox(const M* outbox, std::span<const std::int32_t> ids)
      : base_(outbox), ids_(ids) {}

  [[nodiscard]] std::size_t size() const {
    return base_ != nullptr ? ids_.size() : slots_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] const M& operator[](std::size_t i) const {
    return base_ != nullptr ? base_[static_cast<std::size_t>(ids_[i])]
                            : *slots_[i];
  }
  [[nodiscard]] iterator begin() const {
    return base_ != nullptr ? iterator(base_, ids_.data())
                            : iterator(slots_.data());
  }
  [[nodiscard]] iterator end() const {
    return base_ != nullptr ? iterator(base_, ids_.data() + ids_.size())
                            : iterator(slots_.data() + slots_.size());
  }

  /// True when this inbox is backed by direct outbox indexing (all senders
  /// present); exposed so tests can assert which path a round took.
  [[nodiscard]] bool dense() const { return base_ != nullptr; }

 private:
  std::span<const M* const> slots_;  // sparse backing
  const M* base_ = nullptr;          // dense backing: outbox base
  std::span<const std::int32_t> ids_;  // dense backing: neighbor ids
};

/// How the engine backs each receiver's Inbox on rounds where every node
/// sent. Rounds with silent nodes always gather: dense indexing is only
/// valid when every slot is live. Results are bit-identical in both modes.
enum class DeliveryMode {
  /// Gather pointers to the flagged outbox slots on every round.
  kGather,
  /// Index the outbox through the CSR neighbor span on every all-sent
  /// round (the default).
  kDense,
};

template <typename A>
concept NodeProgram = requires(
    A a, const A ca, Round r,
    Inbox<typename A::Message> inbox,
    const typename A::Message& msg) {
  typename A::Message;
  typename A::Output;
  { a.OnSend(r) } -> std::same_as<std::optional<typename A::Message>>;
  { a.OnReceive(r, inbox) } -> std::same_as<void>;
  { ca.HasDecided() } -> std::convertible_to<bool>;
  { ca.output() } -> std::same_as<std::optional<typename A::Output>>;
  { ca.PublicState() } -> std::convertible_to<double>;
  { A::MessageBits(msg) } -> std::convertible_to<std::size_t>;
};

/// Optional extension of NodeProgram: programs that can compose their
/// round-r message straight into a caller-provided slot, returning whether
/// they sent. The engine uses this to write each node's message in place
/// into its outbox slot — OnSend's `std::optional<Message>` return path
/// costs a zero-init plus two full Message copies per send, which for a
/// cache-line-aligned wire struct is most of the send phase. A provider
/// must overwrite every field a receiver may read (slots are reused across
/// rounds; only payload lanes beyond the declared count may keep stale
/// bytes), and OnSendInto(r, m) must produce the same send decision and
/// the same readable fields as OnSend(r) — the engine picks whichever path
/// exists per program type, and the property suites pin RunStats equality
/// between a direct-send program and its OnSend behavior.
///
/// Speculative calls: under fused send/deliver the engine composes round
/// r+1's message immediately after the node's round-r OnReceive — the
/// per-node call order (..., OnReceive(r), OnSendInto(r+1),
/// OnReceive(r+1), ...) is exactly the serial engine's, but when the run
/// ends or aborts at round r the trailing OnSendInto(r+1) has already
/// happened and its output is discarded. A provider must therefore
/// tolerate one final OnSendInto whose message is never delivered: any
/// state it mutates (schedule-window caches, sent-token bookkeeping) must
/// be invisible to everything read after the run — HasDecided, output,
/// PublicState, ObsPhase.
template <typename A>
concept DirectSendProgram =
    NodeProgram<A> && requires(A a, Round r, typename A::Message& m) {
      { a.OnSendInto(r, m) } -> std::same_as<bool>;
    };

/// What a node reports about where it is inside its algorithm, for the
/// flight recorder's algorithm-phase track (obs::EventKind::kAlgoPhase).
struct ProgramPhase {
  /// Static-storage-duration phase name ("disseminate", "verify", ...) —
  /// the recorder stores the pointer, never a copy.
  const char* label = "";
  /// Phase ordinal within the algorithm's own numbering (hjswy doubling
  /// phase, census/committee guess k, ...).
  std::int64_t index = 0;
  /// Monotone per-node work counter (e.g. successful sketch merges); the
  /// engine sums this across nodes for kSketchMerge events.
  std::int64_t work = 0;
};

/// Optional extension of NodeProgram: programs that expose a phase label
/// get an algorithm-phase track in traces. ObsPhase() must be cheap (a
/// member read) — the engine samples it per round while a recorder is
/// attached, and never otherwise.
template <typename A>
concept ObservableProgram = NodeProgram<A> && requires(const A ca) {
  { ca.ObsPhase() } -> std::same_as<ProgramPhase>;
};

}  // namespace sdn::net
