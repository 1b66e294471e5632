// Adversary interface.
//
// The adversary owns the topology: each round the engine asks it for G_r.
// Oblivious adversaries ignore the view; adaptive adversaries may inspect the
// public per-node state the running algorithm exposes (DESIGN.md §1). The
// engine independently verifies the T-interval promise with a streaming
// checker, so a buggy adversary cannot silently invalidate an experiment.
#pragma once

#include <cstdint>
#include <string>

#include "graph/delta.hpp"
#include "graph/graph.hpp"
#include "graph/tinterval.hpp"

namespace sdn::net {

/// Read-only window an adaptive adversary gets into the execution.
class AdversaryView {
 public:
  virtual ~AdversaryView() = default;

  /// The round about to be executed (1-based).
  [[nodiscard]] virtual std::int64_t round() const = 0;

  /// Algorithm-published scalar per node (e.g. "how much has u learned");
  /// 0 for algorithms that publish nothing.
  [[nodiscard]] virtual double PublicState(graph::NodeId u) const = 0;

  [[nodiscard]] virtual graph::NodeId num_nodes() const = 0;

  /// True when the engine runs the topology calls on its auxiliary lane,
  /// overlapped with the round's probe, send and deliver phases (a pooled
  /// run against an oblivious adversary).
  /// An adversary may then run its own per-era work on a helper thread;
  /// under the default (false) it starts none.
  [[nodiscard]] virtual bool prefetches_topology() const { return false; }
};

class Adversary {
 public:
  virtual ~Adversary() = default;

  [[nodiscard]] virtual graph::NodeId num_nodes() const = 0;

  /// The T this adversary promises (>= 1).
  [[nodiscard]] virtual int interval() const = 0;

  /// Topology for round `round` (1-based). Must uphold the T-interval
  /// promise across consecutive calls with round = 1, 2, 3, ...
  virtual graph::Graph TopologyFor(std::int64_t round,
                                   const AdversaryView& view) = 0;

  /// Delta fast path: writes into `out` the delta turning `prev` — the
  /// topology this adversary produced for round-1 (the empty n-node graph
  /// when round == 1) — into round `round`'s topology. Must be equivalent
  /// to `graph::Diff(prev, TopologyFor(round, view))`; the default does
  /// exactly that, so every adversary supports the delta-driven engine
  /// unchanged. Adversaries whose rounds share structure (spines, static or
  /// replayed graphs) override this to emit the delta directly, skipping
  /// the per-round Graph materialization entirely. The engine calls
  /// DeltaFor with strictly sequential rounds 1, 2, 3, ... and never mixes
  /// in TopologyFor — overrides may rely on that (and must consume the
  /// same RNG stream as TopologyFor so the two produce bit-identical
  /// sequences).
  virtual void DeltaFor(std::int64_t round, const AdversaryView& view,
                        const graph::Graph& prev, graph::TopologyDelta& out);

  /// Fastest path: write round `round`'s complete topology as a sorted,
  /// duplicate-free edge list into `out` and return true, or return false
  /// (the default) to make the engine fall back to DeltaFor. The engine
  /// calls this every round until the first false return, which pins
  /// DeltaFor for the rest of the run; when something consumes deltas (the
  /// delta-driven T-interval checker, trace recording) the engine derives
  /// the delta itself with one DiffSorted. `out` arrives with unspecified
  /// contents (a reused buffer) and on a false return may be left in any
  /// state. The same sequencing rules as DeltaFor apply: strictly
  /// sequential rounds, one mode per run, and overrides must consume the
  /// identical RNG stream as TopologyFor so all three paths produce
  /// bit-identical topology sequences.
  virtual bool RoundEdgesInto(std::int64_t round, const AdversaryView& view,
                              std::vector<graph::Edge>& out);

  /// Certification fast path: adversaries whose rounds share pinned
  /// long-lived structure (spines) may expose how each round was
  /// assembled (graph::RoundComposition), letting the streaming
  /// T-interval checker certify windows by witness identity — one
  /// connectivity pass per *new* pinned set instead of per round — with
  /// no delta materialized anywhere. Contract: the return value of
  /// has_composition() is fixed for the adversary's lifetime; when true,
  /// Composition(r) must return non-null for the round most recently
  /// produced (via TopologyFor, DeltaFor or RoundEdgesInto), the claimed
  /// union must equal that round's edge list exactly (the checker
  /// cross-checks with sampled probes plus scheduled full verification and
  /// throws CheckError on divergence; tests pin exact equality), and the
  /// core/support spans must carry shared owners
  /// (RoundComposition::core_owner / support_owner): a consumer that needs
  /// a pinned set beyond the current round — the checker's spine cache —
  /// retains the owner instead of copying, so the buffer must not be
  /// mutated once published under an id (publish a fresh vector per era
  /// instead). Only the `fresh` span may be a per-round volatile buffer.
  [[nodiscard]] virtual bool has_composition() const { return false; }
  [[nodiscard]] virtual const graph::RoundComposition* Composition(
      std::int64_t round) const {
    (void)round;
    return nullptr;
  }

  /// True when TopologyFor never reads the view's node state (round and
  /// num_nodes are fine): the topology sequence is a pure function of the
  /// call sequence. The engine may then compute round r+1's topology
  /// concurrently with round r's deliver phase (prefetch) — calls stay
  /// strictly sequential and in round order either way, so the produced
  /// sequence is identical; only the wall-clock overlap changes. Adaptive
  /// adversaries (which sample PublicState mid-run) must return false.
  [[nodiscard]] virtual bool oblivious() const { return true; }

  /// Byte footprint of the adversary's generator buffers (held spines,
  /// assembly scratch, RNG state — whatever the implementation retains
  /// between rounds). Surfaced by the engine as the "adversary" memory
  /// gauge; must be a pure function of the call sequence (capacities, not
  /// timing-dependent scratch) so RunStats::memory stays deterministic.
  /// The default (0) opts out of accounting.
  [[nodiscard]] virtual std::int64_t BufferBytes() const { return 0; }

  /// Stable name for report rows.
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace sdn::net
