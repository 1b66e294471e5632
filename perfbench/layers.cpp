#include "layers.hpp"

#include <algorithm>
#include <cstdio>

#include "graph/tinterval.hpp"

namespace perfbench {

bool SpanLog::WriteJson(const std::string& path,
                        const std::string& manifest_json,
                        const std::string& summary_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"manifest\": %s,\n \"summary\": %s,\n \"spans\": [\n",
               manifest_json.c_str(), summary_json.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "  [\"%s\", %lld, %lld, %d, %d, %d]%s\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.run, s.lane,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, " ]}\n");
  return std::fclose(f) == 0;
}

LaneTimes& LaneTimes::Get() {
  static LaneTimes lanes;
  return lanes;
}

LaneTimes::LaneTimes() {
  std::vector<std::int64_t> pairs(1001);
  for (std::int64_t& d : pairs) {
    const std::int64_t t0 = NowNs();
    d = NowNs() - t0;
  }
  std::nth_element(pairs.begin(), pairs.begin() + 500, pairs.end());
  clock_ns_ = pairs[500];
}

LaneTime& LaneTimes::Mine() {
  thread_local std::uint64_t epoch = 0;
  thread_local LaneTime* slot = nullptr;
  const std::uint64_t current = epoch_.load(std::memory_order_acquire);
  if (epoch != current) {
    const std::lock_guard<std::mutex> lock(mutex_);
    slot = &slots_.emplace_back();
    epoch = current;
  }
  return *slot;
}

void LaneTimes::Reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  slots_.clear();
  epoch_.fetch_add(1, std::memory_order_release);
}

std::vector<LaneTime> LaneTimes::Snapshot() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {slots_.begin(), slots_.end()};
}

TracedAdversary::TracedAdversary(net::Adversary& inner, bool capture)
    : inner_(inner),
      capture_(capture),
      stepping_thread_(std::this_thread::get_id()) {}

void TracedAdversary::Record(const char* name, std::int64_t start_ns) {
  const bool inline_call = std::this_thread::get_id() == stepping_thread_;
  spans_.push_back({name, start_ns, NowNs(),
                    inline_call ? step_.load(std::memory_order_relaxed) : -1,
                    -1, inline_call ? 0 : 1});
}

graph::Graph TracedAdversary::TopologyFor(std::int64_t round,
                                          const net::AdversaryView& view) {
  const std::int64_t t0 = NowNs();
  graph::Graph g = inner_.TopologyFor(round, view);
  Record("adversary.TopologyFor", t0);
  if (capture_) {
    stream_.push_back({true, {g.Edges().begin(), g.Edges().end()}, {}});
  }
  return g;
}

void TracedAdversary::DeltaFor(std::int64_t round,
                               const net::AdversaryView& view,
                               const graph::Graph& prev,
                               graph::TopologyDelta& out) {
  const std::int64_t t0 = NowNs();
  inner_.DeltaFor(round, view, prev, out);
  Record("adversary.DeltaFor", t0);
  if (capture_) stream_.push_back({false, {}, out});
}

bool TracedAdversary::RoundEdgesInto(std::int64_t round,
                                     const net::AdversaryView& view,
                                     std::vector<graph::Edge>& out) {
  const std::int64_t t0 = NowNs();
  const bool assigned = inner_.RoundEdgesInto(round, view, out);
  Record("adversary.RoundEdgesInto", t0);
  if (capture_ && assigned) stream_.push_back({true, out, {}});
  return assigned;
}

namespace {

/// View for regenerating an oblivious adversary's stream: such an adversary
/// reads only the round and the node count.
class ReplayView final : public net::AdversaryView {
 public:
  explicit ReplayView(graph::NodeId n) : n_(n) {}
  [[nodiscard]] std::int64_t round() const override { return round_; }
  [[nodiscard]] double PublicState(graph::NodeId) const override { return 0.0; }
  [[nodiscard]] graph::NodeId num_nodes() const override { return n_; }
  std::int64_t round_ = 0;

 private:
  graph::NodeId n_;
};

/// The benchmark-owned topology and certifier, fed one round at a time.
class Replayer {
 public:
  Replayer(graph::NodeId n, int T, SpanLog& log, int parent, int run)
      : n_(n), dyn_(n), checker_(n, T), log_(log), parent_(parent), run_(run) {}

  graph::DynGraph& dyn() { return dyn_; }

  /// Commits the edit buffer (already filled with the round's edge list).
  void CommitBuffer() {
    graph::DiffSorted(dyn_.View().Edges(), dyn_.EditBuffer(), delta_);
    const int s = log_.Begin("graph.CommitEdges", parent_, run_);
    dyn_.CommitEdges();
    log_.End(s);
    out_.apply_ns += log_.at(s).ns();
  }

  void ApplyDelta(const graph::TopologyDelta& delta) {
    delta_ = delta;
    const int s = log_.Begin("graph.Apply", parent_, run_);
    dyn_.Apply(delta_);
    log_.End(s);
    out_.apply_ns += log_.at(s).ns();
  }

  /// Certifies the committed round, by witness when `comp` is non-null.
  void Certify(const graph::RoundComposition* comp) {
    const int s = log_.Begin(
        comp != nullptr ? "graph.PushComposition" : "graph.PushDelta", parent_,
        run_);
    if (comp != nullptr) {
      checker_.PushComposition(*comp, dyn_.View());
      ++out_.witness_rounds;
    } else {
      checker_.PushDelta(delta_);
    }
    log_.End(s);
    out_.certify_ns += log_.at(s).ns();
    ++out_.rounds;
    out_.churn_edges += delta_.size();
    // The engine's "topology" gauge (edge list + CSR + offsets + delta)
    // plus the DynGraph's maintenance scratch.
    const std::int64_t topo =
        dyn_.View().num_edges() * static_cast<std::int64_t>(
                                      sizeof(graph::Edge) +
                                      2 * sizeof(graph::NodeId)) +
        static_cast<std::int64_t>(n_ + 1) *
            static_cast<std::int64_t>(sizeof(std::int64_t)) +
        delta_.size() * static_cast<std::int64_t>(sizeof(graph::Edge)) +
        dyn_.ScratchBytes();
    out_.topology_peak_bytes = std::max(out_.topology_peak_bytes, topo);
    out_.checker_peak_bytes =
        std::max(out_.checker_peak_bytes, checker_.ApproxBytes());
  }

  GraphLayer Finish() {
    out_.certified_T = checker_.certified_T();
    out_.ok = checker_.ok();
    return out_;
  }

 private:
  graph::NodeId n_;
  graph::DynGraph dyn_;
  graph::TIntervalChecker checker_;
  graph::TopologyDelta delta_;
  SpanLog& log_;
  int parent_;
  int run_;
  GraphLayer out_;
};

}  // namespace

GraphLayer ReplayRegenerated(net::Adversary& fresh, std::int64_t rounds,
                             SpanLog& log, int parent, int run) {
  const graph::NodeId n = fresh.num_nodes();
  Replayer replay(n, fresh.interval(), log, parent, run);
  ReplayView view(n);
  graph::TopologyDelta delta;
  bool direct = true;
  for (std::int64_t r = 1; r <= rounds; ++r) {
    view.round_ = r;
    // Same producer order as the engine: the direct edge list while the
    // adversary supplies one, its native delta otherwise.
    if (direct) {
      direct = fresh.RoundEdgesInto(r, view, replay.dyn().EditBuffer());
    }
    if (direct) {
      replay.CommitBuffer();
    } else {
      fresh.DeltaFor(r, view, replay.dyn().View(), delta);
      replay.ApplyDelta(delta);
    }
    replay.Certify(fresh.has_composition() ? fresh.Composition(r) : nullptr);
  }
  return replay.Finish();
}

GraphLayer ReplayCaptured(const std::vector<CapturedRound>& stream,
                          graph::NodeId n, int T, SpanLog& log, int parent,
                          int run) {
  Replayer replay(n, T, log, parent, run);
  for (const CapturedRound& round : stream) {
    if (round.full) {
      replay.dyn().EditBuffer() = round.edges;
      replay.CommitBuffer();
    } else {
      replay.ApplyDelta(round.delta);
    }
    replay.Certify(nullptr);
  }
  return replay.Finish();
}

}  // namespace perfbench
