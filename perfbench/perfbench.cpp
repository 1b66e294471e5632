// Time-to-decide benchmark.
//
// Runs one named workload of hjswy-estimate at T=2 through the public
// sdn::Simulation facade, one run at a time (a closed loop with a single
// client), grades every run against ground truth and reports the wall time
// until every node has decided. Usage:
//
//   perfbench --workload ref-1k --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics from untraced runs: a fixed
// number of warm-up runs (graded, counted, not timed), then timed runs
// while the --seconds budget lasts.
// --trace 1 is a separate invocation that yields the per-layer metrics: it
// times the benchmark's own calls into each module's public functions —
// the facade (core), a forwarding adversary decorator (adversary), a
// forwarding node program (algo), each Step() and the engine's own
// RunStats::timings (net), a replay of the round stream through a
// benchmark-owned DynGraph and TIntervalChecker (graph), the metrics plane
// (obs) and the process high-water mark against util::MemoryBudget (util).
// The traced engine must reproduce the facade run's core RunStats exactly.
//
// The last stdout line is `RESULT {json}` with every metric computed; the
// run.py wrapper turns it into the benchmark's result line.
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/factory.hpp"
#include "algo/hjswy.hpp"
#include "algo/sketch_pool.hpp"
#include "core/api.hpp"
#include "core/simulation.hpp"
#include "layers.hpp"
#include "net/engine.hpp"
#include "obs/manifest.hpp"
#include "util/arena.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

using sdn::graph::NodeId;
namespace util = sdn::util;

constexpr int kT = 2;
constexpr std::uint64_t kDefaultSeed = 20220711;

// The per-run seed salts of sdn::Simulation (core/api.cpp). The traced
// engine rebuilds a facade run from them; the RunStats comparison proves
// the rebuild matches.
constexpr std::uint64_t kAdversarySalt = 0xadd5e5ULL;
constexpr std::uint64_t kProbeSalt = 0x9e0be5ULL;
constexpr std::uint64_t kNodeRngSalt = 0xb0b5ULL;

/// Bytes a delivery reads from a message: HjswyProgram::Message keeps its
/// whole bounded-regime read set in the first cache line.
constexpr double kMessageReadBytes = 64.0;

/// The traced run clocks the program calls of one node in this many and
/// scales the sums up. A steady_clock read costs about 40 ns on a 4-vCPU
/// Xeon VM; clocking every call added 20-60% to a round, and the nodes of
/// one workload run the same program on statistically alike inputs.
constexpr NodeId kTimedNodeStride = 16;

struct Workload {
  const char* name;
  NodeId n;
  const char* adversary;
  int flood_probes;
  int threads;  // EngineOptions::threads
  bool collect_metrics;
  /// The first `warmup_runs` runs always execute and are graded but not
  /// timed: the process and the host settle meanwhile (a host that was
  /// idle runs slow for its first seconds of load). The estimate error and
  /// the memory high-water mark are read over exactly these seeds, so they
  /// do not move when a faster build fits more timed runs into --seconds.
  int warmup_runs;
};

constexpr Workload kWorkloads[] = {
    {"ref-1k", 1024, "spine-gnp", 4, 1, false, 48},
    {"scale-64k", 65536, "spine-gnp", 0, 2, false, 1},
    {"adaptive-256", 256, "adaptive-desc", 4, 1, true, 32},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

sdn::RunConfig MakeConfig(const Workload& w, std::uint64_t seed) {
  sdn::RunConfig c;
  c.n = w.n;
  c.T = kT;
  c.seed = seed;
  c.adversary.kind = w.adversary;
  c.flood_probes = w.flood_probes;
  c.threads = w.threads;
  c.collect_metrics = w.collect_metrics;
  return c;
}

sdn::adversary::AdversaryConfig AdversaryConfigFor(const Workload& w,
                                                   std::uint64_t seed) {
  sdn::adversary::AdversaryConfig a = MakeConfig(w, seed).adversary;
  a.n = w.n;
  a.T = kT;
  a.seed = util::MixSeed(seed, kAdversarySalt);
  return a;
}

/// Run seeds of one invocation: a pure function of (workload, seed, index),
/// never repeating within the invocation.
class SeedStream {
 public:
  SeedStream(const Workload& w, std::uint64_t seed) {
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a of the name
    for (const char* p = w.name; *p != '\0'; ++p) {
      h = (h ^ static_cast<unsigned char>(*p)) * 1099511628211ULL;
    }
    base_ = util::MixSeed(seed, h);
  }
  std::uint64_t Next() { return util::MixSeed(base_, next_++); }

 private:
  std::uint64_t base_ = 0;
  std::uint64_t next_ = 0;
};

/// CPUs this process may run on (what `nproc` prints).
int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

/// Threads a run of `w` keeps busy: the caller plus threads-1 pool lanes,
/// and from two threads on the topology-prefetch lane (oblivious
/// adversaries) and the certification lane.
int ThreadsUsed(const Workload& w, bool oblivious) {
  if (w.threads <= 1) return 1;
  return w.threads + (oblivious ? 1 : 0) + 1;
}

/// This process image's peak RSS (VmHWM). getrusage's ru_maxrss would also
/// count the parent's RSS at fork, which exceeds a small workload's own.
double PeakRssMib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

double Mib(std::int64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The --seconds budget of a closed loop. Another() is asked once before
/// every iteration: yes while one more iteration, as long as the last one,
/// still ends inside the budget.
class Budget {
 public:
  explicit Budget(double seconds)
      : deadline_(Clock::now() +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds))),
        last_(Clock::now()) {}

  bool Another() {
    const auto now = Clock::now();
    const auto took = now - last_;
    last_ = now;
    return now + took <= deadline_;
  }

 private:
  Clock::time_point deadline_;
  Clock::time_point last_;
};

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return util::QuantileSorted(xs, q);
}

double Median(const std::vector<double>& xs) { return Quantile(xs, 0.5); }

std::int64_t PeakOf(const net::RunStats& stats, const std::string& subsystem) {
  for (const net::MemoryUse& m : stats.memory) {
    if (m.subsystem == subsystem) return m.peak_bytes;
  }
  return 0;
}

std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// ---------------------------------------------------------------------------
// One graded facade run.

struct FacadeRun {
  std::uint64_t seed = 0;
  double setup_s = 0.0;       // Simulation constructor
  double first_step_s = 0.0;  // first Step(): lazy engine start + round 1
  double decide_s = 0.0;      // first Step() until every node decided
  double grade_s = 0.0;       // Finish()
  bool failed = false;
  std::string failure;
  std::int64_t rounds = 0;
  double count_err = 0.0;
  std::int64_t audited_peak_bytes = 0;
  net::RunStats stats;
};

void Fail(FacadeRun& run, const std::string& why) {
  if (!run.failed) run.failure = why;
  run.failed = true;
}

/// A run fails when grading says so, when certification fell below T, when
/// it hit max_rounds, or when Step() or Finish() threw (bandwidth violation,
/// lying composition). Failures are counted; the workload carries on.
FacadeRun RunFacade(const Workload& w, std::uint64_t seed,
                    bool collect_metrics) {
  sdn::RunConfig config = MakeConfig(w, seed);
  config.collect_metrics = collect_metrics;
  util::MemoryBudget budget;
  config.memory_budget = &budget;
  FacadeRun run;
  run.seed = seed;
  const auto t0 = Clock::now();
  std::optional<sdn::Simulation> sim;
  sim.emplace(sdn::Algorithm::kHjswyEstimate, config);
  const auto t1 = Clock::now();
  auto t2 = t1;
  try {
    bool more = sim->Step();
    t2 = Clock::now();
    while (more) more = sim->Step();
  } catch (const std::exception& e) {
    Fail(run, std::string("Step() threw: ") + e.what());
  }
  const auto t3 = Clock::now();
  try {
    const sdn::RunResult result = sim->Finish();
    run.stats = result.stats;
    run.rounds = result.stats.rounds;
    if (!result.Ok()) Fail(run, "RunResult::Ok() is false");
    if (result.stats.certified_T < kT) Fail(run, "certified_T below T");
    if (result.stats.hit_max_rounds) Fail(run, "hit max_rounds");
    if (!result.count_max_rel_error.has_value()) {
      Fail(run, "no count estimate");
    } else {
      run.count_err = *result.count_max_rel_error;
    }
  } catch (const std::exception& e) {
    Fail(run, std::string("Finish() threw: ") + e.what());
  }
  const auto t4 = Clock::now();
  sim.reset();
  run.setup_s = Seconds(t0, t1);
  run.first_step_s = Seconds(t1, t2);
  run.decide_s = Seconds(t1, t3);
  run.grade_s = Seconds(t3, t4);
  run.audited_peak_bytes = budget.TotalPeakBytes();
  return run;
}

// ---------------------------------------------------------------------------
// Result line.

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void Add(std::string name, std::string unit, double value,
           std::string note = "") {
    metrics.push_back(
        {std::move(name), std::move(unit), value, std::move(note)});
  }
  void Problem(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }

  [[nodiscard]] std::string Json() const {
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      os << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
         << Num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
  }

  void Print(const char* title) const {
    std::printf("%s\n", title);
    for (const Metric& m : metrics) {
      std::printf("  %-26s %14.6g %-12s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    for (const std::string& p : problems) {
      std::printf("  PROBLEM: %s\n", p.c_str());
    }
  }
};

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.

Result RunUntraced(const Workload& w, std::uint64_t seed, double seconds) {
  SeedStream seeds(w, seed);
  std::set<std::uint64_t> adversary_seeds;
  std::int64_t repeats = 0;
  std::vector<FacadeRun> runs;
  double wall_s = 0.0;  // timed runs, set-up to teardown
  double rss_warm = 0.0;
  const auto warmup = static_cast<std::size_t>(w.warmup_runs);
  Budget budget(seconds);
  for (;;) {
    const bool in_budget = budget.Another();
    if (runs.size() > warmup && !in_budget) break;
    const std::uint64_t s = seeds.Next();
    if (!adversary_seeds.insert(util::MixSeed(s, kAdversarySalt)).second) {
      ++repeats;
    }
    const auto r0 = Clock::now();
    runs.push_back(RunFacade(w, s, w.collect_metrics));
    if (runs.size() > warmup) wall_s += Seconds(r0, Clock::now());
    runs.back().stats = {};  // only the fields read below are kept
    if (runs.size() == warmup) rss_warm = PeakRssMib();
  }

  Result r;
  r.attempted = static_cast<std::int64_t>(runs.size());
  std::vector<double> decide, setup, rounds;
  double count_err_max = 0.0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const FacadeRun& run = runs[i];
    if (run.failed) {
      ++r.failed;
      r.Problem("seed " + std::to_string(run.seed) + ": " + run.failure);
      continue;
    }
    rounds.push_back(static_cast<double>(run.rounds));
    if (i < warmup) {
      count_err_max = std::max(count_err_max, run.count_err);
    } else {
      decide.push_back(run.decide_s);
      setup.push_back(run.setup_s);
    }
  }
  r.Add("decide_s_p50", "s", Median(decide),
        "median of " + std::to_string(decide.size()) + " runs");
  // The highest percentile with at least ten runs beyond it.
  std::sort(decide.begin(), decide.end());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(decide.size())));
    if (rank == 0 || decide.size() - rank < 10) continue;
    r.Add("decide_s_tail", "s", decide[rank - 1],
          "p" + Num(p) + " of " + std::to_string(decide.size()) + " runs, " +
              std::to_string(decide.size() - rank) + " beyond");
    break;
  }
  r.Add("setup_s", "s", Median(setup), "median Simulation constructor");
  r.Add("runs_per_s", "1/s",
        static_cast<double>(runs.size() - warmup) / wall_s,
        "timed runs per second of their wall time");
  r.Add("peak_rss_mib", "MiB", rss_warm,
        "process high-water mark after the " + std::to_string(warmup) +
            " warm-up runs");
  r.Add("rounds_p50", "rounds", Median(rounds),
        "median of all " + std::to_string(rounds.size()) + " graded runs");
  r.Add("fail_ratio", "runs/runs",
        static_cast<double>(r.failed) / static_cast<double>(runs.size()),
        std::to_string(r.failed) + " of " + std::to_string(runs.size()));
  r.Add("count_err_max", "fraction", count_err_max,
        "worst |N^-N|/N over the warm-up runs");
  std::printf("adversary seeds repeating an earlier run's: %lld of %zu\n",
              static_cast<long long>(repeats), runs.size());
  return r;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics.

struct TracedRun {
  net::RunStats stats;
  bool failed = false;
  std::string failure;
  double decide_s = 0.0;
  std::vector<double> step_us;
  std::int64_t step_ns = 0;
  std::int64_t adversary_ns = 0;         // every timed generator call
  std::int64_t adversary_inline_ns = 0;  // those on the driving thread
  std::int64_t receive_ns = 0;  // program calls, summed over threads
  std::int64_t send_ns = 0;
  std::int64_t merges = 0;  // Σ ObsPhase().work: merges that changed state
  // Per-thread program time (sampled nodes, scaled to all): threads that
  // ran timed node-program calls, and the busiest one's time inside the
  // deliver phase and in total.
  int program_threads = 0;
  std::int64_t busiest_deliver_ns = 0;
  std::int64_t busiest_program_ns = 0;
  bool oblivious = true;
  std::vector<CapturedRound> stream;
};

/// The facade run of `seed`, rebuilt as net::Engine<TracedProgram> with the
/// adversary behind TracedAdversary (the facade cannot take the wrappers).
TracedRun RunTracedEngine(const Workload& w, std::uint64_t seed, SpanLog& log,
                          int run_id) {
  const sdn::RunConfig config = MakeConfig(w, seed);
  const std::unique_ptr<net::Adversary> inner =
      sdn::adversary::MakeAdversary(AdversaryConfigFor(w, seed));
  TracedAdversary adversary(*inner, /*capture=*/!inner->oblivious());
  const std::vector<algo::Value> inputs = sdn::MakeInputs(config.n, seed);
  algo::HjswyOptions hjswy = config.hjswy;
  hjswy.T = config.T;
  hjswy.exact_census = false;
  hjswy.strict = false;
  const util::Rng base(util::MixSeed(seed, kNodeRngSalt));
  algo::SketchPool pool(static_cast<std::size_t>(config.n),
                        algo::HjswyProgram::RequiredPoolColumns(hjswy));
  std::vector<TracedProgram> nodes;
  nodes.reserve(static_cast<std::size_t>(config.n));
  for (NodeId u = 0; u < config.n; ++u) {
    nodes.emplace_back(
        algo::HjswyProgram(u, inputs[static_cast<std::size_t>(u)], hjswy,
                           base.Fork(static_cast<std::uint64_t>(u)), &pool),
        u % kTimedNodeStride == 0);
  }
  const double scale =
      static_cast<double>(config.n) /
      static_cast<double>((config.n + kTimedNodeStride - 1) / kTimedNodeStride);
  net::EngineOptions opts;
  opts.max_rounds = config.max_rounds;
  opts.bandwidth =
      algo::HjswyProgram::InfoFor(hjswy).unbounded_msgs
          ? net::BandwidthPolicy::Unbounded()
          : net::BandwidthPolicy::BoundedLogN(config.bandwidth_multiplier);
  opts.flood_probes = config.flood_probes;
  opts.probe_seed = util::MixSeed(seed, kProbeSalt);
  opts.validate_tinterval = config.validate_tinterval;
  opts.fail_fast_on_tinterval = config.fail_fast_on_tinterval;
  opts.incremental_topology = config.incremental_topology;
  opts.delivery = config.delivery;
  opts.threads = config.threads;
  opts.prefetch_topology = config.prefetch_topology;
  opts.async_certification = config.async_certification;
  opts.fused_send_deliver = config.fused_send_deliver;
  opts.collect_metrics = config.collect_metrics;
  opts.anomaly = config.anomaly;
  opts.anomaly_options = config.anomaly_options;

  TracedRun out;
  out.oblivious = inner->oblivious();
  // Fused send engages for a DirectSendProgram under an oblivious adversary
  // (net/engine.hpp): sends after round 1 then run inside deliver.
  const bool fused = out.oblivious && opts.fused_send_deliver;
  LaneTimes::Get().Reset();
  const int run_span = log.Begin("run.traced", -1, run_id);
  {
    net::Engine<TracedProgram> engine(std::move(nodes), adversary, opts);
    const std::int64_t t0 = NowNs();
    try {
      while (!engine.finished()) {
        const int step = log.Begin("net.Step", run_span, run_id);
        adversary.set_step(step);
        engine.Step();
        log.End(step);
        const std::int64_t ns = log.at(step).ns();
        out.step_ns += ns;
        out.step_us.push_back(static_cast<double>(ns) / 1e3);
      }
    } catch (const std::exception& e) {
      out.failed = true;
      out.failure = std::string("Step() threw: ") + e.what();
    }
    out.decide_s = static_cast<double>(NowNs() - t0) / 1e9;
    try {
      out.stats = engine.stats();
    } catch (const std::exception& e) {
      out.failed = true;
      out.failure = std::string("stats() threw: ") + e.what();
    }
    for (NodeId u = 0; u < config.n; ++u) {
      out.merges += engine.node(u).ObsPhase().work;
    }
  }
  log.End(run_span);
  for (const LaneTime& lane : LaneTimes::Get().Snapshot()) {
    const auto scaled = [scale](std::int64_t ns) {
      return static_cast<std::int64_t>(static_cast<double>(ns) * scale);
    };
    out.receive_ns += scaled(lane.receive_ns);
    out.send_ns += scaled(lane.send_ns);
    const std::int64_t deliver = scaled(
        lane.receive_ns + (fused ? lane.send_ns - lane.first_send_ns : 0));
    out.busiest_deliver_ns = std::max(out.busiest_deliver_ns, deliver);
    out.busiest_program_ns = std::max(out.busiest_program_ns,
                                      scaled(lane.receive_ns + lane.send_ns));
    ++out.program_threads;
  }
  for (Span s : adversary.spans()) {
    out.adversary_ns += s.ns();
    if (s.lane == 0) out.adversary_inline_ns += s.ns();
    s.run = run_id;
    if (s.parent < 0) s.parent = run_span;
    log.Add(s);
  }
  out.stream = adversary.stream();
  return out;
}

/// Fields of RunStats that tracing must not move (timings and memory
/// gauges excepted).
std::string CoreStatsMismatch(const net::RunStats& a, const net::RunStats& b) {
  std::string diff;
  const auto field = [&diff](const char* name, auto x, auto y) {
    if (x != y) diff += std::string(diff.empty() ? "" : ", ") + name;
  };
  field("rounds", a.rounds, b.rounds);
  field("decide_round", a.decide_round, b.decide_round);
  field("messages_delivered", a.messages_delivered, b.messages_delivered);
  field("edges_processed", a.edges_processed, b.edges_processed);
  field("total_message_bits", a.total_message_bits, b.total_message_bits);
  field("certified_T", a.certified_T, b.certified_T);
  return diff;
}

bool PartitionHolds(const net::EngineTimings& t) {
  return t.topology_ns + t.validate_ns + t.probe_ns + t.send_ns +
             t.deliver_ns + t.other_ns ==
         t.total_ns;
}

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* note;
};

// Per-layer metrics, in report order. Times are per executed round unless
// the unit says otherwise; each is the median over the invocation's traced
// iterations.
constexpr LayerMetric kLayerMetrics[] = {
    {"core.build_ms", "ms", "Simulation constructor"},
    {"core.first_step_ms", "ms", "first Step(): lazy engine start + round 1"},
    {"core.grade_ms", "ms", "Finish()"},
    {"adversary.busy_us", "us/round", "DeltaFor/RoundEdgesInto/TopologyFor"},
    {"adversary.ns_per_edge", "ns/edge", "generator time per round edge"},
    {"adversary.churn_edges", "edges/round", "delta edges per round"},
    {"adversary.buffers_mib", "MiB", "BufferBytes() peak"},
    {"graph.apply_us", "us/round", "DynGraph Apply or CommitEdges (replay)"},
    {"graph.certify_us", "us/round", "PushComposition or PushDelta (replay)"},
    {"graph.witness_share", "rounds/rounds", "rounds certified by witness"},
    {"graph.topology_mib", "MiB", "live topology + scratch peak (replay)"},
    {"graph.checker_mib", "MiB", "TIntervalChecker::ApproxBytes peak"},
    {"algo.receive_us", "us/round", "OnReceive, summed over threads (1-in-16 nodes, scaled)"},
    {"algo.send_us", "us/round", "OnSend/OnSendInto, summed over threads (sampled)"},
    {"algo.useful_merge_ratio", "merges/msg", "state-changing merges per delivery"},
    {"algo.receive_bytes", "B/round", "computed, not measured: deliveries x 64 B + pool"},
    {"algo.sketch_pool_mib", "MiB", "SketchPool bytes"},
    {"net.step_us_p50", "us", "Step() from outside, per-run p50"},
    {"net.step_us_p99", "us", "Step() from outside, per-run p99"},
    {"net.topology_wait_us", "us/round", "RunStats timings.topology_ns"},
    {"net.validate_us", "us/round", "timings.validate_ns"},
    {"net.probe_us", "us/round", "timings.probe_ns"},
    {"net.send_us", "us/round", "timings.send_ns"},
    {"net.deliver_us", "us/round", "timings.deliver_ns"},
    {"net.other_us", "us/round", "timings.other_ns"},
    {"net.aux_topology_us", "us/round", "timings.aux_topology_ns (off path)"},
    {"net.aux_validate_us", "us/round", "timings.aux_validate_ns (off path)"},
    {"net.deliver_plumbing_us", "us/round", "deliver outside program calls, busiest lane"},
    {"net.program_threads", "count", "threads that ran timed node-program calls"},
    {"net.edges", "edges/round", "edges_processed / rounds"},
    {"net.deliveries", "msgs/round", "messages_delivered / rounds"},
    {"net.bits_per_msg", "bits/msg", "total_message_bits / messages_sent"},
    {"net.outbox_mib", "MiB", "outbox gauge peak"},
    {"net.programs_mib", "MiB", "programs gauge peak"},
    {"obs.anomalies", "count", "anomaly records fired, metrics-on run"},
    {"obs.plane_ratio", "ratio", "decide time metrics on / off, paired"},
    {"obs.plane_ratio_iqr", "ratio", "interquartile range of those pairs"},
    {"util.unaudited_rss_mib", "MiB", "peak RSS - peak audited by MemoryBudget"},
    {"trace.overhead_ratio", "ratio", "traced / untraced decide_s_p50, interleaved"},
    {"trace.unspanned_us", "us/round", "Step() outside adversary and busiest-lane program time"},
};

Result RunTraced(const Workload& w, std::uint64_t seed, double seconds,
                 SpanLog& log) {
  // Adversaries that draw spines from the process-wide memo pool
  // (adversary/spine.cpp) would be served from it on a second run of the
  // same seed. Every timed run therefore uses a fresh seed there, and the
  // paired arms of such a workload use distinct seeds (its decide rounds
  // do not depend on the seed); the invisibility check re-runs the traced
  // seed untimed. Other adversaries pair on one seed.
  const bool pool_backed = std::string(w.adversary).rfind("spine-", 0) == 0;
  SeedStream seeds(w, seed);
  Result r;
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> plane_ratio, base_decide, traced_decide, step_gap;
  std::int64_t audited_peak = 0;
  Budget budget(seconds);
  int run_id = 0;
  for (int iter = 0; iter == 0 || budget.Another(); ++iter) {
    const std::uint64_t base_seed = seeds.Next();
    const std::uint64_t traced_seed = pool_backed ? seeds.Next() : base_seed;
    const std::uint64_t plane_seed = pool_backed ? seeds.Next() : base_seed;

    // Timed arms, order alternating per iteration.
    FacadeRun base, plane;
    TracedRun traced;
    const auto run_base = [&] {
      const int span = log.Begin("run.facade", -1, run_id++);
      base = RunFacade(w, base_seed, w.collect_metrics);
      log.End(span);
    };
    const auto run_plane = [&] {
      const int span = log.Begin("run.facade.plane_toggled", -1, run_id++);
      plane = RunFacade(w, plane_seed, !w.collect_metrics);
      log.End(span);
    };
    const int traced_id = run_id++;
    if (iter % 2 == 0) {
      run_base();
      run_plane();
      traced = RunTracedEngine(w, traced_seed, log, traced_id);
    } else {
      traced = RunTracedEngine(w, traced_seed, log, traced_id);
      run_plane();
      run_base();
    }
    r.attempted += 3;
    FacadeRun check;
    const FacadeRun* reference = &base;
    if (traced_seed != base_seed) {
      const int span = log.Begin("run.facade.check", -1, run_id++);
      check = RunFacade(w, traced_seed, w.collect_metrics);
      log.End(span);
      reference = &check;
      ++r.attempted;
    }
    for (const FacadeRun* f : {&base, &plane, &check}) {
      if (f->failed) {
        ++r.failed;
        r.Problem("seed " + std::to_string(f->seed) + ": " + f->failure);
      }
      audited_peak = std::max(audited_peak, f->audited_peak_bytes);
    }

    // Tracing stays invisible: the wrapped engine reproduces the facade.
    const net::RunStats& ts = traced.stats;
    std::string mismatch = traced.failed
                               ? traced.failure
                               : CoreStatsMismatch(ts, reference->stats);
    if (mismatch.empty() && (!ts.all_decided || ts.certified_T < kT ||
                             ts.hit_max_rounds || !ts.tinterval_ok)) {
      mismatch = "traced run not graded ok";
    }
    if (!mismatch.empty()) {
      ++r.failed;
      r.Problem("traced seed " + std::to_string(traced_seed) +
                " differs from the facade run: " + mismatch);
      continue;
    }

    // Reconciliation: the engine's phases partition total_ns, and the
    // outside Step() spans cover the traced decide wall time.
    if (!PartitionHolds(base.stats.timings) || !PartitionHolds(ts.timings)) {
      r.Problem("EngineTimings phases do not sum to total_ns");
    }
    step_gap.push_back(1.0 - static_cast<double>(traced.step_ns) /
                                 (traced.decide_s * 1e9));

    // Graph layer: replay the traced seed's round stream.
    const int replay_span = log.Begin("run.graph_replay", -1, run_id);
    GraphLayer g;
    if (traced.oblivious) {
      const std::unique_ptr<net::Adversary> fresh =
          sdn::adversary::MakeAdversary(AdversaryConfigFor(w, traced_seed));
      g = ReplayRegenerated(*fresh, ts.rounds, log, replay_span, run_id);
    } else {
      g = ReplayCaptured(traced.stream, w.n, kT, log, replay_span, run_id);
    }
    log.End(replay_span);
    ++run_id;
    if (g.rounds != ts.rounds || !g.ok || g.certified_T != ts.certified_T) {
      r.Problem("graph replay of seed " + std::to_string(traced_seed) +
                " disagrees with the engine's certification");
    }

    const net::RunStats& bs = base.stats;
    const auto rounds = static_cast<double>(ts.rounds);
    const auto base_rounds = static_cast<double>(bs.rounds);
    const auto us_per = [](std::int64_t ns, double per) {
      return static_cast<double>(ns) / 1e3 / per;
    };
    const auto put = [&samples](const char* name, double v) {
      samples[name].push_back(v);
    };
    put("core.build_ms", base.setup_s * 1e3);
    put("core.first_step_ms", base.first_step_s * 1e3);
    put("core.grade_ms", base.grade_s * 1e3);
    put("adversary.busy_us", us_per(traced.adversary_ns, rounds));
    put("adversary.ns_per_edge", static_cast<double>(traced.adversary_ns) /
                                     static_cast<double>(ts.edges_processed));
    put("adversary.churn_edges",
        static_cast<double>(g.churn_edges) / static_cast<double>(g.rounds));
    put("adversary.buffers_mib", Mib(PeakOf(bs, "adversary")));
    put("graph.apply_us", us_per(g.apply_ns, static_cast<double>(g.rounds)));
    put("graph.certify_us",
        us_per(g.certify_ns, static_cast<double>(g.rounds)));
    put("graph.witness_share",
        static_cast<double>(g.witness_rounds) / static_cast<double>(g.rounds));
    put("graph.topology_mib", Mib(g.topology_peak_bytes));
    put("graph.checker_mib", Mib(g.checker_peak_bytes));
    put("algo.receive_us", us_per(traced.receive_ns, rounds));
    put("algo.send_us", us_per(traced.send_ns, rounds));
    put("algo.useful_merge_ratio",
        static_cast<double>(traced.merges) /
            static_cast<double>(ts.messages_delivered));
    put("algo.receive_bytes",
        static_cast<double>(ts.messages_delivered) / rounds *
                kMessageReadBytes +
            static_cast<double>(PeakOf(bs, "sketch_pool")));
    put("algo.sketch_pool_mib", Mib(PeakOf(bs, "sketch_pool")));
    put("net.step_us_p50", Quantile(traced.step_us, 0.50));
    put("net.step_us_p99", Quantile(traced.step_us, 0.99));
    put("net.topology_wait_us", us_per(bs.timings.topology_ns, base_rounds));
    put("net.validate_us", us_per(bs.timings.validate_ns, base_rounds));
    put("net.probe_us", us_per(bs.timings.probe_ns, base_rounds));
    put("net.send_us", us_per(bs.timings.send_ns, base_rounds));
    put("net.deliver_us", us_per(bs.timings.deliver_ns, base_rounds));
    put("net.other_us", us_per(bs.timings.other_ns, base_rounds));
    put("net.aux_topology_us",
        us_per(bs.timings.aux_topology_ns, base_rounds));
    put("net.aux_validate_us",
        us_per(bs.timings.aux_validate_ns, base_rounds));
    put("net.deliver_plumbing_us",
        us_per(ts.timings.deliver_ns - traced.busiest_deliver_ns, rounds));
    put("net.program_threads", traced.program_threads);
    put("net.edges", static_cast<double>(ts.edges_processed) / rounds);
    put("net.deliveries", static_cast<double>(ts.messages_delivered) / rounds);
    put("net.bits_per_msg", static_cast<double>(ts.total_message_bits) /
                                static_cast<double>(ts.messages_sent));
    put("net.outbox_mib", Mib(PeakOf(bs, "outbox")));
    put("net.programs_mib", Mib(PeakOf(bs, "programs")));
    const FacadeRun& metrics_on = w.collect_metrics ? base : plane;
    const FacadeRun& metrics_off = w.collect_metrics ? plane : base;
    put("obs.anomalies",
        static_cast<double>(metrics_on.stats.anomalies.size()));
    for (const sdn::obs::AnomalyRecord& a : metrics_on.stats.anomalies) {
      std::printf("anomaly: seed %llu round %lld signal %s value %lld > %lld\n",
                  static_cast<unsigned long long>(metrics_on.seed),
                  static_cast<long long>(a.round), a.signal,
                  static_cast<long long>(a.value),
                  static_cast<long long>(a.threshold));
    }
    plane_ratio.push_back(metrics_on.decide_s / metrics_off.decide_s);
    base_decide.push_back(base.decide_s);
    traced_decide.push_back(traced.decide_s);
    put("trace.unspanned_us",
        us_per(traced.step_ns - traced.adversary_inline_ns -
                   traced.busiest_program_ns,
               rounds));
  }

  // The gap is the loop's own bookkeeping between steps plus whatever the
  // host stole there; a single descheduled run must not fail the check.
  const double gap_p50 = Median(step_gap);
  std::printf("traced iterations: %zu; Step() spans cover %s of traced decide "
              "time (median; worst %s)\n",
              traced_decide.size(), Num(1.0 - gap_p50).c_str(),
              Num(1.0 - Quantile(step_gap, 1.0)).c_str());
  if (gap_p50 < 0.0 || gap_p50 > 0.01) {
    r.Problem("Step() spans cover " + Num(1.0 - gap_p50) +
              " of the traced decide time (median)");
  }
  const double plane_p50 = Median(plane_ratio);
  for (const LayerMetric& m : kLayerMetrics) {
    const std::string name = m.name;
    double v = 0.0;
    if (name == "obs.plane_ratio") {
      v = plane_p50;
    } else if (name == "obs.plane_ratio_iqr") {
      v = Quantile(plane_ratio, 0.75) - Quantile(plane_ratio, 0.25);
    } else if (name == "trace.overhead_ratio") {
      v = Median(traced_decide) / Median(base_decide);
    } else if (name == "util.unaudited_rss_mib") {
      v = PeakRssMib() - Mib(audited_peak);
    } else if (const auto it = samples.find(name); it != samples.end()) {
      v = Median(it->second);
    } else {
      continue;  // no clean iteration: already reported as a problem
    }
    r.Add(name, m.unit, v, m.note);
  }
  return r;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  sdn::util::Flags flags(argc, argv);
  const std::string name = flags.GetString("workload", "", "workload name");
  const auto seed = static_cast<std::uint64_t>(
      flags.GetInt("seed", static_cast<std::int64_t>(kDefaultSeed),
                   "workload seed; run seeds derive from it"));
  const double seconds =
      flags.GetDouble("seconds", 10.0, "measurement time budget");
  const std::int64_t trace = flags.GetInt("trace", 0, "1 = per-layer mode");
  const std::string spans_out =
      flags.GetString("spans-out", "", "traced mode: span log JSON path");
  if (!flags.UnconsumedFlags().empty() || !flags.positional().empty()) {
    std::fprintf(stderr, "%s", flags.Usage(argv[0]).c_str());
    return 2;
  }
  const Workload* w = FindWorkload(name);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", name.c_str());
    for (const Workload& k : kWorkloads) std::fprintf(stderr, " %s", k.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const bool oblivious =
      sdn::adversary::MakeAdversary(AdversaryConfigFor(*w, seed))->oblivious();
  const int used = ThreadsUsed(*w, oblivious);
  const int nproc = Nproc();
  if (used > nproc) {
    std::fprintf(stderr,
                 "workload %s keeps %d threads busy but nproc is %d; refusing "
                 "to run it oversubscribed\n",
                 w->name, used, nproc);
    return 3;
  }

  sdn::obs::RunManifest manifest = sdn::obs::RunManifest::Collect();
  manifest.Set("workload", w->name);
  manifest.Set("seed", std::to_string(seed));
  manifest.Set("trace", static_cast<long long>(trace));
  manifest.Set("nproc", static_cast<long long>(nproc));
  manifest.Set("threads_used", static_cast<long long>(used));
  manifest.Set("engine_threads", static_cast<long long>(w->threads));
  std::printf("manifest %s\n", manifest.ToJson().c_str());
  std::printf("workload %s: n=%d adversary=%s T=%d probes=%d engine threads=%d "
              "(%d busy) metrics=%s, closed loop, 1 client\n",
              w->name, w->n, w->adversary, kT, w->flood_probes, w->threads,
              used, w->collect_metrics ? "on" : "off");

  Result result;
  if (trace == 0) {
    result = RunUntraced(*w, seed, seconds);
    result.Print("end-to-end metrics (untraced):");
  } else {
    SpanLog log;
    result = RunTraced(*w, seed, seconds, log);
    result.Print("per-layer metrics (traced):");
    if (!spans_out.empty() &&
        !log.WriteJson(spans_out, manifest.ToJson(), result.Json())) {
      std::fprintf(stderr, "cannot write %s\n", spans_out.c_str());
      return 1;
    }
  }
  std::fflush(stdout);
  std::printf("RESULT %s\n", result.Json().c_str());
  return 0;
}
