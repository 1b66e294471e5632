// Public facade: one-call experiment runs.
//
// sdn::RunAlgorithm builds the adversary, instantiates the chosen node
// program at every node, executes the lock-step engine, and grades the
// outputs against ground truth (the harness knows N and the inputs; the
// nodes of course do not). Benches, examples and integration tests all go
// through this API.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "adversary/factory.hpp"
#include "algo/census.hpp"
#include "algo/common.hpp"
#include "algo/hjswy.hpp"
#include "net/bandwidth.hpp"
#include "net/metrics.hpp"
#include "net/program.hpp"
#include "obs/anomaly.hpp"
#include "obs/recorder.hpp"
#include "util/arena.hpp"

namespace sdn::net {
struct EngineOptions;
}  // namespace sdn::net

namespace sdn {

/// The algorithm zoo (DESIGN.md §4).
enum class Algorithm {
  /// O(N) Max baseline; requires known N.
  kFloodMaxKnownN,
  /// O(N) Consensus baseline; requires known N.
  kFloodConsensusKnownN,
  /// The original KLO k-committee protocol (STOC'10), faithful structure:
  /// exact, deterministic, O(N²).
  kKloCommittee,
  /// KLO-style census, pipeline window 1: the O(N²) classic baseline.
  kKloCensus1,
  /// KLO-style census using the adversary's T: O(N + N²/T) shape.
  kKloCensusT,
  /// hjswy reconstruction, bounded O(log N)-bit messages: Max/Consensus
  /// exact whp, Count (1±ε). Õ(T·d·polylog N) rounds.
  kHjswyEstimate,
  /// hjswy with unbounded census messages: Count exact whp too.
  kHjswyCensus,
  /// hjswy strict fallback: accepts only once the horizon covers the
  /// estimated N (linear-safe envelope).
  kHjswyStrict,
};

const char* ToString(Algorithm algorithm);
std::vector<Algorithm> AllAlgorithms();

struct RunConfig {
  graph::NodeId n = 64;
  int T = 2;
  std::uint64_t seed = 1;
  /// Adversary selection; n/T/seed are overwritten from the fields above.
  adversary::AdversaryConfig adversary{};
  /// Node inputs; empty -> pseudo-random values derived from `seed`.
  std::vector<algo::Value> inputs;
  std::int64_t max_rounds = 5'000'000;
  /// Bounded-regime budget multiplier (bits = multiplier·log2 N).
  double bandwidth_multiplier = 64.0;
  int flood_probes = 4;
  /// Streaming T-interval validation of the adversary. Cheap enough to
  /// stay on everywhere (composition-claiming adversaries are certified by
  /// witness, others by the delta path's edge-age table; docs/PERF.md
  /// "Certification"). Turning it off is an explicit waiver: the result
  /// then reports certification as waived rather than vacuously ok.
  bool validate_tinterval = true;
  /// Stop the run at the first T-interval violation instead of streaming
  /// to the end (EngineOptions::fail_fast_on_tinterval): Step() throws
  /// CheckError with the violating window, same shape as a bandwidth
  /// violation.
  bool fail_fast_on_tinterval = false;
  /// Kept only while perfbench assigns it; false throws CheckError.
  bool incremental_topology = true;
  /// Inbox backing for all-sender rounds (net::DeliveryMode): kDense
  /// (default) indexes the outbox through the CSR neighbor span, kGather
  /// forces the pointer gather, the dense path's test reference.
  /// Bit-identical results in both modes.
  net::DeliveryMode delivery = net::DeliveryMode::kDense;
  /// Engine threads (EngineOptions::threads): 0 = hardware, 1 = the serial
  /// engine, k > 1 at n >= 128 = the pooled engine, which shards send,
  /// deliver and the CSR fill and runs each pipelining overlap whose
  /// precondition holds (docs/PERF.md "Pipelining"). Not a thread cap:
  /// idle pool workers steal. Results are bit-identical at any setting;
  /// RunTrials additionally budgets this against its outer trial workers
  /// when left at 0 (auto), so sweeps don't oversubscribe.
  int threads = 0;
  /// Kept only while perfbench assigns it; false throws CheckError.
  bool prefetch_topology = true;
  /// Kept only while perfbench assigns it; false throws CheckError.
  bool async_certification = true;
  /// Kept only while perfbench assigns it; false throws CheckError.
  bool fused_send_deliver = true;
  /// Knobs for the hjswy suite (T / exact_census / strict are synced from
  /// the algorithm choice and the T above).
  algo::HjswyOptions hjswy{};
  /// Knobs for the census baselines (pipeline_T synced from the choice).
  algo::CensusOptions census{};
  /// Flight recorder handed to the engine (EngineOptions::recorder). Null =
  /// tracing off (the zero-overhead default). Must outlive the run. The
  /// recorder is a single-writer sink: RunTrials attaches it to the first
  /// seed's trial only, so parallel trials never write to one ring at once.
  obs::FlightRecorder* recorder = nullptr;
  /// Collect the per-round metrics registry into RunStats::metrics
  /// (EngineOptions::collect_metrics).
  bool collect_metrics = false;
  /// Anomaly plane (EngineOptions::anomaly): on by default, but it only
  /// engages together with collect_metrics — it lives behind the same
  /// registry gate. Fired records land in RunStats::anomalies.
  bool anomaly = true;
  /// Rule thresholds / cooldown / dump policy (obs::AnomalyOptions).
  obs::AnomalyOptions anomaly_options{};
  /// Byte-accounting sink shared by the engine and the run's caller-side
  /// subsystems (sketch pool). Null = the engine's internal budget is used
  /// and RunStats::memory still reports the engine subsystems. Must
  /// outlive the run.
  util::MemoryBudget* memory_budget = nullptr;
};

/// Graded result of one run.
struct RunResult {
  std::string algorithm;
  std::string adversary;
  graph::NodeId n = 0;
  int T = 1;
  std::uint64_t seed = 0;
  net::RunStats stats;
  /// The run was configured with validate_tinterval = false: the caller
  /// explicitly waived certification, so Ok() does not demand a verified
  /// promise. Without this waiver an unvalidated run is NOT Ok — a vacuous
  /// tinterval_ok must not read as a certified one.
  bool tinterval_waived = false;

  /// Ground truth.
  std::int64_t expected_count = 0;
  algo::Value expected_max = 0;

  /// Per-problem grading; nullopt = the algorithm does not answer it.
  std::optional<bool> count_exact;       // every node output == N
  std::optional<double> count_max_rel_error;  // estimate algorithms
  std::optional<bool> max_correct;
  /// track_sum extension: worst relative error of the Σ max(0,input)
  /// estimate across nodes.
  std::optional<double> sum_max_rel_error;
  std::optional<bool> consensus_agreement;    // all outputs equal
  std::optional<bool> consensus_valid;        // decided value is some input

  /// True when every node decided and every applicable problem was solved
  /// correctly (estimates don't count against this; see count_max_rel_error).
  [[nodiscard]] bool Ok() const;
};

/// Deterministic pseudo-random inputs for n nodes.
std::vector<algo::Value> MakeInputs(graph::NodeId n, std::uint64_t seed);

/// The one mapping from a RunConfig to the engine's options, for the
/// algorithm `info` describes (its message regime picks the bandwidth
/// policy). Every facade run goes through it. The result type is defined
/// in net/engine.hpp.
net::EngineOptions EngineOptionsFor(const RunConfig& config,
                                    const algo::AlgoInfo& info);

/// Executes one run. CheckError on invalid configuration.
RunResult RunAlgorithm(Algorithm algorithm, const RunConfig& config);

/// Runs `seeds.size()` independent trials (config.seed replaced per trial).
/// `threads` is the *total* thread budget (0 = hardware concurrency): up to
/// min(threads, #seeds) trials run concurrently, and when config.threads is
/// 0 (auto) each trial's engine gets the remaining budget/outer lanes, so
/// outer-trials × inner-threads never oversubscribes the machine. A pinned
/// config.threads is respected as-is. A failing trial is attributed to its
/// seed in the thrown CheckError.
std::vector<RunResult> RunTrials(Algorithm algorithm, const RunConfig& config,
                                 const std::vector<std::uint64_t>& seeds,
                                 int threads = 0);

}  // namespace sdn
