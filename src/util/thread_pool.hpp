// Work-stealing thread pool for deterministic range parallelism.
//
// The engine's per-round send/deliver loops are embarrassingly parallel over
// node ranges, but their results must be bit-identical at any thread count.
// ParallelFor therefore does not hand out work by thread: it splits [0, n)
// into a caller-chosen number of contiguous *shards* whose boundaries depend
// only on (n, shards), invokes fn(shard, begin, end) exactly once per shard,
// and lets the caller merge per-shard results in shard (= node) order.
// Which thread ran which shard is unobservable in the output.
//
// Scheduling is work-stealing: each participating lane owns a contiguous
// block of shards behind an atomic cursor; a lane that drains its own block
// steals from the other lanes' cursors. The calling thread always
// participates (lane 0), so a pool with zero workers — or a ParallelFor
// capped to one lane — degrades to an ordinary sequential loop over the
// same shard boundaries, which is exactly the determinism story: the serial
// and parallel executions are the same computation in a different order.
//
// One process-wide pool (Shared()) is meant to be reused by every engine;
// concurrent ParallelFor calls from different threads (e.g. RunTrials'
// outer trial workers) interleave on the same workers, so total thread
// count stays bounded by pool size + callers instead of multiplying.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sdn::util {

/// A persistent auxiliary lane: one dedicated thread that runs at most one
/// task at a time. The engine's off-critical-path round work and a spine
/// adversary's era prep each own one lane, so overlap costs a handoff
/// instead of the thread launch per task that std::async paid.
///
/// Semantics:
///   - Submit() hands the lane its one task. The previous task must have
///     been drained first (checked).
///   - Drain() blocks until the task has finished, then rethrows the first
///     task exception, if any, on every call: a failed lane stays poisoned,
///     so no caller can go on past the failure. Submit() on a poisoned
///     lane runs nothing.
///   - The destructor stops the lane; a task already executing finishes
///     first, and a submitted one that has not started is dropped.
///     Callers that need the result must Drain() before destruction.
///   - Single producer: Submit/Drain must be called from one thread at a
///     time, ordered by the caller.
///
/// The thread starts lazily on the first Submit, so an idle lane (overlap
/// disabled, serial engine) costs nothing.
class AuxLane {
 public:
  AuxLane() = default;
  ~AuxLane();

  AuxLane(const AuxLane&) = delete;
  AuxLane& operator=(const AuxLane&) = delete;

  void Submit(std::function<void()> task);
  void Drain();

 private:
  void Loop();

  std::mutex mutex_;
  std::condition_variable producer_cv_;  // the task finished
  std::condition_variable worker_cv_;    // a task was submitted / stop
  std::function<void()> task_;  // submitted, not yet picked up
  bool busy_ = false;           // submitted and not yet finished
  std::exception_ptr error_;    // first task exception; never cleared
  bool stop_ = false;
  bool started_ = false;
  std::thread thread_;
};

class ThreadPool {
 public:
  /// fn(shard, begin, end): process the half-open index range [begin, end),
  /// which is shard number `shard` of the ParallelFor split.
  using RangeFn =
      std::function<void(int shard, std::int64_t begin, std::int64_t end)>;

  /// Pool with `workers` background threads (>= 0). The caller of
  /// ParallelFor is an extra lane, so `workers + 1` shards can run at once.
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Maximum concurrent lanes of one ParallelFor call: workers + the caller.
  [[nodiscard]] int lanes() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Process-wide pool, created on first use and sized so that lanes() ==
  /// max(2, hardware_concurrency): even a single-core host gets two lanes,
  /// so the parallel code path (and its determinism) is always exercised.
  static ThreadPool& Shared();

  /// Splits [0, n) into `shards` near-equal contiguous ranges
  /// ([n*s/shards, n*(s+1)/shards)) and invokes fn once per non-empty
  /// shard. `max_lanes` (clamped to lanes() and to `shards`) is the number
  /// of owner blocks the shards are pre-split into, not a thread cap: <= 1
  /// runs every shard inline on the caller, and above that every idle pool
  /// worker joins the call and steals, so up to lanes() threads run shards.
  /// Blocks until every shard completed. If any fn invocation throws, the
  /// first exception (in completion order) is rethrown after all running
  /// shards finish; remaining unclaimed shards still execute.
  void ParallelFor(std::int64_t n, int shards, int max_lanes,
                   const RangeFn& fn);

 private:
  struct Job;

  void WorkerLoop(int worker_index);
  /// Claims and runs one shard of `job`, preferring `lane`'s own block and
  /// stealing from the other lanes' cursors otherwise. False if every shard
  /// was already claimed.
  static bool RunOneShard(Job& job, int lane);
  static void ExecuteShard(Job& job, int shard);
  /// Pool-mutex-guarded scan for a job with unclaimed shards.
  [[nodiscard]] Job* PickClaimable();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: new job / stop
  std::condition_variable idle_cv_;  // callers: workers left my job
  std::vector<Job*> jobs_;           // active, owned by ParallelFor frames
  bool stop_ = false;
};

}  // namespace sdn::util
