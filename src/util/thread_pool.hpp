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
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace sdn::util {

/// Type-erased move-only callable. std::function demands copyability, but
/// auxiliary-lane tasks own per-round buffers (deltas, composition copies)
/// that are moved into the closure exactly once.
class UniqueTask {
 public:
  UniqueTask() = default;
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueTask>>>
  UniqueTask(F&& f)  // NOLINT(google-explicit-constructor)
      : impl_(std::make_unique<Model<std::decay_t<F>>>(std::forward<F>(f))) {}

  explicit operator bool() const { return impl_ != nullptr; }
  void operator()() { impl_->Run(); }

 private:
  struct Concept {
    virtual ~Concept() = default;
    virtual void Run() = 0;
  };
  template <typename F>
  struct Model final : Concept {
    explicit Model(F fn) : f(std::move(fn)) {}
    void Run() override { f(); }
    F f;
  };
  std::unique_ptr<Concept> impl_;
};

/// A persistent auxiliary lane: one dedicated thread draining a bounded
/// FIFO of tasks. This is the engine's overlap primitive — the topology
/// prefetch and the asynchronous certification queue each own one lane and
/// feed it one task per round, so overlap costs a queue handoff instead of
/// the thread launch per round that std::async paid.
///
/// Semantics:
///   - Submit() enqueues; it blocks while `capacity` tasks are already
///     queued or running (bounded-queue backpressure, so a slow consumer
///     can lag at most `capacity` rounds behind the producer).
///   - Drain() blocks until every submitted task has finished, then
///     rethrows the first task exception if any (once). After a task
///     throws, the tasks queued behind it are discarded — they would have
///     consumed state downstream of the failure.
///   - The destructor stops the lane without running still-queued tasks
///     (a task already executing finishes first). Callers that need the
///     results must Drain() before destruction.
///   - Single producer: Submit/Drain must be called from one thread.
///
/// The thread starts lazily on the first Submit, so an idle lane (overlap
/// disabled, serial engine) costs nothing.
class AuxLane {
 public:
  explicit AuxLane(std::size_t capacity = 1);
  ~AuxLane();

  AuxLane(const AuxLane&) = delete;
  AuxLane& operator=(const AuxLane&) = delete;

  void Submit(UniqueTask task);
  void Drain();
  /// True when no task is queued or running (error state counts as idle;
  /// Drain() still reports it).
  [[nodiscard]] bool idle() const;

 private:
  void Loop();

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable producer_cv_;  // queue has room / lane is idle
  std::condition_variable worker_cv_;    // queue non-empty / stop
  std::deque<UniqueTask> queue_;
  std::exception_ptr error_;  // first task exception; cleared by Drain
  bool running_ = false;      // a task is executing right now
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
