#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "util/check.hpp"

namespace sdn::util {
namespace {

/// Runs fn over n items and returns per-index visit counts.
std::vector<int> VisitCounts(ThreadPool& pool, std::int64_t n, int shards,
                             int max_lanes) {
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  pool.ParallelFor(n, shards, max_lanes,
                   [&hits](int, std::int64_t begin, std::int64_t end) {
                     for (std::int64_t i = begin; i < end; ++i) {
                       hits[static_cast<std::size_t>(i)].fetch_add(1);
                     }
                   });
  std::vector<int> out;
  out.reserve(hits.size());
  for (const auto& h : hits) out.push_back(h.load());
  return out;
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  const std::vector<int> hits = VisitCounts(pool, 1000, 16, 4);
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ThreadPool, MoreShardsThanLanes) {
  ThreadPool pool(2);
  const std::vector<int> hits = VisitCounts(pool, 337, 32, 2);
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ThreadPool, FewerItemsThanShards) {
  ThreadPool pool(2);
  // Empty shards (begin == end) must be skipped, non-empty ones run once.
  const std::vector<int> hits = VisitCounts(pool, 5, 16, 3);
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ThreadPool, ZeroItemsIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, 4, 4, [&calls](int, std::int64_t, std::int64_t) {
    ++calls;
  });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ZeroWorkerPoolRunsOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.lanes(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  bool all_on_caller = true;
  pool.ParallelFor(100, 8, 8,
                   [&](int, std::int64_t, std::int64_t) {
                     all_on_caller =
                         all_on_caller && std::this_thread::get_id() == caller;
                   });
  EXPECT_TRUE(all_on_caller);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.ParallelFor(256, 8, 4,
                       [](int shard, std::int64_t, std::int64_t) {
                         if (shard == 5) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must stay fully usable after a failed job.
  const std::vector<int> hits = VisitCounts(pool, 256, 8, 4);
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ThreadPool, ShardBoundariesIndependentOfLaneCount) {
  // Determinism precondition: the (shard, begin, end) partition is a pure
  // function of (n, shards) — the lane count only changes who runs what.
  using Range = std::tuple<int, std::int64_t, std::int64_t>;
  ThreadPool pool(3);
  const auto partition = [&pool](int max_lanes) {
    std::mutex mu;
    std::vector<Range> ranges;
    pool.ParallelFor(777, 16, max_lanes,
                     [&](int shard, std::int64_t begin, std::int64_t end) {
                       const std::lock_guard<std::mutex> lock(mu);
                       ranges.emplace_back(shard, begin, end);
                     });
    std::sort(ranges.begin(), ranges.end());
    return ranges;
  };
  const std::vector<Range> serial = partition(1);
  const std::vector<Range> wide = partition(4);
  EXPECT_EQ(serial, wide);
}

TEST(ThreadPool, ConcurrentCallersShareThePool) {
  ThreadPool pool(3);
  std::vector<std::vector<int>> results(4);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < results.size(); ++c) {
    callers.emplace_back([&pool, &results, c] {
      results[c] = VisitCounts(pool, 500, 10, 4);
    });
  }
  for (std::thread& t : callers) t.join();
  for (const std::vector<int>& hits : results) {
    EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                            [](int h) { return h == 1; }));
  }
}

TEST(ThreadPool, SharedPoolIsASingletonWithAtLeastTwoLanes) {
  EXPECT_EQ(&ThreadPool::Shared(), &ThreadPool::Shared());
  EXPECT_GE(ThreadPool::Shared().lanes(), 2);
}

TEST(AuxLane, DrainOrdersEachTaskBeforeTheNextSubmit) {
  // One task at a time: Drain is the handoff, so the plain (non-atomic)
  // vector the lane writes is safe to read and extend here after it.
  AuxLane lane;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    lane.Submit([&order, i] { order.push_back(i); });
    lane.Drain();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(i) + 1);
    EXPECT_EQ(order.back(), i);
  }
}

TEST(AuxLane, SubmitBeforeDrainIsRejected) {
  // A lane holds at most one task; a second Submit without the Drain
  // between is a caller bug, not a queue.
  AuxLane lane;
  std::atomic<bool> release{false};
  lane.Submit([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  EXPECT_THROW(lane.Submit([] {}), CheckError);
  release = true;
  EXPECT_NO_THROW(lane.Drain());
}

TEST(AuxLane, FailedLaneStaysPoisoned) {
  // Drain rethrows the first task exception on every call, and a Submit
  // after the failure runs nothing: no caller goes on past a failed task.
  AuxLane lane;
  lane.Submit([] { throw std::runtime_error("first"); });
  for (int call = 0; call < 2; ++call) {
    SCOPED_TRACE("drain " + std::to_string(call));
    try {
      lane.Drain();
      ADD_FAILURE() << "Drain did not rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "first");
    }
  }
  bool ran = false;
  lane.Submit([&ran] { ran = true; });
  EXPECT_THROW(lane.Drain(), std::runtime_error);
  EXPECT_FALSE(ran);
}

TEST(AuxLane, DestructorWithNeverStartedLaneIsSafe) {
  // The worker thread starts lazily on the first Submit: a lane that never
  // saw one must destruct without joining a non-existent thread.
  AuxLane lane;
  EXPECT_NO_THROW(lane.Drain());  // nothing submitted, nothing to rethrow
}

TEST(AuxLane, DestructorJoinsTheRunningTask) {
  std::atomic<int> ran{0};
  std::atomic<bool> started{false};
  {
    AuxLane lane;
    lane.Submit([&ran, &started] {
      started = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++ran;
    });
    while (!started.load()) std::this_thread::yield();
    // The destructor runs while the task executes: it must finish first.
  }
  EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace sdn::util
