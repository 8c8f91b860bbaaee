#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace tdx {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), 100);
  }
}

TEST(ThreadPoolTest, WaitIsReusable) {
  std::atomic<int> counter{0};
  ThreadPool pool(2);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // no tasks: must not hang
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Wait: the destructor joins after the queue drains.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ClampsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, HardwareJobsIsPositive) {
  EXPECT_GE(ThreadPool::HardwareJobs(), 1u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (unsigned jobs : {1u, 2u, 5u, 16u}) {
    std::vector<std::atomic<int>> hits(37);
    EXPECT_TRUE(ParallelFor(jobs, hits.size(),
                            [&](std::size_t i) { hits[i].fetch_add(1); }));
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
    }
  }
}

TEST(ParallelForTest, ZeroCountIsANoOp) {
  std::atomic<int> counter{0};
  EXPECT_TRUE(ParallelFor(4, 0, [&](std::size_t) { counter.fetch_add(1); }));
  EXPECT_EQ(counter.load(), 0);
}

TEST(ParallelForTest, ResultsLandAtTheirIndex) {
  std::vector<int> out(100, -1);
  EXPECT_TRUE(ParallelFor(
      8, out.size(), [&](std::size_t i) { out[i] = static_cast<int>(i) * 3; }));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[i], i * 3);
}

}  // namespace
}  // namespace tdx
