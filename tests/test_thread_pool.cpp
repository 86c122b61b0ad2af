// Tests for util/thread_pool.h.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

namespace pr {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, DefaultsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, StartsNoMoreWorkersThanTasks) {
  EXPECT_EQ(ThreadPool(64, 2).size(), 2u);
  EXPECT_EQ(ThreadPool(3, 10).size(), 3u);
  // Hardware concurrency, capped by one task.
  EXPECT_EQ(ThreadPool(0, 1).size(), 1u);
  // No tasks still leaves one worker for a later submit().
  ThreadPool idle(4, 0);
  ASSERT_EQ(idle.size(), 1u);
  EXPECT_EQ(idle.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "should not run"; });
}

TEST(ThreadPool, TaskExceptionPropagatesViaFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForRethrowsFirstError) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [&](std::size_t i) {
                                   if (i == 3) throw std::logic_error("bad");
                                 }),
               std::logic_error);
}

TEST(ThreadPool, ParallelMapPreservesOrder) {
  ThreadPool pool(3);
  const auto result = parallel_map<int>(
      pool, 50, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(result.size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(result[i], static_cast<int>(i * i));
  }
}

TEST(ThreadPool, ManyTasksComplete) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  pool.parallel_for(1000, [&](std::size_t i) {
    sum += static_cast<long>(i);
  });
  EXPECT_EQ(sum.load(), 999L * 1000 / 2);
}

}  // namespace
}  // namespace pr
