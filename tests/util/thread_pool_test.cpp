// Thread-pool contract tests: every index runs exactly once, results land
// in their own slots (the determinism contract the DSE layers rely on),
// exceptions propagate, nesting degrades to inline serial execution and the
// 1-thread pool never spawns; stream_for runs each index only once it is
// published and cannot be hung by a failing producer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace clrearly::util {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);

  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, PerSlotResultsMatchSerialLoop) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 512;
  std::vector<double> parallel(kN), serial(kN);
  auto f = [](std::size_t i) {
    double acc = 0.0;
    for (std::size_t k = 0; k <= i % 97; ++k) acc += static_cast<double>(k) * 0.5;
    return acc;
  };
  pool.parallel_for(kN, [&](std::size_t i) { parallel[i] = f(i); });
  for (std::size_t i = 0; i < kN; ++i) serial[i] = f(i);
  EXPECT_EQ(parallel, serial);
}

TEST(ThreadPoolTest, ZeroIterationsIsANoop) {
  ThreadPool pool(4);
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(16, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // unsynchronized on purpose: must be the caller
  });
  std::vector<std::size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i % 7 == 3) {
                            throw std::runtime_error("boom at " +
                                                     std::to_string(i));
                          }
                        }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionDoesNotPoisonThePool) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   8, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  // The pool must still process a clean batch afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, SerialFallbackPropagatesException) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(
                   4, [](std::size_t) { throw std::invalid_argument("bad"); }),
               std::invalid_argument);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 32;
  std::vector<std::vector<int>> inner_hits(kOuter,
                                           std::vector<int>(kInner, 0));
  pool.parallel_for(kOuter, [&](std::size_t o) {
    const std::thread::id executor = std::this_thread::get_id();
    // A nested call must run serially on the same thread — no handoff back
    // into the queue (which could deadlock), no concurrent inner writers.
    pool.parallel_for(kInner, [&, executor](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), executor);
      inner_hits[o][i] += 1;
    });
  });
  for (const auto& row : inner_hits) {
    for (int hits : row) EXPECT_EQ(hits, 1);
  }
}

TEST(ThreadPoolTest, NestedCallOnGlobalPoolIsAlsoInline) {
  set_thread_count(4);
  std::atomic<int> total{0};
  parallel_for(8, [&](std::size_t) {
    const std::thread::id executor = std::this_thread::get_id();
    parallel_for(4, [&, executor](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), executor);
      total.fetch_add(1);
    });
  });
  EXPECT_EQ(total.load(), 32);
  set_thread_count(0);
}

TEST(ThreadPoolTest, MoreIndicesThanThreadsAndViceVersa) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> few(3);
  pool.parallel_for(3, [&](std::size_t i) { few[i].fetch_add(1); });
  for (auto& hit : few) EXPECT_EQ(hit.load(), 1);

  std::vector<std::atomic<int>> many(10000);
  pool.parallel_for(10000, [&](std::size_t i) { many[i].fetch_add(1); });
  for (auto& hit : many) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, ThreadEnvParsingRejectsGarbageAndNegatives) {
  // "-1" must defer, not wrap to ULONG_MAX worth of threads.
  EXPECT_EQ(detail::parse_thread_env(nullptr), 0u);
  EXPECT_EQ(detail::parse_thread_env(""), 0u);
  EXPECT_EQ(detail::parse_thread_env("-1"), 0u);
  EXPECT_EQ(detail::parse_thread_env("-"), 0u);
  EXPECT_EQ(detail::parse_thread_env("4x"), 0u);
  EXPECT_EQ(detail::parse_thread_env("x4"), 0u);
  EXPECT_EQ(detail::parse_thread_env(" 4"), 0u);
  EXPECT_EQ(detail::parse_thread_env("0"), 0u);
  EXPECT_EQ(detail::parse_thread_env("4"), 4u);
  EXPECT_EQ(detail::parse_thread_env("16"), 16u);
}

TEST(ThreadPoolTest, SetThreadCountOverridesEnvironment) {
  // set_thread_count wins over CLREARLY_THREADS; 0 falls back to hardware.
  set_thread_count(3);
  EXPECT_EQ(effective_thread_count(), 3u);
  set_thread_count(1);
  EXPECT_EQ(effective_thread_count(), 1u);
  EXPECT_EQ(global_pool().thread_count(), 1u);
  set_thread_count(0);
  EXPECT_GE(effective_thread_count(), 1u);
}

TEST(ThreadPoolTest, GlobalPoolTracksConfiguredCount) {
  set_thread_count(2);
  EXPECT_EQ(global_pool().thread_count(), 2u);
  set_thread_count(5);
  EXPECT_EQ(global_pool().thread_count(), 5u);
  std::atomic<int> count{0};
  parallel_for(64, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
  set_thread_count(0);
}

TEST(ThreadPoolTest, ConcurrentTopLevelCallsShareTheWorkers) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 256;
  std::vector<int> a(kN, 0), b(kN, 0);
  std::thread other(
      [&] { pool.parallel_for(kN, [&](std::size_t i) { a[i] += 1; }); });
  pool.parallel_for(kN, [&](std::size_t i) { b[i] += 1; });
  other.join();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(a[i], 1);
    EXPECT_EQ(b[i], 1);
  }
}

/// A stream_for producer that makes `per_call` items at a time: item i is
/// the value 3 * i + 1, written to items[i] before it is published.
ThreadPool::Producer stepping_producer(std::vector<std::size_t>& items,
                                       std::size_t per_call) {
  return [&items, per_call](std::size_t ready) {
    const std::size_t more = std::min(items.size(), ready + per_call);
    for (std::size_t i = ready; i < more; ++i) items[i] = 3 * i + 1;
    return more;
  };
}

TEST(ThreadPoolTest, StreamForRunsEachPublishedIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t n : {0u, 1u, 2u, 1000u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    std::vector<std::size_t> items(n, 0);
    std::vector<std::atomic<int>> hits(n);
    std::vector<std::size_t> seen(n, 0);
    pool.stream_for(n, stepping_producer(items, 1), [&](std::size_t i) {
      hits[i].fetch_add(1);
      seen[i] = items[i];  // published before the body may run
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
      EXPECT_EQ(seen[i], 3 * i + 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, StreamForProducerThrowReleasesWaitingWorkers) {
  // The producer fails after publishing k items while the workers wait for
  // item k: the exception must reach the caller within seconds, no index at
  // or past k may run, and the pool must serve the next call.
  ThreadPool pool(4);
  constexpr std::size_t kN = 100;
  constexpr std::size_t kPublished = 7;
  std::vector<std::atomic<int>> hits(kN);
  std::future<void> call = std::async(std::launch::async, [&] {
    pool.stream_for(
        kN,
        [&](std::size_t ready) -> std::size_t {
          if (ready == kPublished) throw std::runtime_error("producer failed");
          return ready + 1;
        },
        [&](std::size_t i) { hits[i].fetch_add(1); });
  });
  ASSERT_EQ(call.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "a throwing producer left the pool waiting";
  EXPECT_THROW(call.get(), std::runtime_error);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), i < kPublished ? 1 : 0) << "index " << i;
  }

  std::atomic<int> count{0};
  pool.parallel_for(64, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, StreamForRejectsAProducerThatPublishesNothing) {
  ThreadPool pool(4);
  std::future<void> call = std::async(std::launch::async, [&] {
    pool.stream_for(
        10, [](std::size_t ready) { return ready == 0 ? 3 : ready; },
        [](std::size_t) {});
  });
  ASSERT_EQ(call.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_THROW(call.get(), std::logic_error);
}

TEST(ThreadPoolTest, StreamForPropagatesABodyException) {
  ThreadPool pool(4);
  std::vector<std::size_t> items(200, 0);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.stream_for(200, stepping_producer(items, 2),
                               [&](std::size_t i) {
                                 ran.fetch_add(1);
                                 if (i == 50) throw std::invalid_argument("50");
                               }),
               std::invalid_argument);
  // A body exception does not stop the stream: every index still ran.
  EXPECT_EQ(ran.load(), 200);
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, StreamForRunsInlineInIndexOrderOnOneThreadAndNested) {
  // A 1-thread pool and a call nested in a parallel_for body both produce
  // and consume on the calling thread: each producer call, then the bodies
  // of the items it published, in index order.
  const std::vector<std::string> expected{"p0", "b0", "b1", "p2", "b2",
                                          "b3", "p4", "b4"};
  const auto trace_stream = [](ThreadPool& pool) {
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::string> events;
    pool.stream_for(
        5,
        [&](std::size_t ready) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          events.push_back("p" + std::to_string(ready));
          return std::min<std::size_t>(5, ready + 2);
        },
        [&](std::size_t i) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          events.push_back("b" + std::to_string(i));
        });
    return events;
  };

  ThreadPool single(1);
  EXPECT_EQ(trace_stream(single), expected);

  ThreadPool pool(4);
  std::vector<std::vector<std::string>> nested(8);
  pool.parallel_for(nested.size(),
                    [&](std::size_t o) { nested[o] = trace_stream(pool); });
  for (const auto& events : nested) EXPECT_EQ(events, expected);
}

TEST(ThreadPoolTest, TwoThreadsStreamingOnOnePoolBothFinish) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 2000;
  std::vector<std::size_t> items_a(kN, 0), items_b(kN, 0);
  std::vector<std::atomic<int>> hits_a(kN), hits_b(kN);
  const auto stream = [&](std::vector<std::size_t>& items,
                          std::vector<std::atomic<int>>& hits) {
    pool.stream_for(kN, stepping_producer(items, 1),
                    [&](std::size_t i) {
                      if (items[i] == 3 * i + 1) hits[i].fetch_add(1);
                    });
  };
  std::future<void> other = std::async(std::launch::async,
                                       [&] { stream(items_a, hits_a); });
  stream(items_b, hits_b);
  ASSERT_EQ(other.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  other.get();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits_a[i].load(), 1) << "a " << i;
    EXPECT_EQ(hits_b[i].load(), 1) << "b " << i;
  }
}

}  // namespace
}  // namespace clrearly::util
