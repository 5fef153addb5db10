// util::MemoCache — the sharded memoization layer under the DSE hot paths.
// Covers the structural capacity bound, eviction accounting, hit/miss
// semantics, the disabled (capacity 0) pass-through, the process-wide
// registry/aggregation, the global capacity configuration, and concurrent
// insert/lookup through the thread pool (run under TSan in CI).
#include "util/memo_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace clrearly::util {
namespace {

Key128 key_of(std::uint64_t n) {
  return Key128Stream().add(n).digest();
}

using Cache = MemoCache<Key128, std::uint64_t, Key128Hash>;

TEST(HashStreamTest, DeterministicAndOrderSensitive) {
  EXPECT_EQ(HashStream().add(std::uint64_t{1}).add(std::uint64_t{2}).digest(),
            HashStream().add(std::uint64_t{1}).add(std::uint64_t{2}).digest());
  EXPECT_NE(HashStream().add(std::uint64_t{1}).add(std::uint64_t{2}).digest(),
            HashStream().add(std::uint64_t{2}).add(std::uint64_t{1}).digest());
  EXPECT_NE(HashStream(1).add(std::uint64_t{7}).digest(),
            HashStream(2).add(std::uint64_t{7}).digest());
}

TEST(HashStreamTest, NegativeZeroCanonicalizesToPositiveZero) {
  EXPECT_EQ(HashStream().add(-0.0).digest(), HashStream().add(0.0).digest());
  EXPECT_NE(HashStream().add(0.0).digest(), HashStream().add(1.0).digest());
}

TEST(Key128Test, CollisionSmokeOverSequentialAndRandomWords) {
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  std::uint64_t state = 0x1234;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    // Half sequential (worst case for weak mixers), half pseudo-random.
    const std::uint64_t word = (i % 2 == 0) ? i : (state = mix64(state));
    const Key128 k = Key128Stream().add(word).digest();
    EXPECT_TRUE(seen.insert({k.lo, k.hi}).second)
        << "128-bit collision at word " << word;
  }
}

TEST(MemoCacheTest, HitReturnsInsertedValueAndCountsAreCoherent) {
  Cache cache(256);
  ASSERT_TRUE(cache.enabled());
  std::uint64_t out = 0;
  EXPECT_FALSE(cache.lookup(key_of(1), out));
  cache.insert(key_of(1), 41);
  ASSERT_TRUE(cache.lookup(key_of(1), out));
  EXPECT_EQ(out, 41u);
  cache.insert(key_of(1), 42);  // refresh overwrites
  ASSERT_TRUE(cache.lookup(key_of(1), out));
  EXPECT_EQ(out, 42u);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(MemoCacheTest, CapacityIsAHardBoundAndEvictionsAreCounted) {
  Cache cache(128);
  const std::size_t bound = cache.capacity();
  EXPECT_GE(bound, 128u);
  for (std::uint64_t i = 0; i < 8 * bound; ++i) {
    cache.insert(key_of(i), i);
  }
  const CacheStats stats = cache.stats();
  EXPECT_LE(stats.entries, bound);
  EXPECT_GT(stats.evictions, 0u);
  // Every surviving entry must still map key -> its own value: eviction may
  // lose entries, it must never corrupt them.
  std::size_t survivors = 0;
  for (std::uint64_t i = 0; i < 8 * bound; ++i) {
    std::uint64_t out = 0;
    if (cache.lookup(key_of(i), out)) {
      EXPECT_EQ(out, i);
      ++survivors;
    }
  }
  EXPECT_GT(survivors, 0u);
  EXPECT_LE(survivors, bound);
}

TEST(MemoCacheTest, ZeroCapacityCacheIsDisabledPassThrough) {
  Cache cache(0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.capacity(), 0u);
  // Every insert is dropped, so every lookup misses.
  std::uint64_t out = 0;
  for (int round = 0; round < 3; ++round) {
    EXPECT_FALSE(cache.lookup(key_of(1), out));
    cache.insert(key_of(1), 1);
  }
  EXPECT_FALSE(cache.lookup(key_of(1), out));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(MemoCacheTest, ClearDropsEntriesButKeepsCounters) {
  Cache cache(64);
  cache.insert(key_of(1), 1);
  cache.insert(key_of(2), 2);
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  std::uint64_t out = 0;
  EXPECT_FALSE(cache.lookup(key_of(1), out));
}

TEST(MemoCacheTest, RecentlyTouchedEntrySurvivesWindowPressure) {
  // LRU-ish recency: keep re-touching one key while flooding the cache far
  // past capacity; the hot key must be the last to go — with continuous
  // touches it survives, because eviction always prefers a colder slot.
  Cache cache(64);
  const Key128 hot = key_of(0xdeadbeef);
  cache.insert(hot, 7);
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < 16 * cache.capacity(); ++i) {
    cache.insert(key_of(i), i);
    ASSERT_TRUE(cache.lookup(hot, out)) << "hot key evicted at insert " << i;
    EXPECT_EQ(out, 7u);
  }
}

TEST(MemoCacheTest, ConcurrentInsertLookupUnderThreadPool) {
  set_thread_count(4);
  Cache cache(1024);
  const std::size_t workers = 8;
  const std::uint64_t per_worker = 5000;
  std::vector<std::uint64_t> wrong(workers, 0);
  parallel_for(workers, [&](std::size_t w) {
    for (std::uint64_t i = 0; i < per_worker; ++i) {
      const std::uint64_t n = i % 512;  // overlapping key set across workers
      std::uint64_t v = 0;
      if (!cache.lookup(key_of(n), v)) {
        v = n * 3;
        cache.insert(key_of(n), v);
      }
      if (v != n * 3) ++wrong[w];
      cache.insert(key_of(n + 100000 + w * per_worker), n);  // churn
    }
  });
  set_thread_count(0);
  for (std::size_t w = 0; w < workers; ++w) {
    EXPECT_EQ(wrong[w], 0u) << "worker " << w << " observed a wrong value";
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, workers * per_worker);
  EXPECT_LE(stats.entries, cache.capacity());
}

TEST(MemoCacheTest, NamedCachesAggregateByNameInTheRegistry) {
  auto count_fitness = [](const char* name) {
    std::uint64_t hits = 0;
    bool found = false;
    for (const auto& [cache_name, stats] : aggregate_cache_stats()) {
      if (cache_name == name) {
        hits = stats.hits;
        found = true;
      }
    }
    return std::make_pair(found, hits);
  };
  EXPECT_FALSE(count_fitness("memo_test_scope").first);
  {
    Cache a(64, "memo_test_scope");
    Cache b(64, "memo_test_scope");
    a.insert(key_of(1), 1);
    b.insert(key_of(1), 1);
    std::uint64_t out = 0;
    ASSERT_TRUE(a.lookup(key_of(1), out));
    ASSERT_TRUE(b.lookup(key_of(1), out));
    const auto [found, hits] = count_fitness("memo_test_scope");
    EXPECT_TRUE(found);
    EXPECT_EQ(hits, 2u);  // summed across the two same-named caches
  }
  // Destruction unregisters.
  EXPECT_FALSE(count_fitness("memo_test_scope").first);
}

TEST(CacheCapacityTest, CacheEnvParsingRejectsGarbageAndNegatives) {
  // "-1" must fall back to the default, not wrap to ULLONG_MAX entries.
  EXPECT_EQ(detail::parse_cache_env(nullptr), kDefaultCacheCapacity);
  EXPECT_EQ(detail::parse_cache_env(""), kDefaultCacheCapacity);
  EXPECT_EQ(detail::parse_cache_env("-1"), kDefaultCacheCapacity);
  EXPECT_EQ(detail::parse_cache_env("64k"), kDefaultCacheCapacity);
  EXPECT_EQ(detail::parse_cache_env(" 64"), kDefaultCacheCapacity);
  EXPECT_EQ(detail::parse_cache_env("0"), 0u);  // explicit disable
  EXPECT_EQ(detail::parse_cache_env("1024"), 1024u);
}

// Regression: aggregate_cache_stats() must never call into a cache that is
// being destroyed. Named caches come and go on pool threads while another
// thread keeps snapshotting the registry. Run under TSan in CI.
TEST(CacheRegistryTest, ConcurrentCreateDestroyVersusLifetimeStats) {
  constexpr std::size_t kJobs = 64;
  constexpr std::size_t kRounds = 20;

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) (void)aggregate_cache_stats();
  });
  set_thread_count(4);
  parallel_for(kJobs, [&](std::size_t job) {
    for (std::size_t round = 0; round < kRounds; ++round) {
      Cache cache(128, "memo_churn");
      cache.insert(key_of(job), job);
      std::uint64_t out = 0;
      EXPECT_TRUE(cache.lookup(key_of(job), out));
    }
  });
  set_thread_count(0);
  done.store(true);
  reader.join();

  // Every destroyed cache left the registry.
  for (const auto& [cache_name, stats] : aggregate_cache_stats()) {
    EXPECT_NE(cache_name, "memo_churn");
  }
}

TEST(CacheCapacityTest, OverrideBeatsDefaultAndResetRestoresIt) {
  const std::size_t ambient = cache_capacity();
  set_cache_capacity(123);
  EXPECT_EQ(cache_capacity(), 123u);
  set_cache_capacity(0);
  EXPECT_EQ(cache_capacity(), 0u);
  reset_cache_capacity();
  EXPECT_EQ(cache_capacity(), ambient);
}

}  // namespace
}  // namespace clrearly::util
