// The metrics registry's contracts: counters are exact under concurrency
// (striping spreads contention but never drops an increment), registry
// lookups return stable references, histograms bucket on inclusive upper
// edges, and the snapshot re-exports the cache counters so one JSON file
// matches what the caching layer itself reports. The concurrency tests
// double as the TSan workload for the whole layer.
#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/memo_cache.hpp"
#include "util/thread_pool.hpp"

namespace clrearly::util {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void TearDown() override { set_thread_count(0); }
};

TEST_F(MetricsTest, CounterIsExactUnderConcurrentIncrements) {
  Counter& counter = metric_counter("test.concurrent_counter");
  counter.reset();
  set_thread_count(4);
  const std::size_t workers = 8;
  const std::uint64_t per_worker = 100000;
  parallel_for(workers, [&](std::size_t) {
    for (std::uint64_t i = 0; i < per_worker; ++i) counter.add();
  });
  EXPECT_EQ(counter.value(), workers * per_worker);
}

TEST_F(MetricsTest, CounterAddWithArgumentAccumulates) {
  Counter& counter = metric_counter("test.bulk_counter");
  counter.reset();
  counter.add(5);
  counter.add(7);
  EXPECT_EQ(counter.value(), 12u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST_F(MetricsTest, RegistryReturnsTheSameMetricForTheSameName) {
  Counter& a = metric_counter("test.identity");
  Counter& b = metric_counter("test.identity");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_NE(&a, &metric_counter("test.identity2"));
  EXPECT_EQ(&metric_gauge("test.gauge_identity"),
            &metric_gauge("test.gauge_identity"));
}

TEST_F(MetricsTest, GaugeSetAndConcurrentAdd) {
  Gauge& gauge = metric_gauge("test.gauge");
  gauge.set(2.5);
  EXPECT_EQ(gauge.value(), 2.5);
  set_thread_count(4);
  const std::size_t workers = 8;
  parallel_for(workers, [&](std::size_t) {
    for (int i = 0; i < 1000; ++i) gauge.add(0.5);
  });
  // CAS accumulation of an exactly-representable delta loses nothing.
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5 + 0.5 * 1000 * workers);
  gauge.reset();
  EXPECT_EQ(gauge.value(), 0.0);
}

TEST_F(MetricsTest, HistogramBucketsOnInclusiveUpperEdges) {
  Histogram& h = metric_histogram("test.histogram", {1.0, 10.0});
  h.reset();
  h.observe(0.5);   // <= 1.0
  h.observe(1.0);   // boundary is inclusive -> first bucket
  h.observe(5.0);   // <= 10.0
  h.observe(100.0);  // overflow
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  ASSERT_EQ(snap.buckets.size(), 3u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 106.5);
  EXPECT_EQ(snap.min, 0.5);
  EXPECT_EQ(snap.max, 100.0);
}

TEST_F(MetricsTest, HistogramEmptySnapshotAndBadBounds) {
  Histogram& h = metric_histogram("test.histogram_empty", {1.0});
  h.reset();
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.min, 0.0);
  EXPECT_EQ(snap.max, 0.0);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST_F(MetricsTest, HistogramCountIsExactUnderConcurrentObserves) {
  Histogram& h = metric_histogram("test.histogram_mt", {0.5});
  h.reset();
  set_thread_count(4);
  const std::size_t workers = 8;
  const std::uint64_t per_worker = 20000;
  parallel_for(workers, [&](std::size_t w) {
    for (std::uint64_t i = 0; i < per_worker; ++i) {
      h.observe(w % 2 == 0 ? 0.25 : 1.0);
    }
  });
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, workers * per_worker);
  ASSERT_EQ(snap.buckets.size(), 2u);
  EXPECT_EQ(snap.buckets[0] + snap.buckets[1], workers * per_worker);
  EXPECT_EQ(snap.buckets[0], workers / 2 * per_worker);
  EXPECT_EQ(snap.min, 0.25);
  EXPECT_EQ(snap.max, 1.0);
}

TEST_F(MetricsTest, ObserveSecondsUsesTheSharedLadder) {
  observe_seconds("test.phase_seconds", 0.005);
  observe_seconds("test.phase_seconds", 50.0);
  const HistogramSnapshot snap =
      metric_histogram("test.phase_seconds", {}).snapshot();
  ASSERT_EQ(snap.bounds.size(), 6u);  // first registration's ladder wins
  EXPECT_EQ(snap.bounds.front(), 0.001);
  EXPECT_EQ(snap.bounds.back(), 100.0);
  EXPECT_GE(snap.count, 2u);
}

TEST_F(MetricsTest, SnapshotSerializesEveryKindAndParsesBack) {
  metric_counter("test.snap_counter").add(41);
  metric_gauge("test.snap_gauge").set(1.5);
  observe_seconds("test.snap_seconds", 0.02);

  const JsonObject snapshot = metrics_snapshot();
  // Round-trip through the serializer: the snapshot must be valid JSON.
  const JsonValue parsed =
      json_parse(json_serialize(JsonValue(snapshot)));
  EXPECT_GE(parsed.at("counters").at("test.snap_counter").as_number(), 41.0);
  EXPECT_EQ(parsed.at("gauges").at("test.snap_gauge").as_number(), 1.5);
  const JsonValue& hist = parsed.at("histograms").at("test.snap_seconds");
  EXPECT_GE(hist.at("count").as_number(), 1.0);
  EXPECT_EQ(hist.at("buckets").as_array().size(), 7u);  // 6 bounds + overflow
}

TEST_F(MetricsTest, SnapshotCachesSectionMatchesTheCacheRegistry) {
  using Cache = MemoCache<std::uint64_t, std::uint64_t>;
  {
    Cache cache(64, "metrics_test_cache");
    cache.insert(1, 10);
    std::uint64_t out = 0;
    ASSERT_TRUE(cache.lookup(1, out));   // 1 hit
    ASSERT_FALSE(cache.lookup(2, out));  // 1 miss

    // Live cache: the snapshot must agree with aggregate_cache_stats.
    CacheStats live;
    for (const auto& [name, stats] : aggregate_cache_stats()) {
      if (name == "metrics_test_cache") live = stats;
    }
    EXPECT_EQ(live.hits, 1u);
    const JsonValue snapshot{metrics_snapshot()};
    const JsonValue& entry = snapshot.at("caches").at("metrics_test_cache");
    EXPECT_EQ(entry.at("hits").as_number(), double(live.hits));
    EXPECT_EQ(entry.at("misses").as_number(), double(live.misses));
    EXPECT_EQ(entry.at("entries").as_number(), double(live.entries));
    EXPECT_EQ(entry.at("capacity").as_number(), double(live.capacity));
  }
  // Destroyed cache: gone from the registry and from the snapshot.
  for (const auto& [name, stats] : aggregate_cache_stats()) {
    EXPECT_NE(name, "metrics_test_cache");
  }
  const JsonValue snapshot{metrics_snapshot()};
  EXPECT_EQ(snapshot.at("caches").find("metrics_test_cache"), nullptr);
}

TEST_F(MetricsTest, ResetMetricsZeroesEverythingButKeepsReferences) {
  Counter& counter = metric_counter("test.reset_counter");
  Gauge& gauge = metric_gauge("test.reset_gauge");
  counter.add(9);
  gauge.set(9.0);
  observe_seconds("test.reset_seconds", 1.0);
  reset_metrics();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(metric_histogram("test.reset_seconds", {}).snapshot().count, 0u);
  counter.add(1);  // the reference survived the reset
  EXPECT_EQ(metric_counter("test.reset_counter").value(), 1u);
}

}  // namespace
}  // namespace clrearly::util
