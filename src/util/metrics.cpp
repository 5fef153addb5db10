#include "util/metrics.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "util/memo_cache.hpp"

namespace clrearly::util {

namespace detail {

std::size_t metric_stripe() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace detail

namespace {

std::uint64_t double_bits(double d) noexcept {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

double bits_double(std::uint64_t bits) noexcept {
  double d;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

/// CAS-accumulate `delta` onto the double stored in `bits`.
void atomic_double_add(std::atomic<std::uint64_t>& bits,
                       double delta) noexcept {
  std::uint64_t observed = bits.load(std::memory_order_relaxed);
  while (!bits.compare_exchange_weak(
      observed, double_bits(bits_double(observed) + delta),
      std::memory_order_relaxed, std::memory_order_relaxed)) {
  }
}

void atomic_double_min(std::atomic<std::uint64_t>& bits, double x) noexcept {
  std::uint64_t observed = bits.load(std::memory_order_relaxed);
  while (x < bits_double(observed) &&
         !bits.compare_exchange_weak(observed, double_bits(x),
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

void atomic_double_max(std::atomic<std::uint64_t>& bits, double x) noexcept {
  std::uint64_t observed = bits.load(std::memory_order_relaxed);
  while (x > bits_double(observed) &&
         !bits.compare_exchange_weak(observed, double_bits(x),
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

/// The registry proper. Node-based maps keep metric addresses stable;
/// leaked (like the cache registry) so metrics registered from static-
/// storage objects stay usable during process exit.
struct MetricsRegistry {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

MetricsRegistry& registry() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

}  // namespace

std::uint64_t Gauge::to_bits(double d) noexcept { return double_bits(d); }
double Gauge::from_bits(std::uint64_t bits) noexcept {
  return bits_double(bits);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1),
      min_bits_(double_bits(std::numeric_limits<double>::infinity())),
      max_bits_(double_bits(-std::numeric_limits<double>::infinity())) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bucket bounds must be ascending");
  }
}

void Histogram::observe(double x) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].value.fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_double_add(sum_bits_, x);
  atomic_double_min(min_bits_, x);
  atomic_double_max(max_bits_, x);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.buckets.reserve(buckets_.size());
  for (const auto& bucket : buckets_) {
    snap.buckets.push_back(bucket.value.load(std::memory_order_relaxed));
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = bits_double(sum_bits_.load(std::memory_order_relaxed));
  if (snap.count > 0) {
    snap.min = bits_double(min_bits_.load(std::memory_order_relaxed));
    snap.max = bits_double(max_bits_.load(std::memory_order_relaxed));
  }
  return snap;
}

void Histogram::reset() noexcept {
  for (auto& bucket : buckets_) {
    bucket.value.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(double_bits(0.0), std::memory_order_relaxed);
  min_bits_.store(double_bits(std::numeric_limits<double>::infinity()),
                  std::memory_order_relaxed);
  max_bits_.store(double_bits(-std::numeric_limits<double>::infinity()),
                  std::memory_order_relaxed);
}

Counter& metric_counter(const std::string& name) {
  MetricsRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto& slot = reg.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& metric_gauge(const std::string& name) {
  MetricsRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto& slot = reg.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& metric_histogram(const std::string& name,
                            std::vector<double> bounds) {
  MetricsRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto& slot = reg.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

void observe_seconds(const std::string& name, double seconds) {
  metric_histogram(name, {0.001, 0.01, 0.1, 1.0, 10.0, 100.0})
      .observe(seconds);
}

JsonObject metrics_snapshot() {
  // Take stable pointers under the lock, read values outside it — metric
  // reads are lock-free and the objects are never destroyed.
  std::vector<std::pair<std::string, const Counter*>> counters;
  std::vector<std::pair<std::string, const Gauge*>> gauges;
  std::vector<std::pair<std::string, const Histogram*>> histograms;
  {
    MetricsRegistry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto& [name, counter] : reg.counters) {
      counters.emplace_back(name, counter.get());
    }
    for (const auto& [name, gauge] : reg.gauges) {
      gauges.emplace_back(name, gauge.get());
    }
    for (const auto& [name, histogram] : reg.histograms) {
      histograms.emplace_back(name, histogram.get());
    }
  }

  JsonObject counters_json;
  for (const auto& [name, counter] : counters) {
    counters_json[name] = static_cast<std::size_t>(counter->value());
  }
  JsonObject gauges_json;
  for (const auto& [name, gauge] : gauges) {
    gauges_json[name] = gauge->value();
  }
  JsonObject histograms_json;
  for (const auto& [name, histogram] : histograms) {
    const HistogramSnapshot snap = histogram->snapshot();
    JsonObject h;
    h["count"] = static_cast<std::size_t>(snap.count);
    h["sum"] = snap.sum;
    h["min"] = snap.min;
    h["max"] = snap.max;
    JsonArray buckets;
    for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
      JsonObject bucket;
      if (i < snap.bounds.size()) {
        bucket["le"] = snap.bounds[i];
      } else {
        bucket["overflow"] = true;
      }
      bucket["count"] = static_cast<std::size_t>(snap.buckets[i]);
      buckets.push_back(JsonValue(std::move(bucket)));
    }
    h["buckets"] = JsonValue(std::move(buckets));
    histograms_json[name] = JsonValue(std::move(h));
  }

  // Live caches only. The process-wide chain cache is never destroyed, so
  // the exit hook's snapshot still sees it.
  JsonObject caches_json;
  for (const auto& [name, stats] : aggregate_cache_stats()) {
    JsonObject cache;
    cache["hits"] = static_cast<std::size_t>(stats.hits);
    cache["misses"] = static_cast<std::size_t>(stats.misses);
    cache["evictions"] = static_cast<std::size_t>(stats.evictions);
    cache["entries"] = stats.entries;
    cache["capacity"] = stats.capacity;
    cache["hit_rate"] = stats.hit_rate();
    caches_json[name] = JsonValue(std::move(cache));
  }

  JsonObject snapshot;
  snapshot["counters"] = JsonValue(std::move(counters_json));
  snapshot["gauges"] = JsonValue(std::move(gauges_json));
  snapshot["histograms"] = JsonValue(std::move(histograms_json));
  snapshot["caches"] = JsonValue(std::move(caches_json));
  return snapshot;
}

void reset_metrics() {
  MetricsRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (auto& [name, counter] : reg.counters) counter->reset();
  for (auto& [name, gauge] : reg.gauges) gauge->reset();
  for (auto& [name, histogram] : reg.histograms) histogram->reset();
}

}  // namespace clrearly::util
