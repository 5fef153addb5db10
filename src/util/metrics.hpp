// Process-wide metrics registry: named counters, gauges and fixed-bucket
// histograms for the DSE stack.
//
// The registry answers one question the benches' hand-rolled JSON never
// could: what did *this* run actually do — how many fitness evaluations,
// how many chain solves, how deep did the pool queue get, where did the
// wall-clock go — without recompiling or threading report structs through
// every layer.
//
// Design constraints, in priority order:
//  1. Near-zero hot-path cost. Counters are striped across cache-line-padded
//     atomic cells (the same contention-spreading idea as MemoCache's
//     per-shard stats): an increment is one relaxed fetch_add on a cell
//     indexed by a per-thread stripe id, so concurrent writers do not
//     bounce a shared line. Instrumented code caches the Counter& in a
//     function-local static — the name lookup happens once per process.
//  2. Exactness. Increments are never sampled or dropped; a snapshot sums
//     the stripes, so counter values are exact regardless of thread count
//     (pinned by MetricsTest under TSan).
//  3. Results untouched. Metrics never consult the RNG, never reorder work
//     and never feed back into any computation — instrumented runs are
//     bit-identical to uninstrumented ones (pinned by the observability
//     differential test).
//
// Snapshots serialize to util::json; metrics_snapshot() additionally
// re-exports every live named MemoCache's hit/miss/evict counters
// (aggregate_cache_stats) under "caches", so one file describes the whole
// run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace clrearly::util {

namespace detail {

/// Small per-thread stripe id, assigned on first use. Only used to spread
/// counter increments across cells — exactness never depends on it.
std::size_t metric_stripe() noexcept;

/// One cache line per cell so concurrent increments on different stripes
/// never share a line.
struct alignas(64) MetricCell {
  std::atomic<std::uint64_t> value{0};
};

}  // namespace detail

/// Monotonic event counter. add() is wait-free (one relaxed fetch_add);
/// value() sums the stripes and is exact once concurrent writers are done
/// (e.g. after a parallel_for batch drains).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    cells_[detail::metric_stripe() & (kStripes - 1)].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void reset() noexcept {
    for (auto& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kStripes = 16;
  detail::MetricCell cells_[kStripes];
};

/// Last-value / level metric (queue depth, front size, hypervolume proxy).
/// Stores a double so it covers both integer levels and derived quantities;
/// set() and add() are lock-free (store / CAS loop).
class Gauge {
 public:
  void set(double value) noexcept {
    bits_.store(to_bits(value), std::memory_order_relaxed);
  }

  void add(double delta) noexcept {
    std::uint64_t observed = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(
        observed, to_bits(from_bits(observed) + delta),
        std::memory_order_relaxed, std::memory_order_relaxed)) {
    }
  }

  double value() const noexcept {
    return from_bits(bits_.load(std::memory_order_relaxed));
  }

  void reset() noexcept { set(0.0); }

 private:
  static std::uint64_t to_bits(double d) noexcept;
  static double from_bits(std::uint64_t bits) noexcept;

  std::atomic<std::uint64_t> bits_{0};
};

/// Aggregated view of one histogram at snapshot time.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;  ///< 0 when count == 0
  std::vector<double> bounds;          ///< upper bucket bounds (inclusive)
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (last = overflow)
};

/// Fixed-bucket histogram: `bounds` are inclusive upper edges in ascending
/// order; a sample lands in the first bucket whose bound is >= the sample,
/// or in the overflow bucket past the last bound. observe() is lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x) noexcept;

  HistogramSnapshot snapshot() const;
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<detail::MetricCell> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};
  std::atomic<std::uint64_t> min_bits_;
  std::atomic<std::uint64_t> max_bits_;
};

/// Look up (or create) a metric in the process-wide registry. References
/// stay valid for the life of the process — cache them in a function-local
/// static on hot paths. Names are free-form; the convention is
/// "<subsystem>.<what>" (see docs/OBSERVABILITY.md for the catalogue).
/// Re-registering a histogram name keeps the first call's bounds.
Counter& metric_counter(const std::string& name);
Gauge& metric_gauge(const std::string& name);
Histogram& metric_histogram(const std::string& name,
                            std::vector<double> bounds);

/// Observe `seconds` into metric_histogram(name) with the standard
/// wall-clock bucket ladder (1ms .. 100s) — the shared shape for phase
/// timings so snapshots stay comparable across subsystems.
void observe_seconds(const std::string& name, double seconds);

/// Snapshot every registered metric plus the cache counters:
///   {"counters": {...}, "gauges": {...}, "histograms": {...},
///    "caches": {"<name>": {"hits": ..., "misses": ..., ...}}}
/// Cache counts come from aggregate_cache_stats() at call time, so they
/// match what the caching layer itself reports.
JsonObject metrics_snapshot();

/// Zero every registered metric (counters, gauges, histograms). Registered
/// references stay valid. Intended for tests and between-run isolation;
/// does not touch the MemoCache counters.
void reset_metrics();

}  // namespace clrearly::util
