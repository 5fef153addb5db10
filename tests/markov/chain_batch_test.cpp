// Differential tests for the batched SoA chain kernel — the only production
// chain solver. Two references pin it:
//  * the width-1 portable instantiation: every lane width (4/8, plus the
//    odd-width staging fallback) and every SIMD dispatch level is
//    bit-identical to it, including ragged final groups, mixed size
//    classes, dedupe, cache backfill and singular edge chains;
//  * the eager full-inverse oracle::AbsorbingChain (tests/oracle/chain.hpp):
//    within 1e-12 relative (time variance within 1e-9) for random chains of
//    t = 1..40 and for every CLR size class, and the batched assembler
//    writes the reference builder's (tests/oracle/clr_chain_reference.hpp)
//    Q / R / residence bit for bit.
// Plus workspace reuse across sizes, no per-chain heap allocation on a warm
// batch call (counted by this binary's own operator new), the bounded
// shrink policy, and a concurrent-batch TSan shard.
#include "markov/chain_batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <vector>

#include "oracle/chain.hpp"
#include "oracle/clr_chain_reference.hpp"
#include "platform/pe.hpp"
#include "reliability/clr_chain_builder.hpp"
#include "reliability/task_metrics.hpp"
#include "util/cpu_features.hpp"
#include "util/memo_cache.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

// Global operator new/delete replacements for this test binary only: every
// heap allocation bumps one relaxed atomic, so "a warm batch call does not
// allocate per chain" is counted rather than assumed.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// These replace the global pair, so free() does match the malloc() above;
// GCC cannot see that once it inlines them into callers and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace clrearly::markov {
namespace {

using reliability::analyze_clr_chain;
using reliability::analyze_clr_chain_batch;
using reliability::ChainBatchOptions;
using reliability::ChainSolveStatus;
using reliability::ClrChainAnalysis;
using reliability::ClrChainParams;

// Bitwise equality: the contract is stronger than == (which calls -0.0 and
// 0.0 equal), so compare the representations.
#define EXPECT_BITEQ(a, b)                                 \
  EXPECT_EQ(std::bit_cast<std::uint64_t>(double(a)),       \
            std::bit_cast<std::uint64_t>(double(b)))       \
      << "values " << (a) << " vs " << (b)

double frac(double x) { return x - std::floor(x); }

/// Dense distinct parameter sets: every field varies continuously with
/// `salt`, so no two lanes of a test batch are accidentally identical (the
/// dedupe test builds duplicates on purpose).
ClrChainParams make_params(std::size_t intervals, std::size_t salt) {
  const double s = static_cast<double>(salt);
  ClrChainParams p;
  p.exec_time_us = 50.0 + 0.37 * s;
  p.lambda_per_us = 1e-4 * (1.0 + frac(s * 0.173));
  p.hw_masking = 0.10 + 0.80 * frac(s * 0.113);
  p.implicit_ssw_masking = 0.05 + 0.60 * frac(s * 0.211);
  p.detection_coverage = 0.50 + 0.45 * frac(s * 0.317);
  p.tolerance_success = 0.40 + 0.55 * frac(s * 0.419);
  p.asw_masking = 0.20 + 0.70 * frac(s * 0.523);
  p.intervals = intervals;
  p.detection_time_us = 0.2 + 0.3 * frac(s * 0.611);
  p.tolerance_time_us = 1.0 + frac(s * 0.731);
  p.checkpoint_time_us = 0.5 + frac(s * 0.831);
  p.checkpoint_error_prob = 1e-5 * frac(s * 0.941);
  return p;
}

/// A chain that loops Exec -> HW -> Impl -> Det -> Tol -> Exec forever:
/// pne underflows to 0, nothing masks, detection and tolerance are certain
/// — I - Q is singular: the kernel flags the lane and the driver throws
/// std::domain_error unless the caller asked for per-chain status.
ClrChainParams singular_params() {
  ClrChainParams p = make_params(1, 0);
  p.exec_time_us = 1000.0;
  p.lambda_per_us = 1e6;  // pne = exp(-1e9) == 0.0
  p.hw_masking = 0.0;
  p.implicit_ssw_masking = 0.0;
  p.detection_coverage = 1.0;
  p.tolerance_success = 1.0;
  return p;
}

double rel_err(double a, double b) {
  const double scale = std::max({std::abs(a), std::abs(b), 1e-300});
  return std::abs(a - b) / scale;
}

void expect_same_analysis(const ClrChainAnalysis& got,
                          const ClrChainAnalysis& want) {
  EXPECT_BITEQ(got.min_exec_time_us, want.min_exec_time_us);
  EXPECT_BITEQ(got.avg_exec_time_us, want.avg_exec_time_us);
  EXPECT_BITEQ(got.exec_time_stddev_us, want.exec_time_stddev_us);
  EXPECT_BITEQ(got.error_prob, want.error_prob);
}

/// The bit-identity reference: the width-1 portable kernel, cache bypassed.
std::vector<ClrChainAnalysis> width_one_reference(
    const std::vector<ClrChainParams>& params,
    std::vector<ChainSolveStatus>* status = nullptr) {
  return analyze_clr_chain_batch(params, {.group_width = 1, .use_cache = false},
                                 status);
}

/// Batched analysis of `params` at group width `width` must equal the
/// width-1 reference element for element, bitwise.
void expect_batch_matches_width_one(const std::vector<ClrChainParams>& params,
                                    std::size_t width) {
  const std::vector<ClrChainAnalysis> batched = analyze_clr_chain_batch(
      params, {.group_width = width, .use_cache = false});
  const std::vector<ClrChainAnalysis> reference = width_one_reference(params);
  ASSERT_EQ(batched.size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    SCOPED_TRACE("index " + std::to_string(i) + " width " +
                 std::to_string(width));
    expect_same_analysis(batched[i], reference[i]);
  }
}

class ChainBatchDifferentialTest
    : public ::testing::TestWithParam<std::size_t> {};

// For every size class (t = 7n - 1 transient states, so intervals 1..6
// sweeps t = 6..41) and every vector lane width, batched results are
// bit-identical to the width-1 kernel.
TEST_P(ChainBatchDifferentialTest, BitIdenticalToWidthOneAcrossWidths) {
  const std::size_t intervals = GetParam();
  std::vector<ClrChainParams> params;
  for (std::size_t i = 0; i < 13; ++i) {
    params.push_back(make_params(intervals, 100 * intervals + i));
  }
  for (std::size_t width : {std::size_t{4}, std::size_t{8}}) {
    expect_batch_matches_width_one(params, width);
  }
}

INSTANTIATE_TEST_SUITE_P(SizeClasses, ChainBatchDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---- Against the eager reference ----------------------------------------

/// Random absorbing chain: every row keeps strictly positive mass toward
/// every target (transient and absorbing), so absorption is guaranteed and
/// I - Q is comfortably nonsingular.
struct RandomChain {
  oracle::Matrix q, r;
  std::vector<double> residence;
};

RandomChain random_chain(std::size_t t, std::size_t a, util::Rng& rng) {
  RandomChain c{oracle::Matrix(t, t), oracle::Matrix(t, a),
                std::vector<double>(t)};
  std::vector<double> w(t + a);
  for (std::size_t i = 0; i < t; ++i) {
    double sum = 0.0;
    for (double& x : w) {
      x = rng.uniform(0.01, 1.0);
      sum += x;
    }
    for (std::size_t j = 0; j < t; ++j) c.q(i, j) = w[j] / sum;
    for (std::size_t k = 0; k < a; ++k) c.r(i, k) = w[t + k] / sum;
    c.residence[i] = rng.uniform(0.0, 10.0);
  }
  return c;
}

class ChainBatchReferenceTest : public ::testing::TestWithParam<std::size_t> {};

// Every lane of a batched solve reproduces the eager full-inverse
// AbsorbingChain's row-0 metrics: to 1e-12 relative, and the time variance
// (subtractive cancellation) to 1e-9.
TEST_P(ChainBatchReferenceTest, RandomChainsMatchEagerAbsorbingChain) {
  const std::size_t t = GetParam();
  util::Rng rng(4000 + t);
  for (std::size_t a : {std::size_t{1}, std::size_t{2}}) {
    for (std::size_t width : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      SCOPED_TRACE("a " + std::to_string(a) + " width " +
                   std::to_string(width));
      std::vector<RandomChain> chains;
      ChainBatch batch;
      batch.configure(t, a, width);
      for (std::size_t l = 0; l < width; ++l) {
        chains.push_back(random_chain(t, a, rng));
        const RandomChain& c = chains.back();
        for (std::size_t i = 0; i < t; ++i) {
          batch.residence[i * width + l] = c.residence[i];
          for (std::size_t j = 0; j < t; ++j) {
            batch.q[(i * t + j) * width + l] = c.q(i, j);
          }
          for (std::size_t k = 0; k < a; ++k) {
            batch.r[(i * a + k) * width + l] = c.r(i, k);
          }
        }
      }
      solve_row0_batch(batch, /*with_second_moment=*/true);

      for (std::size_t l = 0; l < width; ++l) {
        const RandomChain& c = chains[l];
        const oracle::AbsorbingChain ref(c.q, c.r, c.residence);
        ASSERT_EQ(batch.singular[l], 0);
        const double et = batch.expected_time[l];
        EXPECT_LE(rel_err(et, ref.expected_time(0)), 1e-12);
        EXPECT_LE(rel_err(batch.expected_steps[l], ref.expected_steps(0)),
                  1e-12);
        EXPECT_LE(rel_err(batch.second_moment[l] - et * et,
                          ref.time_variance(0)),
                  1e-9);
        for (std::size_t k = 0; k < a; ++k) {
          EXPECT_LE(rel_err(batch.b0[k * width + l],
                            ref.absorption_probability(0, k)),
                    1e-12);
        }
        for (std::size_t j = 0; j < t; ++j) {
          EXPECT_LE(rel_err(batch.row0[j * width + l], ref.fundamental()(0, j)),
                    1e-12);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChainBatchReferenceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 40));

// The batched assembler writes every lane's Q, R and residence exactly as
// the named-state reference builder does — same state order, same edge
// arithmetic.
TEST(ChainBatchAssemblerTest, LanesMatchReferenceBuilderExactly) {
  constexpr std::size_t kWidth = 4;
  for (std::size_t intervals : {1u, 2u, 3u, 5u}) {
    std::vector<ClrChainParams> params;
    std::vector<const ClrChainParams*> lanes;
    for (std::size_t l = 0; l < kWidth; ++l) {
      params.push_back(make_params(intervals, 7 + l));
    }
    for (const ClrChainParams& p : params) lanes.push_back(&p);
    for (bool functional : {false, true}) {
      ChainBatch batch;
      reliability::assemble_clr_chain_batch(lanes, functional, batch);
      for (std::size_t l = 0; l < kWidth; ++l) {
        const oracle::AbsorbingChain ref =
            oracle::build_chain_reference(params[l], functional);
        const std::size_t t = ref.num_transient();
        const std::size_t a = ref.num_absorbing();
        ASSERT_EQ(batch.t, t);
        ASSERT_EQ(batch.a, a);
        for (std::size_t i = 0; i < t; ++i) {
          EXPECT_EQ(batch.residence[i * kWidth + l], ref.residence_times()[i]);
          for (std::size_t j = 0; j < t; ++j) {
            EXPECT_EQ(batch.q[(i * t + j) * kWidth + l], ref.q()(i, j));
          }
          for (std::size_t k = 0; k < a; ++k) {
            EXPECT_EQ(batch.r[(i * a + k) * kWidth + l], ref.r()(i, k));
          }
        }
      }
    }
  }
}

// Batched CLR analyses agree with the reference chains' accessors for every
// size class the DSE uses (t = 6..41).
TEST(ChainBatchClrReferenceTest, ClrChainsMatchReferenceAccessors) {
  for (std::size_t intervals = 1; intervals <= 6; ++intervals) {
    std::vector<ClrChainParams> params;
    for (std::size_t i = 0; i < 5; ++i) {
      params.push_back(make_params(intervals, 50 * intervals + i));
    }
    const std::vector<ClrChainAnalysis> batched =
        analyze_clr_chain_batch(params, {.use_cache = false});
    for (std::size_t i = 0; i < params.size(); ++i) {
      SCOPED_TRACE("intervals " + std::to_string(intervals) + " index " +
                   std::to_string(i));
      const oracle::AbsorbingChain timing =
          oracle::build_chain_reference(params[i], /*functional=*/false);
      const oracle::AbsorbingChain functional =
          oracle::build_chain_reference(params[i], /*functional=*/true);
      const double sd = batched[i].exec_time_stddev_us;
      EXPECT_LE(rel_err(batched[i].avg_exec_time_us, timing.expected_time(0)),
                1e-12);
      EXPECT_LE(rel_err(sd * sd, timing.time_variance(0)), 1e-9);
      EXPECT_LE(rel_err(batched[i].error_prob,
                        functional.absorption_probability(
                            0, reliability::kAbsorbError)),
                1e-12);
    }
  }
}

// A warm batch reused across size classes and chain kinds (the thread-local
// pattern: re-zeroing only the recorded Q pattern cells) must never read
// stale buffer contents — every solve equals a fresh batch's, bitwise.
TEST(ChainBatchReuseTest, WarmBatchAcrossSizesIsClean) {
  constexpr std::size_t kWidth = 4;
  ChainBatch warm;
  for (std::size_t intervals : {5u, 1u, 3u, 2u, 4u, 1u}) {
    std::vector<ClrChainParams> params;
    std::vector<const ClrChainParams*> lanes;
    for (std::size_t l = 0; l < kWidth; ++l) {
      params.push_back(make_params(intervals, 10 * intervals + l));
    }
    for (const ClrChainParams& p : params) lanes.push_back(&p);
    for (bool functional : {false, true}) {
      reliability::assemble_clr_chain_batch(lanes, functional, warm);
      solve_row0_batch(warm, /*with_second_moment=*/!functional);
      ChainBatch fresh;
      reliability::assemble_clr_chain_batch(lanes, functional, fresh);
      solve_row0_batch(fresh, /*with_second_moment=*/!functional);
      for (std::size_t l = 0; l < kWidth; ++l) {
        EXPECT_BITEQ(warm.expected_time[l], fresh.expected_time[l]);
        EXPECT_BITEQ(warm.expected_steps[l], fresh.expected_steps[l]);
        if (!functional) {
          EXPECT_BITEQ(warm.second_moment[l], fresh.second_moment[l]);
        }
        for (std::size_t k = 0; k < warm.a; ++k) {
          EXPECT_BITEQ(warm.b0[k * kWidth + l], fresh.b0[k * kWidth + l]);
        }
      }
    }
  }
}

// A warm, uncached batch call reuses the thread's workspace: what it
// allocates is per call (results, dedupe table, size classes), never per
// chain. Checked on distinct chains at every interval count the DSE uses.
TEST(ChainBatchTest, WarmBatchDoesNotAllocatePerChain) {
  constexpr std::size_t kChains = 256;
  const ChainBatchOptions uncached{.use_cache = false};
  for (std::size_t intervals = 1; intervals <= 5; ++intervals) {
    std::vector<ClrChainParams> params;
    for (std::size_t i = 0; i < kChains; ++i) {
      params.push_back(make_params(intervals, 1000 * intervals + i));
    }
    (void)analyze_clr_chain_batch(params, uncached);  // warm the workspace
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const std::vector<ClrChainAnalysis> out =
        analyze_clr_chain_batch(params, uncached);
    const std::uint64_t allocs =
        g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(out.size(), kChains);
    EXPECT_GT(allocs, 0u) << "the counter is not wired in";
    EXPECT_LT(allocs, kChains) << "intervals " << intervals;
  }
}

// Every dispatch level the hardware supports produces the same bits — the
// forced level caps at detected_simd_level(), so on scalar-only CI this
// still runs (and trivially passes) for each requested level.
TEST(ChainBatchDispatchTest, BitIdenticalAcrossSimdLevels) {
  std::vector<ClrChainParams> params;
  for (std::size_t i = 0; i < 9; ++i) params.push_back(make_params(3, 40 + i));
  for (const util::SimdLevel level :
       {util::SimdLevel::kScalar, util::SimdLevel::kAvx2,
        util::SimdLevel::kAvx512}) {
    SCOPED_TRACE(util::to_string(level));
    util::force_simd_level(level);
    for (std::size_t width : {std::size_t{4}, std::size_t{8}}) {
      expect_batch_matches_width_one(params, width);
    }
  }
  util::reset_simd_level();
}

// Ragged final group (5 chains at width 4 -> 3 pad lanes in group 2) and
// the non-preferred width fallback (width 3 goes through the per-lane
// staging path).
TEST(ChainBatchRaggedTest, PadLanesAndOddWidths) {
  std::vector<ClrChainParams> params;
  for (std::size_t i = 0; i < 5; ++i) params.push_back(make_params(2, 70 + i));
  static util::Counter& pads = util::metric_counter("chain.batch.pad_lanes");
  const std::uint64_t pads_before = pads.value();
  expect_batch_matches_width_one(params, 4);
  // 2 groups x 2 chain flavors are solved, but pad accounting is per
  // collect-group: 4 + 1(+3 pads).
  EXPECT_EQ(pads.value() - pads_before, 3u);
  expect_batch_matches_width_one(params, 3);
  expect_batch_matches_width_one(params, 8);
}

// One call mixing size classes partitions internally and still matches the
// width-1 reference at every position.
TEST(ChainBatchMixedClassTest, MixedSizeClassesInOneCall) {
  std::vector<ClrChainParams> params;
  for (std::size_t i = 0; i < 21; ++i) {
    params.push_back(make_params(1 + (i * 7) % 5, 300 + i));
  }
  expect_batch_matches_width_one(params, 4);
}

// Duplicate parameter sets burn no extra lanes: they are resolved through
// the canonical Key128 and counted in chain.batch.dedupe_hits.
TEST(ChainBatchDedupeTest, DuplicatesShareOneLane) {
  const ClrChainParams base = make_params(2, 7);
  std::vector<ClrChainParams> params(9, base);
  params[4] = make_params(2, 8);  // one distinct set in the middle

  static util::Counter& dedupe =
      util::metric_counter("chain.batch.dedupe_hits");
  static util::Counter& lanes =
      util::metric_counter("chain.batch.lanes_filled");
  const std::uint64_t dedupe_before = dedupe.value();
  const std::uint64_t lanes_before = lanes.value();

  ChainBatchOptions options;
  options.group_width = 4;
  options.use_cache = false;
  const auto batched = analyze_clr_chain_batch(params, options);

  EXPECT_EQ(dedupe.value() - dedupe_before, 7u);  // 9 dups of 2 uniques
  EXPECT_EQ(lanes.value() - lanes_before, 2u);
  const std::vector<ClrChainAnalysis> reference = width_one_reference(params);
  for (std::size_t i = 0; i < params.size(); ++i) {
    expect_same_analysis(batched[i], reference[i]);
  }
}

// Batch-solved misses land in the memo cache: a single-chain
// analyze_clr_chain of the same parameters afterwards is a pure cache hit
// (no new kernel solve).
TEST(ChainBatchCacheTest, BackfillsMemoCache) {
  util::set_cache_capacity(3333);  // distinct capacity -> fresh empty cache
  std::vector<ClrChainParams> params;
  for (std::size_t i = 0; i < 6; ++i) params.push_back(make_params(3, 500 + i));

  ChainBatchOptions options;
  options.group_width = 4;
  const auto batched = analyze_clr_chain_batch(params, options);

  static util::Counter& solves =
      util::metric_counter("chain.batch.kernel_solves");
  const std::uint64_t solves_before = solves.value();
  for (std::size_t i = 0; i < params.size(); ++i) {
    const ClrChainAnalysis cached = analyze_clr_chain(params[i]);
    expect_same_analysis(batched[i], cached);
  }
  EXPECT_EQ(solves.value(), solves_before) << "expected pure cache hits";

  // Second batched call over the same params: all cache hits, zero lanes.
  static util::Counter& lanes =
      util::metric_counter("chain.batch.lanes_filled");
  static util::Counter& hits = util::metric_counter("chain.batch.cache_hits");
  const std::uint64_t lanes_before = lanes.value();
  const std::uint64_t hits_before = hits.value();
  const auto again = analyze_clr_chain_batch(params, options);
  EXPECT_EQ(lanes.value(), lanes_before);
  EXPECT_EQ(hits.value() - hits_before, params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    expect_same_analysis(again[i], batched[i]);
  }
  util::reset_cache_capacity();
}

// A singular (non-absorbing) chain in a batch: without a status vector the
// call throws, as does the single-chain front door; with one, the bad lane
// is flagged, zeroed, kept out of the cache — and its batch-mates still
// match the width-1 reference bit for bit.
TEST(ChainBatchSingularTest, SingularLanesFlaggedOrThrow) {
  std::vector<ClrChainParams> params;
  for (std::size_t i = 0; i < 5; ++i) params.push_back(make_params(1, 900 + i));
  params[2] = singular_params();
  ASSERT_THROW(analyze_clr_chain(params[2]), std::domain_error);

  ChainBatchOptions options;
  options.group_width = 4;
  options.use_cache = false;
  EXPECT_THROW(analyze_clr_chain_batch(params, options), std::domain_error);

  std::vector<ChainSolveStatus> status;
  const auto batched = analyze_clr_chain_batch(params, options, &status);
  ASSERT_EQ(status.size(), params.size());
  std::vector<ChainSolveStatus> reference_status;
  const auto reference = width_one_reference(params, &reference_status);
  EXPECT_EQ(status, reference_status);
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i == 2) {
      EXPECT_EQ(status[i], ChainSolveStatus::kSingular);
      EXPECT_BITEQ(batched[i].avg_exec_time_us, 0.0);
      EXPECT_BITEQ(batched[i].error_prob, 0.0);
    } else {
      EXPECT_EQ(status[i], ChainSolveStatus::kOk);
      expect_same_analysis(batched[i], reference[i]);
    }
  }

  // All-singular batch: every lane flagged, no throw with status out.
  std::vector<ClrChainParams> all_bad(3, singular_params());
  const auto bad = analyze_clr_chain_batch(all_bad, options, &status);
  for (const ChainSolveStatus s : status) {
    EXPECT_EQ(s, ChainSolveStatus::kSingular);
  }
}

// The batched evaluate paths of TaskAnalyzer ride on the same machinery;
// spot-check the span-of-configs form against one-at-a-time evaluate().
TEST(ChainBatchEvaluateTest, EvaluateBatchMatchesSingleEvaluations) {
  const auto analyzer = reliability::TaskAnalyzer::paper_default();
  reliability::BaseImpl impl;
  impl.name = "k";
  impl.base_exec_time_us = 120.0;
  impl.base_power_w = 0.8;
  platform::PeType pe;
  pe.name = "test-pe";
  pe.masking_factor = 0.3;
  pe.dvfs = platform::DvfsTable::paper_default();
  std::vector<reliability::ClrConfig> configs;
  const auto& space = analyzer.space();
  for (std::size_t h = 0; h < space.hw_methods().size(); ++h) {
    for (std::size_t s = 0; s < space.ssw_methods().size(); ++s) {
      configs.push_back(reliability::ClrConfig{h, s, 0, 0});
    }
  }
  const auto batched = analyzer.evaluate_batch(impl, pe, configs);
  ASSERT_EQ(batched.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto single = analyzer.evaluate(impl, pe, configs[i]);
    EXPECT_BITEQ(batched[i].avg_exec_time_us, single.avg_exec_time_us);
    EXPECT_BITEQ(batched[i].error_prob, single.error_prob);
    EXPECT_BITEQ(batched[i].energy_uj, single.energy_uj);
    EXPECT_BITEQ(batched[i].mttf_hours, single.mttf_hours);
  }
}

// Satellite fix: a large-t burst must not pin the thread-local buffers at
// their high-water size forever. After kShrinkPatience small configures the
// ChainBatch releases its capacity.
TEST(ChainBatchShrinkTest, BatchWorkspaceShrinksAfterBurst) {
  ChainBatch ws;
  ws.configure(120, 2, 8);  // ~240k doubles, well past kShrinkMinDoubles
  const std::size_t burst_footprint = ws.footprint_doubles();
  EXPECT_GE(ws.high_water_doubles, ChainBatch::kShrinkMinDoubles);

  for (std::size_t i = 0; i < ChainBatch::kShrinkPatience; ++i) {
    EXPECT_GE(ws.footprint_doubles(), burst_footprint) << "shrank early, i=" << i;
    ws.configure(6, 1, 4);
  }
  EXPECT_LT(ws.footprint_doubles(), burst_footprint / 4);
  // And the policy re-arms: a new burst re-grows, small use shrinks again.
  ws.configure(120, 2, 8);
  EXPECT_GE(ws.footprint_doubles(), burst_footprint);
}

// TSan shard: concurrent batched analyses use thread-local ChainBatch
// workspaces and the shared memo cache; no races, and every thread's
// results match the width-1 reference.
TEST(ChainBatchConcurrencyTest, ConcurrentBatchesAreRaceFreeAndExact) {
  util::set_cache_capacity(2048);
  std::vector<std::vector<ClrChainParams>> work(16);
  for (std::size_t w = 0; w < work.size(); ++w) {
    for (std::size_t i = 0; i < 12; ++i) {
      // Overlapping param sets across threads -> concurrent cache
      // insert/lookup of the same keys.
      work[w].push_back(make_params(1 + (i % 3), 700 + (w % 4) * 16 + i));
    }
  }
  std::vector<std::vector<ClrChainAnalysis>> results(work.size());
  util::parallel_for(work.size(), [&](std::size_t w) {
    ChainBatchOptions options;
    options.group_width = 4;
    results[w] = analyze_clr_chain_batch(work[w], options);
  });
  for (std::size_t w = 0; w < work.size(); ++w) {
    const std::vector<ClrChainAnalysis> reference = width_one_reference(work[w]);
    for (std::size_t i = 0; i < work[w].size(); ++i) {
      expect_same_analysis(results[w][i], reference[i]);
    }
  }
  util::reset_cache_capacity();
}

// Dispatch plumbing: preferred widths per level, env parsing, and the
// forced-level clamp.
TEST(ChainBatchDispatchTest, PreferredWidthsAndEnvParsing) {
  EXPECT_EQ(preferred_batch_width(util::SimdLevel::kAvx512), 8u);
  EXPECT_EQ(preferred_batch_width(util::SimdLevel::kAvx2), 8u);
  EXPECT_EQ(preferred_batch_width(util::SimdLevel::kScalar), 4u);

  EXPECT_EQ(util::detail::parse_simd_env("scalar"), util::SimdLevel::kScalar);
  EXPECT_EQ(util::detail::parse_simd_env("avx2"), util::SimdLevel::kAvx2);
  EXPECT_EQ(util::detail::parse_simd_env("avx512"), util::SimdLevel::kAvx512);
  EXPECT_EQ(util::detail::parse_simd_env("auto"), util::SimdLevel::kAvx512);
  EXPECT_EQ(util::detail::parse_simd_env(nullptr), util::SimdLevel::kAvx512);
  EXPECT_EQ(util::detail::parse_simd_env("bogus"), util::SimdLevel::kAvx512);

  util::force_simd_level(util::SimdLevel::kScalar);
  EXPECT_EQ(util::active_simd_level(), util::SimdLevel::kScalar);
  util::reset_simd_level();
  EXPECT_LE(util::active_simd_level(), util::detected_simd_level());
}

}  // namespace
}  // namespace clrearly::markov
