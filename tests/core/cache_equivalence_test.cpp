// The load-bearing guarantee of the memoization layer: caching is an
// implementation detail that must never change a search result. For
// randomized problems, seeds, and thread counts, a cache-off run and
// cache-on runs (roomy capacity and tiny, eviction-thrashed capacity) of
// every DSE flow must produce bit-identical fronts, front genomes, and
// evaluation counts — and the GA driver itself must produce bit-identical
// populations, objectives, and violations. The cache in play is
// the process-wide chain-solve cache under the reliability analysis, the
// only memo cache the DSE has.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "app/characterizer.hpp"
#include "app/sobel.hpp"
#include "core/dse.hpp"
#include "moea/nsga2.hpp"
#include "platform/architecture.hpp"
#include "reliability/clr_chain_builder.hpp"
#include "util/log.hpp"
#include "util/memo_cache.hpp"
#include "util/thread_pool.hpp"

namespace clrearly {
namespace {

class CacheEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { util::set_log_level(util::LogLevel::Warn); }
  void TearDown() override {
    util::reset_cache_capacity();
    util::set_thread_count(0);
  }
};

core::DseOptions small_options(std::uint64_t seed) {
  core::DseOptions o;
  o.ga.population_size = 16;
  o.ga.generations = 5;
  o.seed = seed;
  return o;
}

void expect_identical(const core::DseOutcome& a, const core::DseOutcome& b) {
  EXPECT_EQ(a.evaluations, b.evaluations);
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i], b.front[i]) << "front point " << i;
  }
  ASSERT_EQ(a.front_genomes.size(), b.front_genomes.size());
  for (std::size_t i = 0; i < a.front_genomes.size(); ++i) {
    EXPECT_EQ(a.front_genomes[i], b.front_genomes[i]) << "front genome " << i;
  }
}

using FlowFn = core::DseOutcome (core::DseMethodology::*)(
    const core::DseOptions&) const;

/// Run one flow cache-off, then cache-on at a roomy and a tiny (eviction
/// pressure) capacity, across serial and 4-thread pools; all runs must be
/// bit-identical to the cache-off baseline.
void check_flow_with_options(const core::DseMethodology& dse, FlowFn flow,
                             const core::DseOptions& options) {
  util::set_cache_capacity(0);
  util::set_thread_count(1);
  const core::DseOutcome baseline = (dse.*flow)(options);
  ASSERT_FALSE(baseline.front.empty());

  for (const std::size_t capacity : {std::size_t{2048}, std::size_t{32}}) {
    util::set_cache_capacity(capacity);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      util::set_thread_count(threads);
      const core::DseOutcome cached = (dse.*flow)(options);
      SCOPED_TRACE(::testing::Message()
                   << "capacity " << capacity << ", threads " << threads);
      expect_identical(baseline, cached);
    }
  }
}

void check_flow(const core::DseMethodology& dse, FlowFn flow,
                std::uint64_t seed) {
  check_flow_with_options(dse, flow, small_options(seed));
}

TEST_F(CacheEquivalenceTest, FcClrFlowOnSobel) {
  const core::DseMethodology dse(app::make_sobel_application(),
                                 platform::Architecture::paper_default(),
                                 reliability::TaskAnalyzer::paper_default());
  check_flow(dse, &core::DseMethodology::run_fcclr, 7);
}

TEST_F(CacheEquivalenceTest, PfClrFlowOnSobel) {
  const core::DseMethodology dse(app::make_sobel_application(),
                                 platform::Architecture::paper_default(),
                                 reliability::TaskAnalyzer::paper_default());
  check_flow(dse, &core::DseMethodology::run_pfclr, 11);
}

TEST_F(CacheEquivalenceTest, ProposedFlowOnSobel) {
  const core::DseMethodology dse(app::make_sobel_application(),
                                 platform::Architecture::paper_default(),
                                 reliability::TaskAnalyzer::paper_default());
  check_flow(dse, &core::DseMethodology::run_proposed, 13);
}

TEST_F(CacheEquivalenceTest, KResilientFlowOnSobel) {
  // The k-resilient flow builds its own nominal problem and certifies every
  // genome against each failure set; the chain cache under its table build
  // must stay invisible to results under eviction pressure and threading.
  const core::DseMethodology dse(app::make_sobel_application(),
                                 platform::Architecture::paper_default(),
                                 reliability::TaskAnalyzer::paper_default());
  core::DseOptions options = small_options(17);
  options.resilience.max_failures = 1;
  check_flow_with_options(dse, &core::DseMethodology::run_kresilient, options);
}

TEST_F(CacheEquivalenceTest, AllFlowsOnRandomizedSyntheticApplications) {
  // Randomized problem structure: TGFF-style graphs of varying size with
  // fresh characterization seeds, each checked across flows and seeds.
  const struct { std::size_t tasks; std::uint64_t app_seed; } specs[] = {
      {10, 301}, {14, 302}};
  const FlowFn flows[] = {&core::DseMethodology::run_fcclr,
                          &core::DseMethodology::run_pfclr,
                          &core::DseMethodology::run_proposed};
  std::uint64_t ga_seed = 40;
  for (const auto& spec : specs) {
    const core::DseMethodology dse(
        app::make_synthetic_application(spec.tasks, 10, spec.app_seed),
        platform::Architecture::paper_default(),
        reliability::TaskAnalyzer::paper_default());
    for (const FlowFn flow : flows) {
      SCOPED_TRACE(::testing::Message() << "tasks " << spec.tasks
                                        << ", ga seed " << ga_seed);
      check_flow(dse, flow, ga_seed++);
    }
  }
}

TEST_F(CacheEquivalenceTest, PopulationPointsAndViolationsMatchBitForBit) {
  // Drop below the DseOutcome surface: the GA's full state — population
  // genomes, objectives and constraint violations — must be identical with
  // and without the cache.
  const app::Application sobel = app::make_sobel_application();
  const platform::Architecture arch = platform::Architecture::paper_default();
  const core::ClrMappingProblem problem(
      sobel, arch, reliability::TaskAnalyzer::paper_default(),
      core::SystemObjectives{}, sched::QosSpec{});

  moea::Nsga2Params params;
  params.population_size = 16;
  params.generations = 6;

  util::set_cache_capacity(0);
  util::set_thread_count(1);
  util::Rng rng_off(21);
  const auto off = moea::run_nsga2(params, problem.ops(), rng_off);
  ASSERT_FALSE(off.population.empty());

  for (const std::size_t capacity : {std::size_t{4096}, std::size_t{32}}) {
    util::set_cache_capacity(capacity);
    // A fresh problem, so its table build goes through the chain cache at
    // the new capacity.
    const util::CacheStats chain_before = reliability::chain_cache_stats();
    const core::ClrMappingProblem cached_problem(
        sobel, arch, reliability::TaskAnalyzer::paper_default(),
        core::SystemObjectives{}, sched::QosSpec{});
    const util::CacheStats chain_after = reliability::chain_cache_stats();
    // The roomy run must actually exercise the cache, not bypass it.
    if (capacity >= 4096) {
      EXPECT_GT(chain_after.hits + chain_after.misses,
                chain_before.hits + chain_before.misses);
    }
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(::testing::Message()
                   << "capacity " << capacity << ", threads " << threads);
      util::set_thread_count(threads);
      util::Rng rng_on(21);
      const auto on = moea::run_nsga2(params, cached_problem.ops(), rng_on);

      EXPECT_EQ(off.evaluations, on.evaluations);
      ASSERT_EQ(off.population.size(), on.population.size());
      for (std::size_t i = 0; i < off.population.size(); ++i) {
        EXPECT_EQ(off.population[i].genome, on.population[i].genome);
        EXPECT_EQ(off.population[i].eval.objectives,
                  on.population[i].eval.objectives);
        EXPECT_EQ(off.population[i].eval.violation,
                  on.population[i].eval.violation);
      }
      ASSERT_EQ(off.front.size(), on.front.size());
      for (std::size_t i = 0; i < off.front.size(); ++i) {
        EXPECT_EQ(off.population[off.front[i]].eval.objectives,
                  on.population[on.front[i]].eval.objectives);
      }
    }
  }
}

}  // namespace
}  // namespace clrearly
