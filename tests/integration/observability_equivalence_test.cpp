// The observability layer's load-bearing guarantee: --metrics-out and
// --trace-out are strictly observational. Enabling them must not change a
// single bit of any DSE result — instrumentation never touches the RNG,
// never reorders work, never feeds back into a computation. This test runs
// every flow with observability off and on and compares fronts, genomes
// and evaluation counts bit-for-bit, then sanity-checks that the files the
// instrumented run produces are valid and agree with the cache registry.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "app/sobel.hpp"
#include "core/dse.hpp"
#include "platform/architecture.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/memo_cache.hpp"
#include "util/metrics.hpp"
#include "util/observability.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace clrearly {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class ObservabilityEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { util::set_log_level(util::LogLevel::Warn); }
  void TearDown() override {
    util::set_trace_path("");
    util::set_metrics_path("");
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

TEST_F(ObservabilityEquivalenceTest, FlagsDoNotChangeAnyFlowBitForBit) {
  const core::DseMethodology dse(app::make_sobel_application(),
                                 platform::Architecture::paper_default(),
                                 reliability::TaskAnalyzer::paper_default());
  using FlowFn = core::DseOutcome (core::DseMethodology::*)(
      const core::DseOptions&) const;
  const struct { FlowFn flow; std::uint64_t seed; const char* name; } flows[] =
      {{&core::DseMethodology::run_fcclr, 7, "fcclr"},
       {&core::DseMethodology::run_pfclr, 11, "pfclr"},
       {&core::DseMethodology::run_proposed, 13, "proposed"}};

  for (const auto& [flow, seed, name] : flows) {
    SCOPED_TRACE(name);
    const core::DseOptions options = small_options(seed);

    // Observability off: the baseline.
    util::set_trace_path("");
    util::set_metrics_path("");
    util::set_thread_count(1);
    const core::DseOutcome baseline = (dse.*flow)(options);
    ASSERT_FALSE(baseline.front.empty());

    // Observability on (both files), serial and parallel.
    const std::string trace_path =
        ::testing::TempDir() + "obs_equiv_" + name + "_trace.json";
    const std::string metrics_path =
        ::testing::TempDir() + "obs_equiv_" + name + "_metrics.json";
    util::set_trace_path(trace_path);
    util::set_metrics_path(metrics_path);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(::testing::Message() << "threads " << threads);
      util::set_thread_count(threads);
      const core::DseOutcome observed = (dse.*flow)(options);
      expect_identical(baseline, observed);
    }
  }
}

TEST_F(ObservabilityEquivalenceTest, WrittenFilesAreValidAndMatchRegistry) {
  const core::DseMethodology dse(app::make_sobel_application(),
                                 platform::Architecture::paper_default(),
                                 reliability::TaskAnalyzer::paper_default());
  const std::string trace_path =
      ::testing::TempDir() + "obs_files_trace.json";
  const std::string metrics_path =
      ::testing::TempDir() + "obs_files_metrics.json";
  util::set_trace_path(trace_path);
  util::set_metrics_path(metrics_path);
  util::RunManifest manifest;
  manifest.program = "observability_equivalence_test";
  manifest.seed = "7";
  util::set_run_manifest(manifest);

  util::set_thread_count(1);
  const core::DseOutcome outcome = dse.run_fcclr(small_options(7));
  ASSERT_FALSE(outcome.front.empty());
  util::write_observability_files();

  // Metrics file: parses, has the nsga2 counters, and its caches section
  // agrees with what the cache registry itself reports right now.
  const util::JsonValue metrics = util::json_parse(slurp(metrics_path));
  EXPECT_GT(metrics.at("counters").at("nsga2.evaluations").as_number(), 0.0);
  // The DSE hot paths route chain analyses through the batched kernel, so a
  // real run must register the batch counters (requests at the driver,
  // kernel invocations underneath).
  EXPECT_GT(metrics.at("counters").at("chain.batch.requests").as_number(),
            0.0);
  EXPECT_GT(
      metrics.at("counters").at("chain.batch.kernel_solves").as_number(),
      0.0);
  EXPECT_GE(
      metrics.at("histograms").at("dse.fcclr_seconds").at("count").as_number(),
      1.0);
  EXPECT_EQ(metrics.at("manifest").at("seed").as_string(), "7");
  for (const auto& [name, stats] : util::aggregate_cache_stats()) {
    const util::JsonValue& entry = metrics.at("caches").at(name);
    // The run is over, so the counters are quiescent between the snapshot
    // and this aggregation.
    EXPECT_EQ(entry.at("hits").as_number(), double(stats.hits)) << name;
    EXPECT_EQ(entry.at("misses").as_number(), double(stats.misses)) << name;
    EXPECT_EQ(entry.at("capacity").as_number(), double(stats.capacity))
        << name;
  }
  // The chain cache must actually appear, live.
  EXPECT_NE(metrics.at("caches").find("chain_solve"), nullptr);

  // Trace file: valid Chrome trace JSON with the expected span names and
  // the manifest as otherData.
  const util::JsonValue trace = util::json_parse(slurp(trace_path));
  EXPECT_EQ(trace.at("displayTimeUnit").as_string(), "ms");
  EXPECT_EQ(trace.at("otherData").at("seed").as_string(), "7");
  const util::JsonArray& events = trace.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());
  bool saw_generation = false;
  for (const util::JsonValue& event : events) {
    const std::string& ph = event.at("ph").as_string();
    EXPECT_TRUE(ph == "X" || ph == "C" || ph == "i") << ph;
    if (event.at("name").as_string() == "nsga2.generation") {
      saw_generation = true;
      EXPECT_GE(event.at("dur").as_number(), 0.0);
    }
  }
  EXPECT_TRUE(saw_generation);
}

}  // namespace
}  // namespace clrearly
