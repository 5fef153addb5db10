// Wire-format tests: JSON round-trips for the serve job format, strict
// rejection of malformed/unknown input, and the replay pin — a spooled spec
// re-executes bit-identically through the same flow entry points.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>

#include "core/dse.hpp"
#include "core/scenario.hpp"
#include "io/serialize.hpp"
#include "util/json.hpp"

namespace clrearly {
namespace {

io::JobSpec small_spec() {
  io::JobSpec spec;
  spec.name = "unit";
  spec.flow = "pfclr";
  spec.seed = 42;
  spec.threads = 2;
  spec.heuristic_seed = true;
  spec.scenario = {"bench", 3.5, 1.0};
  spec.ga.population_size = 12;
  spec.ga.generations = 3;
  spec.ga.crossover_prob = 0.75;
  spec.ga.mutation_prob = 0.3;
  spec.ga.mutation_indpb = 0.07;
  spec.objectives.mttf = true;
  spec.objectives.w_error_prob = 2.0;
  spec.spec.min_functional_rel = 0.9;
  spec.spec.max_energy_uj = 1e9;
  spec.tdse_objectives = core::TdseObjectives::table4_row(3);
  spec.application = io::resolve_application("sobel");
  spec.architecture = io::resolve_architecture("default");
  return spec;
}

/// Canonical-JSON equality: JsonObject is a sorted map and doubles print
/// shortest-round-trip, so equal specs serialize to equal strings.
std::string canon(const io::JobSpec& spec) {
  return util::json_serialize(io::to_json(spec));
}

TEST(WireFormatTest, JobSpecRoundTripsThroughJson) {
  const io::JobSpec spec = small_spec();
  const io::JobSpec back =
      io::job_spec_from_json(util::json_parse(canon(spec)));
  EXPECT_EQ(canon(spec), canon(back));
  EXPECT_EQ(back.flow, "pfclr");
  EXPECT_EQ(back.seed, 42u);
  EXPECT_EQ(back.threads, 2u);
  EXPECT_TRUE(back.heuristic_seed);
  EXPECT_DOUBLE_EQ(back.scenario.environment_factor, 3.5);
  EXPECT_EQ(back.ga.population_size, 12u);
  ASSERT_TRUE(back.spec.min_functional_rel.has_value());
  EXPECT_DOUBLE_EQ(*back.spec.min_functional_rel, 0.9);
  EXPECT_FALSE(back.spec.max_makespan_us.has_value());
}

TEST(WireFormatTest, ScenarioSetRoundTrips) {
  const core::ScenarioSet scenarios = core::ScenarioSet::ground_and_altitude();
  const core::ScenarioSet back =
      io::scenario_set_from_json(io::to_json(scenarios));
  ASSERT_EQ(back.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(back.scenario(i), scenarios.scenario(i));
  }
}

TEST(WireFormatTest, QosSpecAbsentKeysStayUnset) {
  const sched::QosSpec empty =
      io::qos_spec_from_json(util::json_parse("{}"));
  EXPECT_FALSE(empty.max_makespan_us.has_value());
  EXPECT_FALSE(empty.min_functional_rel.has_value());
  EXPECT_FALSE(empty.min_mttf_hours.has_value());
  EXPECT_FALSE(empty.max_energy_uj.has_value());
  EXPECT_FALSE(empty.max_peak_power_w.has_value());
}

TEST(WireFormatTest, AcceptsSpecStringShorthands) {
  const io::JobSpec spec = io::job_spec_from_json(util::json_parse(R"({
    "format_version": 1,
    "application": "synthetic:6:3"
  })"));
  EXPECT_EQ(spec.application.graph.num_tasks(), 6u);
  EXPECT_EQ(spec.architecture.num_pes(),
            platform::Architecture::paper_default().num_pes());
  EXPECT_EQ(spec.flow, "proposed");
  EXPECT_EQ(spec.seed, 1u);
}

TEST(WireFormatTest, RejectsUnknownFormatVersion) {
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(
                   R"({"format_version": 2, "application": "sobel"})")),
               std::runtime_error);
  // And a missing version is just as unacceptable.
  EXPECT_THROW(
      io::job_spec_from_json(util::json_parse(R"({"application": "sobel"})")),
      std::runtime_error);
}

TEST(WireFormatTest, RejectsUnknownTopLevelKeys) {
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1,
                 "application": "sobel",
                 "sed": 7
               })")),
               std::runtime_error);
}

TEST(WireFormatTest, RejectsBadFlowAndMalformedFields) {
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "flow": "warp-speed"
               })")),
               std::runtime_error);
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "seed": -3
               })")),
               std::runtime_error);
  // Nsga2Params::validate() flags semantic nonsense as invalid_argument.
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "ga": {"population_size": 1}
               })")),
               std::invalid_argument);
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "ga": {"generations": "many"}
               })")),
               std::runtime_error);
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "scenario": {"environment_factor": -1}
               })")),
               std::runtime_error);
}

TEST(WireFormatTest, RejectsIntegersOutsideTheirRange) {
  // Every integer the format carries goes through one checked conversion,
  // so a negative, fractional, non-finite or >= 2^64 value is a typed
  // rejection, never a cast. A task type cast to SIZE_MAX would wrap
  // num_types() to 0 and slip past Application::validate().
  const util::JsonValue sobel =
      io::to_json(io::resolve_application("sobel"));
  const util::JsonValue paper =
      io::to_json(io::resolve_architecture("default"));
  const auto job = [&](util::JsonValue application,
                       util::JsonValue architecture) {
    return util::JsonValue(util::JsonObject{
        {"format_version", 1},
        {"application", std::move(application)},
        {"architecture", std::move(architecture)}});
  };
  const auto with = [](util::JsonValue model, const char* list,
                       const char* key, double value) {
    util::JsonValue& entry = model.as_object()[list].as_array()[0];
    if (key == nullptr) {
      entry = util::JsonValue(value);
    } else {
      entry.as_object()[key] = util::JsonValue(value);
    }
    return model;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double two_pow_64 = 18446744073709551616.0;

  for (const double bad : {-1.0, 1.7, two_pow_64, 1e300, inf, nan}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(io::job_spec_from_json(
                     job(with(sobel, "tasks", "type", bad), paper)),
                 std::runtime_error);
    EXPECT_THROW(io::job_spec_from_json(
                     job(with(sobel, "edges", "src", bad), paper)),
                 std::runtime_error);
    EXPECT_THROW(io::job_spec_from_json(
                     job(with(sobel, "edges", "dst", bad), paper)),
                 std::runtime_error);
    EXPECT_THROW(io::job_spec_from_json(
                     job(sobel, with(paper, "pes", nullptr, bad))),
                 std::runtime_error);
    util::JsonValue seeded = job(sobel, paper);
    seeded.as_object()["seed"] = util::JsonValue(bad);
    EXPECT_THROW(io::job_spec_from_json(seeded), std::runtime_error);
  }
  // The version is compared as parsed: 2^32 + 1 must not narrow to 1.
  util::JsonValue wrapped = job(sobel, paper);
  wrapped.as_object()["format_version"] = util::JsonValue(4294967297.0);
  EXPECT_THROW(io::job_spec_from_json(wrapped), std::runtime_error);
  // The unmodified models still parse.
  EXPECT_NO_THROW(io::job_spec_from_json(job(sobel, paper)));
}

TEST(WireFormatTest, ResilienceSpecRoundTripsThroughJson) {
  io::JobSpec spec = small_spec();
  spec.flow = "kresilient";
  spec.resilience.max_failures = 2;
  spec.resilience.mission_hours = 8760.0;
  spec.resilience.spare_pes = {1, 3};
  spec.resilience.spare_penalty_weight = 2.5;
  spec.resilience.degraded_spec.max_makespan_us = 5000.0;
  spec.resilience.degraded_spec.max_energy_uj = 2e8;

  const io::JobSpec back =
      io::job_spec_from_json(util::json_parse(canon(spec)));
  EXPECT_EQ(canon(spec), canon(back));
  EXPECT_EQ(back.flow, "kresilient");
  EXPECT_EQ(back.resilience.max_failures, 2u);
  EXPECT_DOUBLE_EQ(back.resilience.mission_hours, 8760.0);
  ASSERT_EQ(back.resilience.spare_pes.size(), 2u);
  EXPECT_EQ(back.resilience.spare_pes[0], 1u);
  EXPECT_EQ(back.resilience.spare_pes[1], 3u);
  EXPECT_DOUBLE_EQ(back.resilience.spare_penalty_weight, 2.5);
  ASSERT_TRUE(back.resilience.degraded_spec.max_makespan_us.has_value());
  EXPECT_DOUBLE_EQ(*back.resilience.degraded_spec.max_makespan_us, 5000.0);
  ASSERT_TRUE(back.resilience.degraded_spec.max_energy_uj.has_value());
  EXPECT_DOUBLE_EQ(*back.resilience.degraded_spec.max_energy_uj, 2e8);
  EXPECT_FALSE(back.resilience.degraded_spec.min_functional_rel.has_value());
  EXPECT_EQ(back.resilience, spec.resilience);
}

TEST(WireFormatTest, ResilienceAbsentKeepsDefaults) {
  const io::JobSpec spec = io::job_spec_from_json(util::json_parse(R"({
    "format_version": 1,
    "application": "sobel"
  })"));
  EXPECT_EQ(spec.resilience, core::ResilienceSpec{});
  EXPECT_EQ(spec.resilience.max_failures, 1u);
  EXPECT_DOUBLE_EQ(spec.resilience.mission_hours, 20000.0);
  EXPECT_TRUE(spec.resilience.spare_pes.empty());
}

TEST(WireFormatTest, AcceptsKResilientFlow) {
  const io::JobSpec spec = io::job_spec_from_json(util::json_parse(R"({
    "format_version": 1,
    "application": "sobel",
    "flow": "kresilient",
    "resilience": {"max_failures": 1, "mission_hours": 10000}
  })"));
  EXPECT_EQ(spec.flow, "kresilient");
  EXPECT_EQ(spec.resilience.max_failures, 1u);
  EXPECT_DOUBLE_EQ(spec.resilience.mission_hours, 10000.0);
}

TEST(WireFormatTest, RejectsMalformedResilience) {
  // Unknown sub-keys inside "resilience" are rejected just like top-level.
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "resilience": {"max_failure": 1}
               })")),
               std::runtime_error);
  // Semantic validation runs against the resolved architecture: a failure
  // budget that equals the PE count can never leave a surviving mapping.
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "resilience": {"max_failures": 99}
               })")),
               std::runtime_error);
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "resilience": {"mission_hours": -5}
               })")),
               std::runtime_error);
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "resilience": {"spare_pes": [99]}
               })")),
               std::runtime_error);
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "resilience": {"max_failures": -1}
               })")),
               std::runtime_error);
}

TEST(WireFormatTest, IslandsRoundTripThroughJson) {
  io::JobSpec spec = small_spec();
  spec.island.islands = 4;
  spec.island.migration_interval = 7;
  spec.island.migration_size = 9;
  const io::JobSpec back =
      io::job_spec_from_json(util::json_parse(canon(spec)));
  EXPECT_EQ(canon(spec), canon(back));
  EXPECT_EQ(back.island.islands, 4u);
  EXPECT_EQ(back.island.migration_interval, 7u);
  EXPECT_EQ(back.island.migration_size, 9u);
  EXPECT_EQ(back.island, spec.island);
}

TEST(WireFormatTest, IslandsAbsentKeepsSinglePopulationDefaults) {
  const io::JobSpec spec = io::job_spec_from_json(util::json_parse(R"({
    "format_version": 1,
    "application": "sobel"
  })"));
  EXPECT_EQ(spec.island, moea::IslandParams{});
  EXPECT_EQ(spec.island.islands, 1u);
}

TEST(WireFormatTest, RejectsMalformedIslands) {
  // Unknown sub-keys inside "islands" are rejected just like top-level.
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "islands": {"cout": 2}
               })")),
               std::runtime_error);
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "islands": {"count": 0}
               })")),
               std::runtime_error);
  EXPECT_THROW(io::job_spec_from_json(util::json_parse(R"({
                 "format_version": 1, "application": "sobel",
                 "islands": {"count": 2, "migration_interval": 0}
               })")),
               std::runtime_error);
}

TEST(WireFormatTest, ArchiveSizeParsesOnlyAsZeroAndIsNoLongerWritten) {
  // The GA's external archive is gone. A v1 spec or journal record carrying
  // its disabled value still parses; any other value is a typed rejection.
  const auto with_archive = [](const std::string& value) {
    return util::json_parse(
        R"({"format_version": 1, "application": "sobel",
            "ga": {"population_size": 16, "archive_size": )" +
        value + "}}");
  };
  EXPECT_EQ(io::job_spec_from_json(with_archive("0")).ga.population_size,
            16u);
  for (const char* bad : {"12", "1", "-1", "0.5"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(io::job_spec_from_json(with_archive(bad)),
                 std::runtime_error);
  }
  EXPECT_EQ(canon(small_spec()).find("archive_size"), std::string::npos);
}

TEST(WireFormatTest, ModelKeyIgnoresIslandChanges) {
  // Island sharding shapes the search, not the problem: no problem build
  // reads it, so island variants of one model share a session.
  const io::JobSpec a = small_spec();
  io::JobSpec b = a;
  b.island.islands = 4;
  b.island.migration_interval = 3;
  b.island.migration_size = 12;
  EXPECT_EQ(a.model_key(), b.model_key());
}

TEST(WireFormatTest, ModelKeySeesResilienceChanges) {
  const io::JobSpec a = small_spec();
  io::JobSpec b = a;
  b.resilience.max_failures = 2;
  EXPECT_NE(a.model_key(), b.model_key());
  io::JobSpec c = a;
  c.resilience.mission_hours = 1000.0;
  EXPECT_NE(a.model_key(), c.model_key());
  io::JobSpec d = a;
  d.resilience.degraded_spec.max_makespan_us = 123.0;
  EXPECT_NE(a.model_key(), d.model_key());
}

TEST(WireFormatTest, ModelKeyIgnoresSearchHalfAndSeesModelHalf) {
  const io::JobSpec a = small_spec();
  io::JobSpec b = a;
  b.seed = 999;
  b.flow = "fcclr";
  b.name = "other";
  b.ga.generations = 50;
  b.threads = 8;
  EXPECT_EQ(a.model_key(), b.model_key());

  io::JobSpec c = a;
  c.scenario.environment_factor = 50.0;
  EXPECT_NE(a.model_key(), c.model_key());
  io::JobSpec d = a;
  d.spec.max_makespan_us = 1e7;
  EXPECT_NE(a.model_key(), d.model_key());
}

TEST(WireFormatTest, SpooledSpecReplaysBitIdentically) {
  io::JobSpec spec = small_spec();
  spec.flow = "proposed";
  spec.ga.population_size = 10;
  spec.ga.generations = 2;
  spec.heuristic_seed = false;
  spec.spec = {};

  // Spooled as the serve daemon spools it: the serialized wire form, as in
  // the journal's submit records and under "spec" in <id>.result.json.
  const io::JobSpec replay =
      io::job_spec_from_json(util::json_parse(canon(spec)));
  EXPECT_EQ(canon(spec), canon(replay));

  const core::DseMethodology dse_a(
      spec.application, spec.architecture,
      core::make_condition_analyzer(spec.scenario.environment_factor));
  const core::DseMethodology dse_b(
      replay.application, replay.architecture,
      core::make_condition_analyzer(replay.scenario.environment_factor));
  const core::DseOutcome a = dse_a.run_proposed(spec.options());
  const core::DseOutcome b = dse_b.run_proposed(replay.options());
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i], b.front[i]) << "front point " << i;
  }
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(WireFormatTest, ProgressHookObservesEveryGeneration) {
  const io::JobSpec spec = small_spec();
  const core::DseMethodology dse(
      spec.application, spec.architecture,
      core::make_condition_analyzer(spec.scenario.environment_factor));
  core::DseOptions with_hook = spec.options();
  std::size_t calls = 0;
  std::size_t last_generation = 0;
  with_hook.ga.on_generation =
      [&](const moea::GenerationProgress& progress) {
        ++calls;
        last_generation = progress.generation;
        EXPECT_EQ(progress.generations, with_hook.ga.generations);
        EXPECT_GT(progress.evaluations, 0u);
        EXPECT_GT(progress.front_size, 0u);
      };
  const core::DseOutcome hooked = dse.run_pfclr(with_hook);
  // One call per generation plus the final-front call.
  EXPECT_EQ(calls, with_hook.ga.generations + 1);
  EXPECT_EQ(last_generation, with_hook.ga.generations);

  // The hook is a pure observer: results match the hook-free run bit for bit.
  const core::DseOutcome plain = dse.run_pfclr(spec.options());
  ASSERT_EQ(hooked.front.size(), plain.front.size());
  for (std::size_t i = 0; i < hooked.front.size(); ++i) {
    EXPECT_EQ(hooked.front[i], plain.front[i]);
  }
}

}  // namespace
}  // namespace clrearly
