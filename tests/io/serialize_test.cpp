#include "io/serialize.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>

#include "app/characterizer.hpp"
#include "app/sobel.hpp"
#include "core/dse.hpp"

namespace clrearly::io {
namespace {

void expect_same_architecture(const platform::Architecture& a,
                              const platform::Architecture& b) {
  ASSERT_EQ(a.num_types(), b.num_types());
  ASSERT_EQ(a.num_pes(), b.num_pes());
  for (std::size_t t = 0; t < a.num_types(); ++t) {
    const platform::PeType& x = a.type(t);
    const platform::PeType& y = b.type(t);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.pe_class, y.pe_class);
    EXPECT_DOUBLE_EQ(x.masking_factor, y.masking_factor);
    EXPECT_DOUBLE_EQ(x.weibull_beta, y.weibull_beta);
    EXPECT_DOUBLE_EQ(x.weibull_eta_base_hours, y.weibull_eta_base_hours);
    EXPECT_DOUBLE_EQ(x.idle_power_w, y.idle_power_w);
    ASSERT_EQ(x.dvfs.size(), y.dvfs.size());
    for (std::size_t d = 0; d < x.dvfs.size(); ++d) {
      EXPECT_EQ(x.dvfs.mode(d), y.dvfs.mode(d));
    }
  }
  for (std::size_t p = 0; p < a.num_pes(); ++p) {
    EXPECT_EQ(a.pe(p).type_index, b.pe(p).type_index);
  }
  EXPECT_DOUBLE_EQ(a.interconnect().bandwidth_kb_per_us,
                   b.interconnect().bandwidth_kb_per_us);
  EXPECT_DOUBLE_EQ(a.interconnect().latency_us, b.interconnect().latency_us);
}

void expect_same_application(const app::Application& a,
                             const app::Application& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_DOUBLE_EQ(a.period_us, b.period_us);
  ASSERT_EQ(a.graph.num_tasks(), b.graph.num_tasks());
  for (std::size_t t = 0; t < a.graph.num_tasks(); ++t) {
    EXPECT_EQ(a.graph.task(t).name, b.graph.task(t).name);
    EXPECT_EQ(a.graph.task(t).type, b.graph.task(t).type);
    EXPECT_DOUBLE_EQ(a.graph.task(t).criticality,
                     b.graph.task(t).criticality);
  }
  EXPECT_EQ(a.graph.edges(), b.graph.edges());
  ASSERT_EQ(a.impls.size(), b.impls.size());
  for (std::size_t type = 0; type < a.impls.size(); ++type) {
    ASSERT_EQ(a.impls[type].size(), b.impls[type].size());
    for (std::size_t i = 0; i < a.impls[type].size(); ++i) {
      const auto& x = a.impls[type][i];
      const auto& y = b.impls[type][i];
      EXPECT_EQ(x.name, y.name);
      EXPECT_EQ(x.target, y.target);
      EXPECT_DOUBLE_EQ(x.base_exec_time_us, y.base_exec_time_us);
      EXPECT_DOUBLE_EQ(x.base_power_w, y.base_power_w);
      EXPECT_DOUBLE_EQ(x.vulnerability, y.vulnerability);
      EXPECT_DOUBLE_EQ(x.ssw_overhead_factor, y.ssw_overhead_factor);
    }
  }
}

TEST(SerializeArchitectureTest, PaperDefaultRoundTrips) {
  const platform::Architecture original =
      platform::Architecture::paper_default();
  const platform::Architecture restored =
      architecture_from_json(to_json(original));
  expect_same_architecture(original, restored);
}

TEST(SerializeArchitectureTest, InterconnectRoundTrips) {
  platform::Architecture original = platform::Architecture::paper_default();
  platform::Interconnect icn;
  icn.bandwidth_kb_per_us = 4.0;
  icn.latency_us = 1.5;
  original.set_interconnect(icn);
  const platform::Architecture restored =
      architecture_from_json(to_json(original));
  expect_same_architecture(original, restored);
  EXPECT_TRUE(restored.interconnect().models_communication());
}

TEST(SerializeArchitectureTest, LoadValidatesTypes) {
  // A PE referencing a missing type index must be rejected by add_pe.
  const auto json = util::json_parse(R"({
    "types": [],
    "pes": [0]
  })");
  EXPECT_THROW(architecture_from_json(json), std::out_of_range);
}

TEST(SerializeApplicationTest, SobelRoundTrips) {
  const app::Application original = app::make_sobel_application();
  const app::Application restored = application_from_json(to_json(original));
  expect_same_application(original, restored);
  EXPECT_NO_THROW(restored.validate());
}

TEST(SerializeApplicationTest, SyntheticRoundTrips) {
  const app::Application original = app::make_synthetic_application(25, 10, 9);
  const app::Application restored = application_from_json(to_json(original));
  expect_same_application(original, restored);
}

TEST(SerializeApplicationTest, OptionalFieldsDefault) {
  const auto json = util::json_parse(R"({
    "name": "mini",
    "period_us": 1000,
    "tasks": [{"name": "t0", "type": 0}],
    "edges": [],
    "impls": [[{"name": "i", "target": "processor",
                "base_exec_time_us": 10, "base_power_w": 0.1}]]
  })");
  const app::Application a = application_from_json(json);
  EXPECT_DOUBLE_EQ(a.graph.task(0).criticality, 1.0);
  EXPECT_DOUBLE_EQ(a.impls[0][0].vulnerability, 1.0);
  EXPECT_DOUBLE_EQ(a.impls[0][0].ssw_overhead_factor, 1.0);
}

TEST(SerializeApplicationTest, BadClassTagRejected) {
  const auto json = util::json_parse(R"({
    "name": "mini", "period_us": 1000,
    "tasks": [{"name": "t0", "type": 0}],
    "edges": [],
    "impls": [[{"name": "i", "target": "gpu",
                "base_exec_time_us": 10, "base_power_w": 0.1}]]
  })");
  EXPECT_THROW(application_from_json(json), std::runtime_error);
}

class SerializeFileTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs each test as its own process, in parallel.
  std::string path_ =
      (std::filesystem::temp_directory_path() /
       (std::string("clrearly_serialize_test_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".json"))
          .string();
  void TearDown() override { std::filesystem::remove(path_); }
};

TEST_F(SerializeFileTest, ArchitectureFileRoundTrip) {
  const platform::Architecture original =
      platform::Architecture::paper_default();
  save_architecture(path_, original);
  const platform::Architecture restored = load_architecture(path_);
  expect_same_architecture(original, restored);
}

TEST_F(SerializeFileTest, ApplicationFileRoundTrip) {
  const app::Application original = app::make_sobel_application();
  save_application(path_, original);
  const app::Application restored = load_application(path_);
  expect_same_application(original, restored);
}

TEST_F(SerializeFileTest, MissingFileThrows) {
  EXPECT_THROW(load_application("/nonexistent_xyz/app.json"),
               std::runtime_error);
  EXPECT_THROW(save_application("/nonexistent_xyz/app.json",
                                app::make_sobel_application()),
               std::runtime_error);
}

TEST_F(SerializeFileTest, LoadedModelDrivesDse) {
  // The acid test: a round-tripped model must produce the same DSE result
  // as the in-memory original.
  save_application(path_, app::make_sobel_application());
  const app::Application loaded = load_application(path_);

  const platform::Architecture arch = platform::Architecture::paper_default();
  core::DseOptions options;
  options.ga.population_size = 16;
  options.ga.generations = 4;
  options.seed = 3;

  const core::DseMethodology dse_orig(app::make_sobel_application(), arch,
                                      reliability::TaskAnalyzer::paper_default());
  const core::DseMethodology dse_load(loaded, arch,
                                      reliability::TaskAnalyzer::paper_default());
  EXPECT_EQ(dse_orig.run_pfclr(options).front,
            dse_load.run_pfclr(options).front);
}

}  // namespace
}  // namespace clrearly::io
