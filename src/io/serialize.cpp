#include "io/serialize.hpp"

#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "app/characterizer.hpp"
#include "app/mjpeg.hpp"
#include "app/sobel.hpp"

namespace clrearly::io {

namespace {

using util::JsonArray;
using util::JsonObject;
using util::JsonValue;

const char* class_tag(platform::PeClass c) {
  return c == platform::PeClass::kEmbeddedProcessor ? "processor" : "fabric";
}

platform::PeClass class_from_tag(const std::string& tag) {
  if (tag == "processor") return platform::PeClass::kEmbeddedProcessor;
  if (tag == "fabric") return platform::PeClass::kReconfigurableRegion;
  throw std::runtime_error("serialize: unknown PE class '" + tag + "'");
}

/// Every integer the model and wire formats carry goes through the one
/// checked conversion (JsonValue::as_uint64); this names the field in the
/// error.
std::uint64_t as_uint64(const JsonValue& value, const char* what) {
  try {
    return value.as_uint64();
  } catch (const std::runtime_error&) {
    throw std::runtime_error(std::string("serialize: ") + what +
                             " must be a non-negative integer");
  }
}

std::size_t as_index(const JsonValue& value, const char* what) {
  return static_cast<std::size_t>(as_uint64(value, what));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("serialize: cannot open " + path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("serialize: cannot write " + path);
  out << content;
  if (!out) throw std::runtime_error("serialize: write failed for " + path);
}

}  // namespace

// ------------------------------------------------------------ architecture

JsonValue to_json(const platform::Architecture& architecture) {
  JsonArray types;
  for (const platform::PeType& type : architecture.types()) {
    JsonArray dvfs;
    for (const platform::DvfsMode& mode : type.dvfs.modes()) {
      dvfs.push_back(JsonObject{{"name", mode.name},
                                {"voltage_v", mode.voltage_v},
                                {"freq_mhz", mode.freq_mhz}});
    }
    types.push_back(JsonObject{
        {"name", type.name},
        {"class", class_tag(type.pe_class)},
        {"masking_factor", type.masking_factor},
        {"weibull_beta", type.weibull_beta},
        {"weibull_eta_base_hours", type.weibull_eta_base_hours},
        {"idle_power_w", type.idle_power_w},
        {"memory_kb", type.memory_kb},
        {"dvfs", std::move(dvfs)}});
  }
  JsonArray pes;
  for (const platform::Pe& pe : architecture.pes()) {
    pes.push_back(JsonValue(pe.type_index));
  }
  JsonObject root{{"types", std::move(types)}, {"pes", std::move(pes)}};
  if (architecture.interconnect().models_communication()) {
    root.emplace(
        "interconnect",
        JsonObject{
            {"bandwidth_kb_per_us",
             architecture.interconnect().bandwidth_kb_per_us},
            {"latency_us", architecture.interconnect().latency_us}});
  }
  return JsonValue(std::move(root));
}

platform::Architecture architecture_from_json(const JsonValue& json) {
  platform::Architecture arch;
  for (const JsonValue& entry : json.at("types").as_array()) {
    platform::PeType type;
    type.name = entry.at("name").as_string();
    type.pe_class = class_from_tag(entry.at("class").as_string());
    type.masking_factor = entry.at("masking_factor").as_number();
    type.weibull_beta = entry.at("weibull_beta").as_number();
    type.weibull_eta_base_hours =
        entry.at("weibull_eta_base_hours").as_number();
    type.idle_power_w = entry.at("idle_power_w").as_number();
    type.memory_kb = entry.number_or("memory_kb", 0.0);
    std::vector<platform::DvfsMode> modes;
    for (const JsonValue& m : entry.at("dvfs").as_array()) {
      modes.push_back(platform::DvfsMode{m.at("name").as_string(),
                                         m.at("voltage_v").as_number(),
                                         m.at("freq_mhz").as_number()});
    }
    type.dvfs = platform::DvfsTable(std::move(modes));
    arch.add_type(std::move(type));
  }
  for (const JsonValue& pe : json.at("pes").as_array()) {
    arch.add_pe(as_index(pe, "pes[]"));
  }
  if (const JsonValue* icn = json.find("interconnect")) {
    platform::Interconnect interconnect;
    interconnect.bandwidth_kb_per_us =
        icn->at("bandwidth_kb_per_us").as_number();
    interconnect.latency_us = icn->at("latency_us").as_number();
    arch.set_interconnect(interconnect);
  }
  return arch;
}

// ------------------------------------------------------------ application

JsonValue to_json(const app::Application& application) {
  JsonArray tasks;
  for (const app::Task& task : application.graph.tasks()) {
    tasks.push_back(JsonObject{{"name", task.name},
                               {"type", task.type},
                               {"criticality", task.criticality}});
  }
  JsonArray edges;
  for (const app::Edge& edge : application.graph.edges()) {
    edges.push_back(JsonObject{
        {"src", edge.src}, {"dst", edge.dst}, {"data_kb", edge.data_kb}});
  }
  JsonArray impls;
  for (const auto& type_impls : application.impls) {
    JsonArray list;
    for (const reliability::BaseImpl& impl : type_impls) {
      list.push_back(
          JsonObject{{"name", impl.name},
                     {"target", class_tag(impl.target)},
                     {"base_exec_time_us", impl.base_exec_time_us},
                     {"base_power_w", impl.base_power_w},
                     {"vulnerability", impl.vulnerability},
                     {"ssw_overhead_factor", impl.ssw_overhead_factor},
                     {"footprint_kb", impl.footprint_kb}});
    }
    impls.push_back(std::move(list));
  }
  return JsonValue(JsonObject{{"name", application.name},
                              {"period_us", application.period_us},
                              {"tasks", std::move(tasks)},
                              {"edges", std::move(edges)},
                              {"impls", std::move(impls)}});
}

app::Application application_from_json(const JsonValue& json) {
  app::Application application;
  application.name = json.at("name").as_string();
  application.period_us = json.at("period_us").as_number();
  for (const JsonValue& t : json.at("tasks").as_array()) {
    application.graph.add_task(as_index(t.at("type"), "tasks[].type"),
                               t.at("name").as_string(),
                               t.number_or("criticality", 1.0));
  }
  for (const JsonValue& e : json.at("edges").as_array()) {
    application.graph.add_edge(as_index(e.at("src"), "edges[].src"),
                               as_index(e.at("dst"), "edges[].dst"),
                               e.number_or("data_kb", 0.0));
  }
  for (const JsonValue& type_impls : json.at("impls").as_array()) {
    std::vector<reliability::BaseImpl> list;
    for (const JsonValue& i : type_impls.as_array()) {
      reliability::BaseImpl impl;
      impl.name = i.at("name").as_string();
      impl.target = class_from_tag(i.at("target").as_string());
      impl.base_exec_time_us = i.at("base_exec_time_us").as_number();
      impl.base_power_w = i.at("base_power_w").as_number();
      impl.vulnerability = i.number_or("vulnerability", 1.0);
      impl.ssw_overhead_factor = i.number_or("ssw_overhead_factor", 1.0);
      impl.footprint_kb = i.number_or("footprint_kb", 0.0);
      list.push_back(std::move(impl));
    }
    application.impls.push_back(std::move(list));
  }
  application.validate();
  return application;
}

// ------------------------------------------------------------ file helpers

void save_architecture(const std::string& path,
                       const platform::Architecture& architecture) {
  write_file(path, util::json_serialize(to_json(architecture)));
}

platform::Architecture load_architecture(const std::string& path) {
  return architecture_from_json(util::json_parse(read_file(path)));
}

void save_application(const std::string& path,
                      const app::Application& application) {
  write_file(path, util::json_serialize(to_json(application)));
}

app::Application load_application(const std::string& path) {
  return application_from_json(util::json_parse(read_file(path)));
}

// ------------------------------------------------------------ spec strings

app::Application resolve_application(const std::string& spec) {
  if (spec == "sobel") return app::make_sobel_application();
  if (spec == "mjpeg") return app::make_mjpeg_application();
  if (spec.rfind("synthetic:", 0) == 0) {
    const std::string rest = spec.substr(10);
    const std::size_t colon = rest.find(':');
    const std::size_t tasks = std::stoul(rest.substr(0, colon));
    const std::uint64_t seed =
        colon == std::string::npos ? 1 : std::stoull(rest.substr(colon + 1));
    return app::make_synthetic_application(tasks, 10, seed);
  }
  return load_application(spec);
}

platform::Architecture resolve_architecture(const std::string& spec) {
  if (spec == "default") return platform::Architecture::paper_default();
  return load_architecture(spec);
}

// ------------------------------------------------------------- wire format

namespace {

void set_optional(JsonObject& object, const char* key,
                  const std::optional<double>& value) {
  if (value.has_value()) object.emplace(key, *value);
}

std::optional<double> get_optional(const JsonValue& json, const char* key) {
  const JsonValue* value = json.find(key);
  if (value == nullptr) return std::nullopt;
  return value->as_number();
}

/// Reject keys outside `allowed` so a typoed field fails loud instead of
/// silently falling back to a default.
void reject_unknown_keys(const JsonObject& object,
                         std::initializer_list<const char*> allowed,
                         const char* what) {
  for (const auto& [key, value] : object) {
    bool known = false;
    for (const char* name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      throw std::runtime_error(std::string("serialize: unknown ") + what +
                               " field '" + key + "'");
    }
  }
}

}  // namespace

JsonValue to_json(const core::Scenario& scenario) {
  return JsonValue(JsonObject{{"name", scenario.name},
                              {"environment_factor",
                               scenario.environment_factor},
                              {"weight", scenario.weight}});
}

core::Scenario scenario_from_json(const JsonValue& json) {
  reject_unknown_keys(json.as_object(),
                      {"name", "environment_factor", "weight"}, "scenario");
  core::Scenario scenario;
  if (const JsonValue* name = json.find("name")) {
    scenario.name = name->as_string();
  }
  scenario.environment_factor = json.number_or("environment_factor", 1.0);
  scenario.weight = json.number_or("weight", 1.0);
  return scenario;
}

JsonValue to_json(const core::ScenarioSet& scenarios) {
  JsonArray list;
  for (const core::Scenario& scenario : scenarios.scenarios()) {
    list.push_back(to_json(scenario));
  }
  return JsonValue(std::move(list));
}

core::ScenarioSet scenario_set_from_json(const JsonValue& json) {
  std::vector<core::Scenario> scenarios;
  for (const JsonValue& entry : json.as_array()) {
    scenarios.push_back(scenario_from_json(entry));
  }
  return core::ScenarioSet(std::move(scenarios));
}

JsonValue to_json(const moea::Nsga2Params& params) {
  return JsonValue(JsonObject{
      {"population_size", params.population_size},
      {"generations", params.generations},
      {"crossover_prob", params.crossover_prob},
      {"mutation_prob", params.mutation_prob},
      {"mutation_indpb", params.mutation_indpb},
      {"tournament_k", params.tournament_k}});
}

moea::Nsga2Params nsga2_params_from_json(const JsonValue& json) {
  reject_unknown_keys(json.as_object(),
                      {"population_size", "generations", "crossover_prob",
                       "mutation_prob", "mutation_indpb", "tournament_k",
                       "archive_size"},
                      "ga");
  moea::Nsga2Params params;
  if (const JsonValue* v = json.find("population_size")) {
    params.population_size = as_index(*v, "ga.population_size");
  }
  if (const JsonValue* v = json.find("generations")) {
    params.generations = as_index(*v, "ga.generations");
  }
  params.crossover_prob = json.number_or("crossover_prob",
                                         params.crossover_prob);
  params.mutation_prob = json.number_or("mutation_prob", params.mutation_prob);
  params.mutation_indpb = json.number_or("mutation_indpb",
                                         params.mutation_indpb);
  if (const JsonValue* v = json.find("tournament_k")) {
    params.tournament_k = as_index(*v, "ga.tournament_k");
  }
  // The external archive is gone; v1 specs and journals wrote its
  // disabled value, 0, which still parses.
  if (const JsonValue* v = json.find("archive_size")) {
    if (as_index(*v, "ga.archive_size") != 0) {
      throw std::runtime_error(
          "serialize: ga.archive_size: the external archive was removed; "
          "only 0 is accepted");
    }
  }
  params.validate();
  return params;
}

JsonValue to_json(const core::SystemObjectives& objectives) {
  return JsonValue(JsonObject{{"makespan", objectives.makespan},
                              {"error_prob", objectives.error_prob},
                              {"mttf", objectives.mttf},
                              {"energy", objectives.energy},
                              {"power", objectives.power},
                              {"w_makespan", objectives.w_makespan},
                              {"w_error_prob", objectives.w_error_prob},
                              {"w_mttf", objectives.w_mttf},
                              {"w_energy", objectives.w_energy},
                              {"w_power", objectives.w_power}});
}

core::SystemObjectives system_objectives_from_json(const JsonValue& json) {
  reject_unknown_keys(json.as_object(),
                      {"makespan", "error_prob", "mttf", "energy", "power",
                       "w_makespan", "w_error_prob", "w_mttf", "w_energy",
                       "w_power"},
                      "objectives");
  core::SystemObjectives objectives;
  auto flag = [&](const char* key, bool fallback) {
    const JsonValue* value = json.find(key);
    return value == nullptr ? fallback : value->as_bool();
  };
  objectives.makespan = flag("makespan", objectives.makespan);
  objectives.error_prob = flag("error_prob", objectives.error_prob);
  objectives.mttf = flag("mttf", objectives.mttf);
  objectives.energy = flag("energy", objectives.energy);
  objectives.power = flag("power", objectives.power);
  objectives.w_makespan = json.number_or("w_makespan", objectives.w_makespan);
  objectives.w_error_prob =
      json.number_or("w_error_prob", objectives.w_error_prob);
  objectives.w_mttf = json.number_or("w_mttf", objectives.w_mttf);
  objectives.w_energy = json.number_or("w_energy", objectives.w_energy);
  objectives.w_power = json.number_or("w_power", objectives.w_power);
  if (objectives.count() == 0) {
    throw std::runtime_error(
        "serialize: objectives must enable at least one metric");
  }
  return objectives;
}

JsonValue to_json(const sched::QosSpec& spec) {
  JsonObject object;
  set_optional(object, "max_makespan_us", spec.max_makespan_us);
  set_optional(object, "min_functional_rel", spec.min_functional_rel);
  set_optional(object, "min_mttf_hours", spec.min_mttf_hours);
  set_optional(object, "max_energy_uj", spec.max_energy_uj);
  set_optional(object, "max_peak_power_w", spec.max_peak_power_w);
  return JsonValue(std::move(object));
}

sched::QosSpec qos_spec_from_json(const JsonValue& json) {
  reject_unknown_keys(json.as_object(),
                      {"max_makespan_us", "min_functional_rel",
                       "min_mttf_hours", "max_energy_uj", "max_peak_power_w"},
                      "qos");
  sched::QosSpec spec;
  spec.max_makespan_us = get_optional(json, "max_makespan_us");
  spec.min_functional_rel = get_optional(json, "min_functional_rel");
  spec.min_mttf_hours = get_optional(json, "min_mttf_hours");
  spec.max_energy_uj = get_optional(json, "max_energy_uj");
  spec.max_peak_power_w = get_optional(json, "max_peak_power_w");
  return spec;
}

JsonValue to_json(const core::ResilienceSpec& resilience) {
  JsonArray spares;
  spares.reserve(resilience.spare_pes.size());
  for (std::size_t pe : resilience.spare_pes) spares.emplace_back(pe);
  return JsonValue(
      JsonObject{{"max_failures", resilience.max_failures},
                 {"mission_hours", resilience.mission_hours},
                 {"spare_pes", std::move(spares)},
                 {"spare_penalty_weight", resilience.spare_penalty_weight},
                 {"degraded_qos", to_json(resilience.degraded_spec)}});
}

core::ResilienceSpec resilience_spec_from_json(const JsonValue& json) {
  reject_unknown_keys(json.as_object(),
                      {"max_failures", "mission_hours", "spare_pes",
                       "spare_penalty_weight", "degraded_qos"},
                      "resilience");
  core::ResilienceSpec resilience;
  if (const JsonValue* k = json.find("max_failures")) {
    resilience.max_failures = as_index(*k, "max_failures");
  }
  resilience.mission_hours =
      json.number_or("mission_hours", resilience.mission_hours);
  if (const JsonValue* spares = json.find("spare_pes")) {
    for (const JsonValue& pe : spares->as_array()) {
      resilience.spare_pes.push_back(as_index(pe, "spare_pes"));
    }
  }
  resilience.spare_penalty_weight = json.number_or(
      "spare_penalty_weight", resilience.spare_penalty_weight);
  if (const JsonValue* degraded = json.find("degraded_qos")) {
    resilience.degraded_spec = qos_spec_from_json(*degraded);
  }
  return resilience;
}

JsonValue to_json(const moea::IslandParams& island) {
  return JsonValue(
      JsonObject{{"count", island.islands},
                 {"migration_interval", island.migration_interval},
                 {"migration_size", island.migration_size}});
}

moea::IslandParams island_params_from_json(const JsonValue& json) {
  reject_unknown_keys(json.as_object(),
                      {"count", "migration_interval", "migration_size"},
                      "islands");
  moea::IslandParams island;
  if (const JsonValue* count = json.find("count")) {
    island.islands = as_index(*count, "count");
  }
  if (const JsonValue* interval = json.find("migration_interval")) {
    island.migration_interval = as_index(*interval, "migration_interval");
  }
  if (const JsonValue* size = json.find("migration_size")) {
    island.migration_size = as_index(*size, "migration_size");
  }
  try {
    island.validate();
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("serialize: islands: ") + e.what());
  }
  return island;
}

JsonValue to_json(const core::TdseObjectives& objectives) {
  return JsonValue(JsonObject{{"avg_exec_time", objectives.avg_exec_time},
                              {"error_prob", objectives.error_prob},
                              {"mttf", objectives.mttf},
                              {"energy", objectives.energy},
                              {"power", objectives.power},
                              {"peak_temp", objectives.peak_temp}});
}

core::TdseObjectives tdse_objectives_from_json(const JsonValue& json) {
  reject_unknown_keys(json.as_object(),
                      {"avg_exec_time", "error_prob", "mttf", "energy",
                       "power", "peak_temp"},
                      "tdse_objectives");
  core::TdseObjectives objectives;
  auto flag = [&](const char* key, bool fallback) {
    const JsonValue* value = json.find(key);
    return value == nullptr ? fallback : value->as_bool();
  };
  objectives.avg_exec_time = flag("avg_exec_time", objectives.avg_exec_time);
  objectives.error_prob = flag("error_prob", objectives.error_prob);
  objectives.mttf = flag("mttf", objectives.mttf);
  objectives.energy = flag("energy", objectives.energy);
  objectives.power = flag("power", objectives.power);
  objectives.peak_temp = flag("peak_temp", objectives.peak_temp);
  if (objectives.count() == 0) {
    throw std::runtime_error(
        "serialize: tdse_objectives must enable at least one metric");
  }
  return objectives;
}

core::DseOptions JobSpec::options() const {
  core::DseOptions options;
  options.ga = ga;
  options.objectives = objectives;
  options.spec = spec;
  options.tdse_objectives = tdse_objectives;
  options.seed = seed;
  options.heuristic_seed = heuristic_seed;
  options.resilience = resilience;
  options.island = island;
  return options;
}

std::string JobSpec::model_key() const {
  // Canonical because JsonObject keys are sorted and number formatting is
  // shortest-round-trip to_chars: equal models always produce equal keys.
  JsonObject model{{"application", to_json(application)},
                   {"architecture", to_json(architecture)},
                   {"environment_factor", scenario.environment_factor},
                   {"objectives", to_json(objectives)},
                   {"qos", to_json(spec)},
                   {"resilience", to_json(resilience)},
                   {"tdse_objectives", to_json(tdse_objectives)}};
  return util::json_serialize(JsonValue(std::move(model)));
}

JsonValue to_json(const JobSpec& spec) {
  JsonObject root{{"format_version", spec.format_version},
                  {"flow", spec.flow},
                  {"seed", spec.seed},
                  {"threads", spec.threads},
                  {"heuristic_seed", spec.heuristic_seed},
                  {"scenario", to_json(spec.scenario)},
                  {"ga", to_json(spec.ga)},
                  {"objectives", to_json(spec.objectives)},
                  {"islands", to_json(spec.island)},
                  {"qos", to_json(spec.spec)},
                  {"resilience", to_json(spec.resilience)},
                  {"tdse_objectives", to_json(spec.tdse_objectives)},
                  {"application", to_json(spec.application)},
                  {"architecture", to_json(spec.architecture)}};
  if (!spec.name.empty()) root.emplace("name", spec.name);
  return JsonValue(std::move(root));
}

JobSpec job_spec_from_json(const JsonValue& json) {
  reject_unknown_keys(json.as_object(),
                      {"format_version", "name", "flow", "seed", "threads",
                       "heuristic_seed", "scenario", "ga", "objectives",
                       "islands", "qos", "resilience", "tdse_objectives",
                       "application", "architecture"},
                      "job");
  JobSpec spec;
  // Compared as the parsed integer: narrowing first would let 2^32 + 1
  // pass as version 1.
  const std::uint64_t format_version =
      as_uint64(json.at("format_version"), "format_version");
  if (format_version != kWireFormatVersion) {
    throw std::runtime_error(
        "serialize: unsupported job format_version " +
        std::to_string(format_version) + " (this build speaks v" +
        std::to_string(kWireFormatVersion) + ")");
  }
  spec.format_version = kWireFormatVersion;
  if (const JsonValue* name = json.find("name")) {
    spec.name = name->as_string();
  }
  if (const JsonValue* flow = json.find("flow")) {
    spec.flow = flow->as_string();
  }
  if (spec.flow != "fcclr" && spec.flow != "pfclr" &&
      spec.flow != "proposed" && spec.flow != "kresilient") {
    throw std::runtime_error(
        "serialize: unknown flow '" + spec.flow +
        "' (expected fcclr | pfclr | proposed | kresilient)");
  }
  if (const JsonValue* seed = json.find("seed")) {
    spec.seed = as_uint64(*seed, "seed");
  }
  if (const JsonValue* threads = json.find("threads")) {
    spec.threads = as_index(*threads, "threads");
  }
  if (const JsonValue* heuristic = json.find("heuristic_seed")) {
    spec.heuristic_seed = heuristic->as_bool();
  }
  if (const JsonValue* scenario = json.find("scenario")) {
    spec.scenario = scenario_from_json(*scenario);
  }
  if (spec.scenario.environment_factor <= 0.0) {
    throw std::runtime_error(
        "serialize: scenario.environment_factor must be positive");
  }
  if (const JsonValue* ga = json.find("ga")) {
    spec.ga = nsga2_params_from_json(*ga);
  }
  if (const JsonValue* objectives = json.find("objectives")) {
    spec.objectives = system_objectives_from_json(*objectives);
  }
  if (const JsonValue* islands = json.find("islands")) {
    spec.island = island_params_from_json(*islands);
  }
  if (const JsonValue* qos = json.find("qos")) {
    spec.spec = qos_spec_from_json(*qos);
  }
  if (const JsonValue* resilience = json.find("resilience")) {
    spec.resilience = resilience_spec_from_json(*resilience);
  }
  if (const JsonValue* tdse = json.find("tdse_objectives")) {
    spec.tdse_objectives = tdse_objectives_from_json(*tdse);
  }
  const JsonValue& application = json.at("application");
  spec.application = application.is_string()
                         ? resolve_application(application.as_string())
                         : application_from_json(application);
  if (const JsonValue* architecture = json.find("architecture")) {
    spec.architecture = architecture->is_string()
                            ? resolve_architecture(architecture->as_string())
                            : architecture_from_json(*architecture);
  } else {
    spec.architecture = platform::Architecture::paper_default();
  }
  // Resilience can only be checked once the architecture is known (the spare
  // ids and failure budget are relative to its PE count). Rethrow as
  // runtime_error to keep from_json's error contract uniform.
  try {
    spec.resilience.validate(spec.architecture.num_pes());
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("serialize: resilience: ") +
                             e.what());
  }
  return spec;
}

}  // namespace clrearly::io
