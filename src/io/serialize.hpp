// JSON model exchange: save and load Application and Architecture
// descriptions. Lets users author system models in files (or dump generated
// synthetic ones) instead of constructing them in code — the interface a
// released research tool needs.
//
// Format sketch (all numbers plain JSON):
//   architecture: { "types": [ {name, class, masking_factor, weibull_beta,
//                    weibull_eta_base_hours, idle_power_w,
//                    dvfs: [{name, voltage_v, freq_mhz}, ...]}, ... ],
//                   "pes": [type_index, ...],
//                   "interconnect": {bandwidth_kb_per_us, latency_us} }
//   application:  { name, period_us,
//                   "tasks": [{name, type, criticality}, ...],
//                   "edges": [{src, dst, data_kb}, ...],
//                   "impls": [ [ {name, target, base_exec_time_us,
//                                 base_power_w, vulnerability,
//                                 ssw_overhead_factor}, ... ], ... ] }
// Versioned job wire format (format_version 1): a JobSpec bundles everything
// a DSE run needs — flow, seed, operating condition, GA parameters,
// objectives, QoS spec and the full application/architecture models — into
// one JSON document, so jobs can be submitted to the serve daemon, spooled
// to disk and replayed bit-identically later. Unknown format versions and
// unknown top-level keys are rejected (fail loud, not silently wrong).
#pragma once

#include <cstdint>
#include <string>

#include "app/task_graph.hpp"
#include "core/dse.hpp"
#include "core/scenario.hpp"
#include "platform/architecture.hpp"
#include "util/json.hpp"

namespace clrearly::io {

/// Architecture <-> JSON.
util::JsonValue to_json(const platform::Architecture& architecture);
platform::Architecture architecture_from_json(const util::JsonValue& json);

/// Application <-> JSON.
util::JsonValue to_json(const app::Application& application);
app::Application application_from_json(const util::JsonValue& json);

/// File convenience wrappers (throw std::runtime_error on I/O failure and
/// std::runtime_error / std::invalid_argument on malformed content).
void save_architecture(const std::string& path,
                       const platform::Architecture& architecture);
platform::Architecture load_architecture(const std::string& path);
void save_application(const std::string& path,
                      const app::Application& application);
app::Application load_application(const std::string& path);

/// Resolve the spec strings every clrearly front end accepts:
///   application: "sobel" | "mjpeg" | "synthetic:<tasks>[:<seed>]" | a path
///   architecture: "default" | a path
/// (the CLI's --app/--arch values and the wire format's string shorthands).
app::Application resolve_application(const std::string& spec);
platform::Architecture resolve_architecture(const std::string& spec);

// --------------------------------------------------------------- wire format

/// Version of the job wire format. from_json rejects documents whose
/// format_version differs — a v2 reader must be written deliberately, never
/// improvised by ignoring fields.
inline constexpr int kWireFormatVersion = 1;

/// Operating condition <-> JSON.
util::JsonValue to_json(const core::Scenario& scenario);
core::Scenario scenario_from_json(const util::JsonValue& json);

/// Scenario set <-> JSON (weights serialized post-normalization).
util::JsonValue to_json(const core::ScenarioSet& scenarios);
core::ScenarioSet scenario_set_from_json(const util::JsonValue& json);

/// NSGA-II parameters <-> JSON. The on_generation observer is runtime-only
/// state and is never serialized.
util::JsonValue to_json(const moea::Nsga2Params& params);
moea::Nsga2Params nsga2_params_from_json(const util::JsonValue& json);

/// System-level objective selection <-> JSON.
util::JsonValue to_json(const core::SystemObjectives& objectives);
core::SystemObjectives system_objectives_from_json(const util::JsonValue& json);

/// QoS spec <-> JSON; absent keys mean "constraint unset".
util::JsonValue to_json(const sched::QosSpec& spec);
sched::QosSpec qos_spec_from_json(const util::JsonValue& json);

/// Permanent-fault resilience axis <-> JSON (the kresilient flow's
/// parameters: tolerated failures, mission time, spares, degraded spec).
util::JsonValue to_json(const core::ResilienceSpec& resilience);
core::ResilienceSpec resilience_spec_from_json(const util::JsonValue& json);

/// tDSE objective ladder <-> JSON.
util::JsonValue to_json(const core::TdseObjectives& objectives);
core::TdseObjectives tdse_objectives_from_json(const util::JsonValue& json);

/// One self-contained DSE job: which flow to run, with which seed, under
/// which operating condition, over which (embedded) models. The JSON form
/// accepts either embedded model objects or the spec-string shorthands
/// ("sobel", "default", ...); to_json always embeds the resolved models so
/// a spooled job replays identically even if the builtins evolve.
struct JobSpec {
  int format_version = kWireFormatVersion;
  std::string name;               ///< optional client label
  std::string flow = "proposed";  ///< fcclr | pfclr | proposed | kresilient
  std::uint64_t seed = 1;
  /// Requested worker threads, recorded into the job manifest. Results are
  /// thread-count-invariant by construction, so the daemon may execute on
  /// its own pool without changing a bit of the outcome.
  std::size_t threads = 0;
  bool heuristic_seed = false;
  core::Scenario scenario;  ///< operating condition (environment factor)
  moea::Nsga2Params ga;
  core::SystemObjectives objectives;
  sched::QosSpec spec;
  core::TdseObjectives tdse_objectives = core::TdseObjectives::tdse_run(1);
  /// Permanent-fault axis; consulted by the kresilient flow only, but always
  /// serialized (and part of the model key) so resilient and nominal jobs
  /// never alias each other's problem caches.
  core::ResilienceSpec resilience;
  app::Application application;
  platform::Architecture architecture;

  /// Translate into the options struct the DseMethodology flows consume.
  core::DseOptions options() const;

  /// Canonical serialization of the *model* half (application, architecture,
  /// scenario environment, objectives, spec, tDSE ladder, resilience) —
  /// everything that determines ClrMappingProblem construction and
  /// evaluation, and nothing that doesn't (seed, GA budget, flow, label).
  /// Jobs with equal model keys can share problem instances.
  std::string model_key() const;
};

util::JsonValue to_json(const JobSpec& spec);
/// Inverse of to_json. Throws std::runtime_error on an unknown
/// format_version, unknown top-level keys, a bad flow tag or malformed
/// fields (via the strict JsonValue accessors).
JobSpec job_spec_from_json(const util::JsonValue& json);

}  // namespace clrearly::io
