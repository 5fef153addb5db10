#include "reliability/task_metrics.hpp"

#include <stdexcept>
#include <utility>

#include "reliability/clr_chain_builder.hpp"

namespace clrearly::reliability {

void BaseImpl::validate() const {
  if (name.empty()) throw std::invalid_argument("BaseImpl: empty name");
  if (base_exec_time_us <= 0.0) {
    throw std::invalid_argument("BaseImpl: execution time must be positive");
  }
  if (base_power_w <= 0.0) {
    throw std::invalid_argument("BaseImpl: power must be positive");
  }
  if (vulnerability <= 0.0) {
    throw std::invalid_argument("BaseImpl: vulnerability must be positive");
  }
  if (ssw_overhead_factor <= 0.0) {
    throw std::invalid_argument(
        "BaseImpl: SSW overhead factor must be positive");
  }
  if (footprint_kb < 0.0) {
    throw std::invalid_argument("BaseImpl: footprint must be non-negative");
  }
}

TaskAnalyzer::TaskAnalyzer(ClrSpace space, FaultEnvironment env,
                           ThermalModel thermal, ArrheniusAging aging)
    : space_(std::move(space)), env_(env), thermal_(thermal), aging_(aging) {
  env_.validate();
  thermal_.validate();
}

TaskAnalyzer TaskAnalyzer::paper_default() {
  FaultEnvironment env;
  env.dvfs_sensitivity = 1.2;  // keeps the slowest mode's ErrProb in the
                               // tens of percent, matching Fig. 6's range
  return TaskAnalyzer(ClrSpace::paper_default(), env, ThermalModel{},
                      ArrheniusAging{});
}

TaskAnalyzer TaskAnalyzer::with_environment_factor(double factor) const {
  TaskAnalyzer copy = *this;
  copy.env_.environment_factor = factor;
  copy.env_.validate();
  return copy;
}

void TaskAnalyzer::set_implicit_masking_override(double m) {
  if (m > 1.0) {
    throw std::invalid_argument("implicit masking override must be <= 1");
  }
  implicit_masking_override_ = m;
}

ClrChainParams TaskAnalyzer::chain_params(const BaseImpl& impl,
                                          const platform::PeType& pe,
                                          const ClrConfig& config) const {
  impl.validate();
  if (!impl.runs_on(pe)) {
    throw std::invalid_argument("TaskAnalyzer: implementation " + impl.name +
                                " does not target PE class " +
                                platform::to_string(pe.pe_class));
  }
  space_.check(config, pe.dvfs.size());

  const HwMethod& hw = space_.hw(config);
  const SswMethod& ssw = space_.ssw(config);
  const AswMethod& asw = space_.asw(config);

  // --- Time: DVFS slowdown, then HW (voting) and ASW (encode/verify) work.
  const double time_scale =
      pe.dvfs.time_scale(config.dvfs) * hw.time_factor * asw.time_factor;
  const double exec_time = impl.base_exec_time_us * time_scale;

  // --- Effective SEU rate on this PE at this operating point, derated by
  // the kernel's program-level vulnerability.
  const double lambda =
      effective_seu_rate(env_, pe, config.dvfs) * impl.vulnerability;

  // --- Chain inputs. Detection runs once per interval on 1/intervals of the
  // work; tolerance restores one interval; each checkpoint snapshots state.
  ClrChainParams params;
  params.exec_time_us = exec_time;
  params.lambda_per_us = lambda;
  params.hw_masking = hw.masking;
  params.implicit_ssw_masking = implicit_masking_override_ >= 0.0
                                    ? implicit_masking_override_
                                    : ssw.implicit_masking;
  params.detection_coverage = ssw.detection_coverage;
  params.tolerance_success = ssw.tolerance_success;
  params.asw_masking = asw.masking;
  params.intervals = ssw.intervals;
  const double interval_time = exec_time / static_cast<double>(ssw.intervals);
  const double ssw_cost = impl.ssw_overhead_factor;
  params.detection_time_us = ssw.detection_time_frac * interval_time * ssw_cost;
  params.tolerance_time_us = ssw.tolerance_time_frac * exec_time * ssw_cost;
  params.checkpoint_time_us =
      ssw.checkpoint_time_frac * exec_time * ssw_cost;
  params.checkpoint_error_prob = ssw.checkpoint_error_prob;
  return params;
}

TaskMetrics TaskAnalyzer::metrics_from_analysis(
    const BaseImpl& impl, const platform::PeType& pe, const ClrConfig& config,
    const ClrChainAnalysis& chain) const {
  const SswMethod& ssw = space_.ssw(config);
  const HwMethod& hw = space_.hw(config);
  const AswMethod& asw = space_.asw(config);

  // --- Power / energy / thermals.
  const double power = impl.base_power_w * pe.dvfs.power_scale(config.dvfs) *
                           hw.power_factor * asw.power_factor +
                       pe.idle_power_w;
  const double temp_c = thermal_.junction_temperature_c(power);
  const double eta = aging_.scale_eta(pe.weibull_eta_base_hours, temp_c);

  TaskMetrics out;
  out.min_exec_time_us = chain.min_exec_time_us;
  out.avg_exec_time_us = chain.avg_exec_time_us;
  out.exec_time_stddev_us = chain.exec_time_stddev_us;
  out.error_prob = chain.error_prob;
  out.avg_power_w = power;
  out.energy_uj = chain.avg_exec_time_us * power;
  out.peak_temp_c = temp_c;
  out.eta_hours = eta;
  out.mttf_hours = Weibull(eta, pe.weibull_beta).mttf();
  // Storage: each checkpoint needs a state buffer (~1/4 of the working set).
  out.footprint_kb =
      impl.footprint_kb *
      (1.0 + 0.25 * static_cast<double>(ssw.intervals - 1));
  return out;
}

TaskMetrics TaskAnalyzer::evaluate(const BaseImpl& impl,
                                   const platform::PeType& pe,
                                   const ClrConfig& config) const {
  return evaluate_batch(impl, pe, {&config, 1})[0];
}

std::vector<TaskMetrics> TaskAnalyzer::evaluate_jobs(
    std::span<const EvalJob> jobs) const {
  // Resolve every job to its chain inputs first (this is also where all
  // argument validation fires, before any solve), then hand the whole set
  // to the batched analyzer: cache hits come back individually, misses get
  // deduped, padded into size classes and solved W lanes at a time.
  std::vector<ClrChainParams> params;
  params.reserve(jobs.size());
  for (const EvalJob& job : jobs) {
    params.push_back(chain_params(*job.impl, *job.pe, job.config));
  }
  const std::vector<ClrChainAnalysis> chains = analyze_clr_chain_batch(params);

  std::vector<TaskMetrics> out;
  out.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out.push_back(metrics_from_analysis(*jobs[i].impl, *jobs[i].pe,
                                        jobs[i].config, chains[i]));
  }
  return out;
}

std::vector<TaskMetrics> TaskAnalyzer::evaluate_batch(
    const BaseImpl& impl, const platform::PeType& pe,
    std::span<const ClrConfig> configs) const {
  std::vector<EvalJob> jobs;
  jobs.reserve(configs.size());
  for (const ClrConfig& config : configs) jobs.push_back({&impl, &pe, config});
  return evaluate_jobs(jobs);
}

}  // namespace clrearly::reliability
