#include "reliability/fault_injection.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace clrearly::reliability {

TaskSampler::TaskSampler(ClrChainParams params) : params_(std::move(params)) {
  params_.validate();
}

TaskTrial TaskSampler::sample(util::Rng& rng) const noexcept {
  // Retry cap per interval: generous enough that hitting it means the
  // configuration cannot make progress (the analytical model would have
  // rejected it as non-absorbing).
  constexpr std::size_t kMaxAttemptsPerInterval = 1'000'000;

  TaskTrial trial;
  for (std::size_t i = 0; i < params_.intervals; ++i) {
    const double t_ici = params_.interval_time(i);
    const double p_fault = 1.0 - std::exp(-params_.lambda_per_us * t_ici);

    bool interval_done = false;
    for (std::size_t attempt = 0;
         attempt < kMaxAttemptsPerInterval && !interval_done; ++attempt) {
      // Useful execution plus the always-on detection pass.
      trial.exec_time_us += t_ici + params_.detection_time_us;

      if (!rng.bernoulli(p_fault)) {
        interval_done = true;  // clean execution
        break;
      }
      ++trial.faults;

      // Hardware spatial redundancy out-votes the fault?
      if (rng.bernoulli(params_.hw_masking)) {
        interval_done = true;
        break;
      }
      // Implicit system-software masking?
      if (rng.bernoulli(params_.implicit_ssw_masking)) {
        interval_done = true;
        break;
      }
      // Detection.
      if (rng.bernoulli(params_.detection_coverage)) {
        trial.exec_time_us += params_.tolerance_time_us;
        if (rng.bernoulli(params_.tolerance_success)) {
          ++trial.rollbacks;
          continue;  // roll back: re-execute this interval
        }
      }
      // Undetected or tolerance failed: the ASW layer is the last line.
      if (!rng.bernoulli(params_.asw_masking)) {
        trial.corrupted = true;
      }
      interval_done = true;  // execution proceeds either way
    }
    if (!interval_done) {
      // Retry cap exhausted — treat as a failed run.
      trial.corrupted = true;
      break;
    }

    // Checkpoint between intervals.
    if (i + 1 < params_.intervals) {
      trial.exec_time_us += params_.checkpoint_time_us;
      if (rng.bernoulli(params_.checkpoint_error_prob)) {
        trial.corrupted = true;  // snapshot corrupted (Fig. 3b dotted edge)
      }
    }
  }
  return trial;
}

InjectionResult inject_faults(const ClrChainParams& params,
                              std::size_t trials, std::uint64_t seed) {
  const TaskSampler sampler(params);
  if (trials == 0) {
    throw std::invalid_argument("inject_faults: trials must be positive");
  }
  util::Rng rng(seed);

  // Fault and rollback counts are integers far below 2^53, so summing them
  // as doubles is exact.
  double total_time = 0.0;
  double total_errors = 0.0;
  double total_faults = 0.0;
  double total_rollbacks = 0.0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const TaskTrial run = sampler.sample(rng);
    total_time += run.exec_time_us;
    if (run.corrupted) total_errors += 1.0;
    total_faults += static_cast<double>(run.faults);
    total_rollbacks += static_cast<double>(run.rollbacks);
  }

  const double n = static_cast<double>(trials);
  InjectionResult result;
  result.trials = trials;
  result.mean_exec_time_us = total_time / n;
  result.error_rate = total_errors / n;
  result.mean_faults_injected = total_faults / n;
  result.mean_rollbacks = total_rollbacks / n;
  return result;
}

}  // namespace clrearly::reliability
