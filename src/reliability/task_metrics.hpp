// Task-level performance metrics of an implementation under a CLR
// configuration (TABLE II, right column): minimum and average execution
// time, error probability, MTTF (via the Weibull scale parameter eta as a
// thermal-stress indicator), average power — plus energy and peak
// temperature, which TABLE IV's objective ladder also sweeps.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "platform/pe.hpp"
#include "reliability/clr_chain_builder.hpp"
#include "reliability/clr_config.hpp"
#include "reliability/fault_model.hpp"
#include "reliability/weibull.hpp"

namespace clrearly::reliability {

/// Characterization of one base implementation Impl(t,i) of a task at the
/// *nominal* DVFS point, before any CLR method is applied. In the paper this
/// comes from Gem5/McPAT runs; here from app::ImplCharacterizer. An
/// implementation targets a PE *class*: a binary compiled for the embedded
/// cores runs on any of them (their AVF masking differs, the code does not),
/// a bitstream only on a reconfigurable region.
struct BaseImpl {
  std::string name;
  platform::PeClass target = platform::PeClass::kEmbeddedProcessor;
  double base_exec_time_us = 0;   ///< nominal-DVFS execution time
  double base_power_w = 0;        ///< nominal-DVFS dynamic power

  /// Program-level SEU derating: kernels differ in how much of their
  /// architectural state is live (a strike on dead data is harmless). The
  /// effective fault rate is multiplied by this factor.
  double vulnerability = 1.0;

  /// Relative cost of system-software mechanisms for this kernel: detection
  /// (result checking) and checkpointing (state size) overheads scale with
  /// it. Distinguishes streaming kernels (small state, cheap checkpoints)
  /// from buffered ones.
  double ssw_overhead_factor = 1.0;

  /// Local-memory footprint in KB (code + working buffers); checked against
  /// the hosting PE's capacity when the storage constraint is enabled.
  double footprint_kb = 0.0;

  /// True when this implementation can execute on a PE of type `pe`.
  bool runs_on(const platform::PeType& pe) const noexcept {
    return pe.pe_class == target;
  }

  void validate() const;
};

/// The task-level metrics of TABLE II (plus energy / peak temperature).
struct TaskMetrics {
  double min_exec_time_us = 0;  ///< MinExT: error-free execution time
  double avg_exec_time_us = 0;  ///< AvgExT: Markov-chain expectation
  double exec_time_stddev_us = 0;  ///< spread of the execution-time law
  double error_prob = 0;        ///< ErrProb: P[uncorrected error]
  double avg_power_w = 0;       ///< W: average power during execution
  double energy_uj = 0;         ///< J: AvgExT * W
  double peak_temp_c = 0;       ///< steady-state junction temperature
  double eta_hours = 0;         ///< Weibull scale (stress indicator)
  double mttf_hours = 0;        ///< eta * Gamma(1 + 1/beta)
  double footprint_kb = 0;      ///< local-memory need (incl. checkpoint buffers)
};

/// Evaluates TaskMetrics for (implementation, PE type, CLR configuration)
/// triples by composing the fault/thermal/aging models with the Fig. 3
/// Markov chains. Stateless apart from model parameters; cheap to copy.
class TaskAnalyzer {
 public:
  TaskAnalyzer(ClrSpace space, FaultEnvironment env, ThermalModel thermal,
               ArrheniusAging aging);

  /// All-defaults analyzer matching the paper's evaluation setup.
  static TaskAnalyzer paper_default();

  /// Copy of this analyzer operating under a different environmental
  /// fault-rate multiplier (same catalogs, thermal and aging models) — the
  /// building block of multi-scenario analysis.
  TaskAnalyzer with_environment_factor(double factor) const;

  const ClrSpace& space() const noexcept { return space_; }
  const FaultEnvironment& environment() const noexcept { return env_; }

  /// Override the SSW implicit-masking of every evaluation (the Fig. 6b
  /// ImplMask sweep). A negative value (default) defers to each SswMethod's
  /// own implicit_masking.
  void set_implicit_masking_override(double m);

  /// Evaluate the metrics of `impl` running on PE type `pe` under `config`
  /// (a one-element evaluate_batch). Throws std::invalid_argument when the
  /// implementation does not run on `pe` (class mismatch) and on
  /// out-of-range configuration indices.
  TaskMetrics evaluate(const BaseImpl& impl, const platform::PeType& pe,
                       const ClrConfig& config) const;

  /// One (implementation, PE type, configuration) evaluation request for
  /// the batched paths. The pointees must outlive the evaluate_jobs call.
  struct EvalJob {
    const BaseImpl* impl = nullptr;
    const platform::PeType* pe = nullptr;
    ClrConfig config;
  };

  /// Batched evaluate(): bit-identical results to calling evaluate() on
  /// each job in order, but every chain solve is collected and dispatched
  /// through analyze_clr_chain_batch — cache hits are served individually,
  /// misses are deduped, padded to size classes and solved W lanes at a
  /// time by the SIMD kernel.
  std::vector<TaskMetrics> evaluate_jobs(std::span<const EvalJob> jobs) const;

  /// The common sweep shape — one (impl, pe) pair under many
  /// configurations — as one evaluate_jobs call.
  std::vector<TaskMetrics> evaluate_batch(const BaseImpl& impl,
                                          const platform::PeType& pe,
                                          std::span<const ClrConfig> configs) const;

  /// The fully resolved Fig. 3 chain inputs for (impl, pe, config) — exactly
  /// what evaluate() solves analytically. Exposed so simulation oracles
  /// (reliability::inject_faults, the sim/ Monte Carlo scheduler) can replay
  /// the identical fault process instead of re-deriving the scaling.
  ClrChainParams chain_params(const BaseImpl& impl, const platform::PeType& pe,
                              const ClrConfig& config) const;

 private:
  /// The non-chain half of an evaluation: power / thermal / aging /
  /// footprint derived from (impl, pe, config) plus the already-solved
  /// chain analysis.
  TaskMetrics metrics_from_analysis(const BaseImpl& impl,
                                    const platform::PeType& pe,
                                    const ClrConfig& config,
                                    const ClrChainAnalysis& chain) const;

  ClrSpace space_;
  FaultEnvironment env_;
  ThermalModel thermal_;
  ArrheniusAging aging_;
  double implicit_masking_override_ = -1.0;
};

}  // namespace clrearly::reliability
