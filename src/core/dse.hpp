// The multi-stage system-level DSE methodology (Section V-B, Fig. 4).
//
//   fcCLR    — problem-agnostic GA over the full configuration space
//              (the Das et al. DATE'14 extension the paper compares against).
//   pfCLR    — GA over tDSE's task-level Pareto-filtered implementations
//              only (design-space pruning).
//   proposed — pfCLR first; its final Pareto front is translated into
//              full-configuration genomes and seeds a second, guided fcCLR
//              run ("seeded search" of Fig. 4b).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "core/resilience.hpp"
#include "core/tdse.hpp"
#include "moea/nsga2.hpp"

namespace clrearly::moea {

/// bench/e2e only. The island model is gone, but bench/e2e/paper_flows.cpp
/// (edited only together with the benchmark's baseline) still reads
/// `options.island.islands` and calls run_island_nsga2. One population is
/// all there is, so nothing here can be set. Delete with that benchmark
/// revision (ROADMAP Leftovers).
struct IslandParams {
  static constexpr std::size_t islands = 1;
};

/// bench/e2e only (see IslandParams): forwards to run_nsga2.
template <typename Genome>
Nsga2Result<Genome> run_island_nsga2(const Nsga2Params& params,
                                     const IslandParams& /*island*/,
                                     const Nsga2Ops<Genome>& ops,
                                     util::Rng& rng,
                                     std::vector<Genome> seeds = {}) {
  return run_nsga2(params, ops, rng, std::move(seeds));
}

}  // namespace clrearly::moea

namespace clrearly::core {

struct DseOptions {
  moea::Nsga2Params ga;               ///< population/generations/operator rates
  /// bench/e2e only (see moea::IslandParams); holds no value.
  moea::IslandParams island;
  SystemObjectives objectives;        ///< system-level metrics to minimize
  sched::QosSpec spec;                ///< QoS constraints (Eq. 5)
  TdseObjectives tdse_objectives = TdseObjectives::tdse_run(1);
  std::uint64_t seed = 1;             ///< master RNG seed

  /// Seed every fcCLR-encoded GA population with the HEFT + greedy-hardening
  /// heuristic's design (core/heuristics). Deterministic, costs milliseconds,
  /// and guarantees the population starts with a good (often feasible)
  /// individual.
  bool heuristic_seed = false;

  /// Permanent-fault scenario axis for run_kresilient (ignored by the other
  /// flows): certify mappings against the loss of any `resilience.max_failures`
  /// PEs over the mission.
  ResilienceSpec resilience;
};

/// Result of one DSE flow: the final Pareto front (objective vectors and the
/// genomes behind them) and the number of fitness evaluations spent.
struct DseOutcome {
  std::vector<moea::Objectives> front;
  std::vector<MappingGenome> front_genomes;
  std::size_t evaluations = 0;
};

class DseMethodology {
 public:
  DseMethodology(app::Application application,
                 platform::Architecture architecture,
                 reliability::TaskAnalyzer analyzer);

  const app::Application& application() const noexcept { return app_; }
  const platform::Architecture& architecture() const noexcept { return arch_; }
  const reliability::TaskAnalyzer& analyzer() const noexcept {
    return analyzer_;
  }

  /// tDSE over every task type with the options' task-level objectives.
  std::vector<TdseResult> run_tdse(const DseOptions& options) const;

  /// Full-configuration GA (baseline).
  DseOutcome run_fcclr(const DseOptions& options) const;

  /// Pareto-filtered GA; runs tDSE internally.
  DseOutcome run_pfclr(const DseOptions& options) const;

  /// Pareto-filtered GA over precomputed tDSE results (lets callers share
  /// one tDSE across flows, as the paper's Fig. 10 experiment does).
  DseOutcome run_pfclr(const DseOptions& options,
                       const std::vector<TdseResult>& tdse) const;

  /// The proposed two-stage flow (pfCLR-seeded fcCLR).
  DseOutcome run_proposed(const DseOptions& options) const;
  DseOutcome run_proposed(const DseOptions& options,
                          const std::vector<TdseResult>& tdse) const;

  /// k-resilient flow: fcCLR-encoded GA whose fitness certifies every
  /// candidate against the loss of any options.resilience.max_failures PEs
  /// (core/resilience). Heuristic seeding uses the same HEFT + greedy
  /// hardening design the nominal flows seed with. Returned front points are
  /// k-resilient: feasible under the nominal spec AND under the degraded
  /// spec for every enumerated failure set.
  DseOutcome run_kresilient(const DseOptions& options) const;

  /// Problem-sharing variants: run a flow against caller-owned problem
  /// instances instead of constructing fresh ones per call. The problems
  /// must have been built over this methodology's application, architecture
  /// and analyzer with the options' objectives and spec (build_fcclr_problem
  /// / build_pfclr_problem produce exactly that). A reused problem skips
  /// the metric-table build (and, for pfCLR, the tDSE run behind it) — the
  /// serve daemon's sessions share problems across requests this way —
  /// while the search follows the exact same code path as the one-shot
  /// entry points, and evaluation is a pure function of the genome, so
  /// results stay bit-identical run for run.
  DseOutcome run_fcclr(const DseOptions& options,
                       const ClrMappingProblem& fc) const;
  DseOutcome run_pfclr(const DseOptions& options,
                       const ClrMappingProblem& pf) const;
  DseOutcome run_proposed(const DseOptions& options,
                          const ClrMappingProblem& pf,
                          const ClrMappingProblem& fc) const;
  DseOutcome run_kresilient(const DseOptions& options,
                            const ResilientProblem& problem) const;

  /// Construct the problems the flows above run over (the same construction
  /// the one-shot entry points perform internally).
  ClrMappingProblem build_fcclr_problem(const DseOptions& options) const;
  ClrMappingProblem build_pfclr_problem(
      const DseOptions& options, const std::vector<TdseResult>& tdse) const;
  ResilientProblem build_resilient_problem(const DseOptions& options) const;

  /// A GA result's reported front: the feasible members of its first front
  /// (moea::is_feasible), one per distinct objective vector, in front order.
  static DseOutcome collect(moea::Nsga2Result<MappingGenome> result);

 private:
  app::Application app_;
  platform::Architecture arch_;
  reliability::TaskAnalyzer analyzer_;
};

}  // namespace clrearly::core
