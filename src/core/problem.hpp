// The CLR-integrated task-mapping optimization problem (Eq. 5).
//
// A ClrMappingProblem turns a MappingGenome into system-level QoS metrics:
// decode the per-task decisions (implementation, PE, CLR configuration),
// look the task-level metrics up in a precomputed Markov-model table, run
// the list scheduler, and score the TABLE III metrics against the QoS spec.
// The search path (evaluate) decodes into the thread's sched::QosWorkspace,
// as (PE, metric-table pointer) pairs, and scores them with an evaluation
// plan built at construction that computes only the fields the objectives
// and the spec read.
//
// Two modes mirror the paper's search spaces:
//  * kFullConfig (fcCLR)     — every CLR decision is a separate gene:
//                              [impl, PE, HWRel, SSWRel, ASWRel, DVFS].
//  * kParetoFiltered (pfCLR) — genes index into the task-level Pareto
//                              fronts produced by tDSE: [point, PE].
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "app/task_graph.hpp"
#include "core/encoding.hpp"
#include "core/tdse.hpp"
#include "moea/nsga2.hpp"
#include "platform/architecture.hpp"
#include "reliability/task_metrics.hpp"
#include "sched/qos.hpp"
#include "util/memo_cache.hpp"

namespace clrearly::core {

/// Which TABLE III metrics the system-level optimization minimizes
/// (MTTF is negated; the paper's headline problem is makespan + error prob).
/// The w_<m> terms of Eq. 5 scale each active objective — they do not change
/// Pareto dominance on their own, but matter for hypervolume shaping and for
/// weighted-sum scalarization by downstream users.
struct SystemObjectives {
  bool makespan = true;
  bool error_prob = true;
  bool mttf = false;
  bool energy = false;
  bool power = false;

  double w_makespan = 1.0;
  double w_error_prob = 1.0;
  double w_mttf = 1.0;
  double w_energy = 1.0;
  double w_power = 1.0;

  /// All five metrics active (the full Eq. 5 objective vector).
  static SystemObjectives all();

  std::size_t count() const;
  std::vector<double> extract(const sched::QosMetrics& m) const;

  /// The optional QosMetrics fields extract() reads.
  sched::QosFieldMask fields_read() const;

  /// Weighted-sum scalarization of the active objectives (for single-
  /// objective consumers; weights must be positive for a meaningful scalar).
  double scalarize(const sched::QosMetrics& m) const;
};

class ClrMappingProblem {
 public:
  enum class Mode { kFullConfig, kParetoFiltered };

  /// fcCLR gene fields (per task).
  static constexpr std::size_t kFieldImpl = 0;
  static constexpr std::size_t kFieldPeSel = 1;
  static constexpr std::size_t kFieldHw = 2;
  static constexpr std::size_t kFieldSsw = 3;
  static constexpr std::size_t kFieldAsw = 4;
  static constexpr std::size_t kFieldDvfs = 5;
  static constexpr std::size_t kFullConfigFields = 6;

  /// pfCLR gene fields (per task).
  static constexpr std::size_t kFieldPoint = 0;
  // kFieldPeSel (=1) is shared.
  static constexpr std::size_t kParetoFields = 2;

  /// Full-configuration (fcCLR) problem. `axes` restricts which CLR decision
  /// axes are explored — the single-layer baselines of Fig. 7 pin all but
  /// one axis to the no-op entry.
  ClrMappingProblem(app::Application application,
                    platform::Architecture architecture,
                    reliability::TaskAnalyzer analyzer,
                    SystemObjectives objectives, sched::QosSpec spec,
                    reliability::ClrAxes axes = reliability::ClrAxes::all());

  /// Pareto-filtered (pfCLR) problem over tDSE results;
  /// `pareto_points[type]` must be non-empty for every task type.
  ClrMappingProblem(app::Application application,
                    platform::Architecture architecture,
                    reliability::TaskAnalyzer analyzer,
                    SystemObjectives objectives, sched::QosSpec spec,
                    std::vector<std::vector<TaskDesignPoint>> pareto_points);

  Mode mode() const noexcept { return mode_; }
  const GenomeLayout& layout() const noexcept { return *layout_; }
  const app::Application& application() const noexcept { return app_; }
  const platform::Architecture& architecture() const noexcept { return arch_; }
  const SystemObjectives& objectives() const noexcept { return objectives_; }
  const sched::QosSpec& spec() const noexcept { return spec_; }
  const reliability::TaskAnalyzer& analyzer() const noexcept {
    return analyzer_;
  }
  const reliability::ClrAxes& axes() const noexcept { return axes_; }

  /// Resolve the per-task decisions encoded in `genome`.
  std::vector<sched::TaskDecision> decode(const MappingGenome& genome) const;

  /// Fully resolved choice for one task: the PE instance, the implementation
  /// index within the task type's catalog, the CLR configuration and the
  /// resulting metrics. decode() flattens this into sched::TaskDecisions;
  /// consumers that need the underlying choices (e.g. core/sim_bridge
  /// rebuilding the fault-process parameters for simulation) use resolve().
  struct ResolvedTask {
    std::size_t pe = 0;
    std::size_t impl_index = 0;
    reliability::ClrConfig config;
    reliability::TaskMetrics metrics;
  };

  /// Resolve every task of `genome` (same decoding as decode()).
  std::vector<ResolvedTask> resolve(const MappingGenome& genome) const;

  /// Human-readable resolution of a genome: per task, the chosen
  /// implementation, PE, CLR configuration and resulting metrics. For
  /// presenting final design points to the designer (examples, reports).
  struct TaskChoice {
    std::string task_name;
    std::string impl_name;
    std::size_t pe = 0;
    std::string pe_type_name;
    reliability::ClrConfig config;
    std::string config_text;  ///< ClrSpace::describe() of `config`
    reliability::TaskMetrics metrics;
  };
  std::vector<TaskChoice> report(const MappingGenome& genome) const;

  /// Full QoS metrics of a genome (decode + schedule + TABLE III).
  sched::QosMetrics qos(const MappingGenome& genome) const;

  /// QoS of a genome through `plan`, a plan over this problem's application
  /// and architecture: the fields it selects, each bit-equal to qos()'s.
  /// Decodes into the calling thread's sched::QosWorkspace, so a warm call
  /// allocates nothing. The genome's order is checked by the plan.
  sched::QosMetrics qos(const MappingGenome& genome,
                        const sched::QosPlan& plan) const;

  /// NSGA-II fitness: active objectives + QoS-spec violation, through the
  /// problem's plan (the fields objectives() and spec() read). A pure
  /// function of the genome, computed on every call (nothing is memoized
  /// per genome); safe to call concurrently.
  moea::Evaluation evaluate(const MappingGenome& genome) const;

  /// Always empty: evaluation memoizes nothing. Kept only because
  /// bench/e2e/paper_flows.cpp still calls it, and bench/e2e changes only
  /// with a benchmark revision; delete it together with that call.
  util::CacheStats fitness_cache_stats() const { return {}; }

  /// Variation/evaluation callbacks bound to this problem. The problem must
  /// outlive the returned ops. `mutation_indpb` is the per-task mutation
  /// probability (paper: 0.05).
  moea::Nsga2Ops<MappingGenome> ops(double mutation_indpb = 0.05) const;

  /// Degraded-mode repair (the permanent-fault scenario axis): rewrite the
  /// PE-choice genes of every task whose decoded PE is marked failed so the
  /// mapping runs entirely on surviving PEs. Displaced tasks are reassigned
  /// greedily by earliest estimated finish time over the surviving
  /// candidates — the heft_clr_mapping assignment rule restricted to the
  /// degraded machine — visited in the genome's schedule-priority order;
  /// tasks already on surviving PEs keep their genes bit for bit. fcCLR
  /// repair keeps each displaced task's implementation and CLR
  /// configuration; pfCLR repair prefers a surviving instance of the chosen
  /// Pareto point's PE type and considers other Pareto points only when that
  /// type has no survivors. Deterministic (ties break on the lowest PE id).
  /// `failed` needs one entry per PE (nonzero = failed). Returns
  /// std::nullopt when some displaced task has no surviving host.
  std::optional<MappingGenome> repair_for_failures(
      const MappingGenome& genome, const std::vector<char>& failed) const;

  /// Translate a genome of this (pfCLR) problem into an equivalent genome of
  /// the fcCLR problem `fc` over the same application and architecture —
  /// the seeding step of the proposed methodology. Throws when called on a
  /// non-pfCLR problem or with a non-fcCLR target.
  MappingGenome translate_to(const ClrMappingProblem& fc,
                             const MappingGenome& genome) const;

  /// log10 of the number of design points in this problem's search space
  /// (Section V-B):
  ///   fcCLR: P^T * T! * prod_t (I_t * |C_t|)
  ///   pfCLR: P^T * T! * prod_t Ipf_t
  /// Logarithmic because the raw counts overflow double well before 100
  /// tasks. |C_t| uses the maximum DVFS cardinality of the platform.
  double log10_design_space_size() const;

 private:
  /// Validates the application and fills pes_by_class_ / pes_by_type_.
  void group_pes();
  void build_full_config_tables();
  void build_layout();

  /// One task's decoded choice, pointing into the metric tables.
  struct Choice {
    std::size_t pe = 0;
    std::size_t impl_index = 0;
    reliability::ClrConfig config;
    const reliability::TaskMetrics* metrics = nullptr;
  };
  Choice decode_task(const MappingGenome& genome, std::size_t t) const;
  ResolvedTask resolve_task(const MappingGenome& genome, std::size_t t) const;

  app::Application app_;
  platform::Architecture arch_;
  reliability::TaskAnalyzer analyzer_;
  SystemObjectives objectives_;
  sched::QosSpec spec_;
  reliability::ClrAxes axes_;
  Mode mode_;
  std::unique_ptr<GenomeLayout> layout_;

  /// PE instances grouped by class (index = PeClass) and by type.
  std::vector<std::vector<std::size_t>> pes_by_class_;
  std::vector<std::vector<std::size_t>> pes_by_type_;

  /// fcCLR: metrics_[type][impl][pe_type] is a dense table over the CLR
  /// configuration space (linear index over hw, ssw, asw, dvfs); empty for
  /// incompatible (impl, pe_type) pairs. Only axis-reachable entries are
  /// populated.
  std::vector<std::vector<std::vector<std::vector<reliability::TaskMetrics>>>>
      metrics_;

  /// pfCLR: the tDSE Pareto points per task type.
  std::vector<std::vector<TaskDesignPoint>> points_;

  /// evaluate()'s plan: the fields objectives_ and spec_ read.
  sched::QosPlan plan_;
};

}  // namespace clrearly::core
