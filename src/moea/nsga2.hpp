// NSGA-II engine, genome-agnostic.
//
// The paper implements its GA-based DSE with DEAP/PYGMO (tournament size 5,
// crossover probability 0.8, mutation probability 0.05). This is the same
// algorithm family: fast non-dominated sorting, crowding-distance diversity,
// elitist (mu + lambda) survivor selection and Deb's constrained dominance
// for the QoS limits of Eq. 5. Problem specifics (the Fig. 5 encoding) enter
// exclusively through the Nsga2Ops callbacks, and directed seeding — the
// backbone of the proposed pfCLR -> fcCLR flow — through the `seeds`
// argument of run_nsga2, the one driver.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "moea/operators.hpp"
#include "moea/pareto.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace clrearly::moea {

/// Result of evaluating one genome: objective vector (minimized) and total
/// constraint violation (0 = feasible).
struct Evaluation {
  Objectives objectives;
  double violation = 0.0;
};

/// Per-generation convergence snapshot handed to Nsga2Params::on_generation.
/// Fired once per generation from already-computed telemetry (and once more
/// after the final generation), so observing progress costs nothing beyond
/// the callback itself.
struct GenerationProgress {
  std::size_t generation = 0;   ///< completed generations so far (0 = initial)
  std::size_t generations = 0;  ///< total planned generations
  std::size_t evaluations = 0;  ///< cumulative fitness evaluations
  std::size_t front_size = 0;   ///< current first-front size
  double hv_proxy = 0.0;        ///< bounding-box hypervolume proxy
};

/// Progress observer. Must not touch the RNG or mutate search state — the
/// hook is a pure observer, so hooked and unhooked runs are bit-identical.
/// Throwing from the hook aborts the run (the exception propagates out of
/// run_nsga2) — this is the sanctioned early-termination/cancellation path
/// for long-running jobs.
using ProgressHook = std::function<void(const GenerationProgress&)>;

struct Nsga2Params {
  std::size_t population_size = 100;
  std::size_t generations = 60;
  double crossover_prob = 0.8;  ///< paper Section VI-A
  /// Probability that an offspring undergoes the mutation operator at all.
  /// Defaults to 1: the CLR encoding's operator is itself probabilistic
  /// per task (see mutation_indpb), matching DEAP's mutpb/indpb split.
  double mutation_prob = 1.0;
  /// Per-task mutation probability handed to the problem's mutation
  /// operator (the paper's 0.05, DEAP indpb convention).
  double mutation_indpb = 0.05;
  std::size_t tournament_k = 5;  ///< paper Section V-C

  /// Optional per-generation progress observer (see GenerationProgress).
  /// Null by default; never serialized as part of any wire format.
  ProgressHook on_generation;

  void validate() const {
    if (population_size < 2) {
      throw std::invalid_argument("Nsga2Params: population too small");
    }
    if (tournament_k == 0) {
      throw std::invalid_argument("Nsga2Params: tournament size must be >= 1");
    }
    if (crossover_prob < 0.0 || crossover_prob > 1.0 || mutation_prob < 0.0 ||
        mutation_prob > 1.0 || mutation_indpb < 0.0 || mutation_indpb > 1.0) {
      throw std::invalid_argument("Nsga2Params: probabilities outside [0,1]");
    }
  }
};

/// Problem plug-in: genome construction, variation and evaluation.
template <typename Genome>
struct Nsga2Ops {
  std::function<Genome(util::Rng&)> create;
  std::function<std::pair<Genome, Genome>(const Genome&, const Genome&,
                                          util::Rng&)>
      crossover;
  std::function<void(Genome&, util::Rng&)> mutate;
  std::function<Evaluation(const Genome&)> evaluate;
};

template <typename Genome>
struct EvaluatedGenome {
  Genome genome;
  Evaluation eval;
};

template <typename Genome>
struct Nsga2Result {
  std::vector<EvaluatedGenome<Genome>> population;  ///< final population
  std::vector<std::size_t> front;  ///< indices of the first (feasible) front
  std::size_t evaluations = 0;     ///< total fitness evaluations performed

  /// Objective vectors of the final front.
  std::vector<Objectives> front_objectives() const {
    std::vector<Objectives> out;
    out.reserve(front.size());
    for (std::size_t i : front) out.push_back(population[i].eval.objectives);
    return out;
  }
};

/// Parent-selection ranking: NSGA-II rank (front index) and crowding
/// distance for every population member.
struct RankCrowding {
  std::vector<std::size_t> rank;
  std::vector<double> crowding;
};
RankCrowding rank_and_crowding(const std::vector<Objectives>& points,
                               const std::vector<double>& violations);

/// Elitist survivor selection: choose `target` of the given points by front
/// rank, breaking the last front by descending crowding distance.
std::vector<std::size_t> survivor_selection(
    const std::vector<Objectives>& points,
    const std::vector<double>& violations, std::size_t target);

namespace detail {

/// Produce `count` genomes and evaluate them while production is still going
/// on, then append them to `population` and the parallel `points` /
/// `violations` arrays. `produce(slots, ready)` runs on the calling thread
/// only — it is where the RNG is drawn, in the serial order — and writes one
/// or more genomes into slots[ready], slots[ready + 1], ..., returning the
/// new ready count; the global pool evaluates each published slot meanwhile
/// (util::stream_for). Evaluation is pure, so each result lands in its own
/// slot and the outcome is bit-identical to a serial loop at any thread
/// count. Every genome is evaluated, duplicates included, so `evaluations`
/// grows by `count`.
template <typename Genome, typename Produce>
void evaluate_append(const Nsga2Ops<Genome>& ops, std::size_t count,
                     Produce&& produce,
                     std::vector<EvaluatedGenome<Genome>>& population,
                     std::vector<Objectives>& points,
                     std::vector<double>& violations,
                     std::size_t& evaluations) {
  std::vector<Genome> genomes(count);
  std::vector<Evaluation> evals(count);
  util::stream_for(
      count, [&](std::size_t ready) { return produce(genomes, ready); },
      [&](std::size_t i) { evals[i] = ops.evaluate(genomes[i]); });
  evaluations += count;
  // Registry lookup once per process; per batch it's one striped add.
  static util::Counter& evals_metric =
      util::metric_counter("nsga2.evaluations");
  evals_metric.add(count);
  for (std::size_t i = 0; i < count; ++i) {
    points.push_back(evals[i].objectives);
    violations.push_back(evals[i].violation);
    population.push_back({std::move(genomes[i]), std::move(evals[i])});
  }
}

/// First-front size and bounding-box proxy of one progress report.
struct FrontStats {
  std::size_t size = 0;
  /// Product over objectives of (max - min) across the front's feasible
  /// members; 0 for fewer than two. A cheap convergence proxy: it tracks
  /// the front's extent, not true hypervolume (no reference point, no
  /// dominated-volume accounting), in O(front * m) with no extra sorting.
  double hv_proxy = 0.0;
};

/// The progress report of each generation and of the final front. The first
/// front is the members the caller ranked 0, never re-ranked here; the proxy
/// keeps its feasible members. Fires `hook` (when set) with the report.
inline FrontStats report_progress(const ProgressHook& hook,
                                  std::size_t generation,
                                  std::size_t generations,
                                  std::size_t evaluations,
                                  const std::vector<Objectives>& points,
                                  const std::vector<double>& violations,
                                  const std::vector<std::size_t>& rank) {
  FrontStats stats;
  std::size_t feasible = 0;
  Objectives lo;
  Objectives hi;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (rank[i] != 0) continue;
    ++stats.size;
    if (!is_feasible(violations[i])) continue;
    if (feasible++ == 0) {
      lo = points[i];
      hi = points[i];
      continue;
    }
    for (std::size_t m = 0; m < points[i].size(); ++m) {
      lo[m] = std::min(lo[m], points[i][m]);
      hi[m] = std::max(hi[m], points[i][m]);
    }
  }
  if (feasible >= 2) {
    stats.hv_proxy = 1.0;
    for (std::size_t m = 0; m < lo.size(); ++m) stats.hv_proxy *= hi[m] - lo[m];
  }
  if (hook) {
    hook(GenerationProgress{generation, generations, evaluations, stats.size,
                            stats.hv_proxy});
  }
  return stats;
}

}  // namespace detail

/// Steppable NSGA-II: one engine = one population evolving generation by
/// generation. run_nsga2 below is the one driver: it constructs one engine,
/// advances it to the end and finishes it.
///
/// Every generation pipelines two phases: a serial *variation* phase
/// (selection, crossover, mutation — the only RNG consumers, drawn on the
/// calling thread in the exact order the historical serial loop used)
/// publishes each offspring pair as soon as it exists, and the pool
/// evaluates published offspring while variation makes the rest. Fronts
/// and evaluation counts are therefore bit-identical across thread counts.
///
/// `seeds` pre-loads the initial population (truncated to the population
/// size; the remainder is filled by ops.create) — this implements the
/// paper's directed seeding of fcCLR with pfCLR's front.
///
/// The engine holds references to `ops` and `rng`; both must outlive it.
template <typename Genome>
class Nsga2Engine {
 public:
  Nsga2Engine(const Nsga2Params& params, const Nsga2Ops<Genome>& ops,
              util::Rng& rng, std::vector<Genome> seeds = {})
      : params_(params), ops_(ops), rng_(rng) {
    params_.validate();
    if (!ops.create || !ops.crossover || !ops.mutate || !ops.evaluate) {
      throw std::invalid_argument(
          "Nsga2Engine: all ops callbacks are required");
    }

    result_.population.reserve(params_.population_size * 2);
    // Objective / violation arrays are kept in lock-step with the population
    // (evaluation results only ever get appended or selected, never
    // changed), so nothing is rebuilt from scratch between phases.
    points_.reserve(params_.population_size * 2);
    violations_.reserve(params_.population_size * 2);

    detail::evaluate_append(
        ops_, params_.population_size,
        [&](std::vector<Genome>& slots, std::size_t ready) {
          slots[ready] = ready < seeds.size() ? std::move(seeds[ready])
                                              : ops_.create(rng_);
          return ready + 1;
        },
        result_.population, points_, violations_, result_.evaluations);

    next_.reserve(params_.population_size);
    next_points_.reserve(params_.population_size);
    next_violations_.reserve(params_.population_size);
  }

  bool done() const noexcept { return generation_ >= params_.generations; }
  const std::vector<Objectives>& points() const noexcept { return points_; }

  /// Evolve one generation: rank, telemetry/hook, serial variation
  /// pipelined with parallel evaluation, (mu + lambda) survivor selection.
  void advance() {
    if (done()) {
      throw std::logic_error("Nsga2Engine::advance: already finished");
    }
    auto& population = result_.population;
    const std::size_t gen = generation_;

    const util::TraceSpan gen_span("nsga2.generation");
    generations_metric().add();

    const RankCrowding rc = rank_and_crowding(points_, violations_);

    // Per-generation convergence telemetry from already-computed data. Pure
    // reads — never feeds back into selection or the RNG.
    const detail::FrontStats front = detail::report_progress(
        params_.on_generation, gen, params_.generations, result_.evaluations,
        points_, violations_, rc.rank);
    front_size_metric().set(static_cast<double>(front.size));
    hv_proxy_metric().set(front.hv_proxy);
    if (util::trace_enabled()) {
      util::trace_counter("nsga2.front_size", static_cast<double>(front.size));
      util::trace_counter("nsga2.hv_proxy", front.hv_proxy);
    }

    auto better = [&](std::size_t a, std::size_t b) {
      if (rc.rank[a] != rc.rank[b]) return rc.rank[a] < rc.rank[b];
      return rc.crowding[a] > rc.crowding[b];
    };

    // Variation (lambda = mu), serial and RNG-ordered, one pair per
    // producer call; each pair is evaluated while the next is made. Parents
    // are copied only when no crossover makes fresh children from them, and
    // (mu + lambda) elitist survival runs over the combined arrays after.
    const std::size_t lambda = params_.population_size;
    detail::evaluate_append(
        ops_, lambda,
        [&](std::vector<Genome>& slots, std::size_t ready) {
          const std::size_t pa = tournament_select(
              params_.population_size, params_.tournament_k, rng_, better);
          const std::size_t pb = tournament_select(
              params_.population_size, params_.tournament_k, rng_, better);
          Genome ca;
          Genome cb;
          if (rng_.bernoulli(params_.crossover_prob)) {
            std::tie(ca, cb) = ops_.crossover(population[pa].genome,
                                              population[pb].genome, rng_);
          } else {
            ca = population[pa].genome;
            cb = population[pb].genome;
          }
          if (rng_.bernoulli(params_.mutation_prob)) ops_.mutate(ca, rng_);
          if (rng_.bernoulli(params_.mutation_prob)) ops_.mutate(cb, rng_);
          slots[ready] = std::move(ca);
          if (ready + 1 == lambda) return lambda;
          slots[ready + 1] = std::move(cb);
          return ready + 2;
        },
        population, points_, violations_, result_.evaluations);
    select_survivors();
    ++generation_;
  }

  /// Final front extraction + the final progress snapshot. Call exactly once,
  /// after the last advance(); the engine is consumed.
  Nsga2Result<Genome> finish() {
    const auto fronts = non_dominated_sort(points_, violations_);
    result_.front =
        fronts.empty() ? std::vector<std::size_t>{} : fronts.front();
    if (params_.on_generation) {
      // Final snapshot after the last survivor selection, so observers
      // always see generation == generations exactly once per completed run.
      std::vector<std::size_t> rank(points_.size(), 1);
      for (std::size_t i : result_.front) rank[i] = 0;
      detail::report_progress(params_.on_generation, params_.generations,
                              params_.generations, result_.evaluations,
                              points_, violations_, rank);
    }
    return std::move(result_);
  }

 private:
  // Process-wide metric handles; function-local statics so every engine
  // instantiation shares one registry entry.
  static util::Counter& generations_metric() {
    static util::Counter& metric = util::metric_counter("nsga2.generations");
    return metric;
  }
  static util::Gauge& front_size_metric() {
    static util::Gauge& metric = util::metric_gauge("nsga2.front_size");
    return metric;
  }
  static util::Gauge& hv_proxy_metric() {
    static util::Gauge& metric = util::metric_gauge("nsga2.hv_proxy");
    return metric;
  }

  void select_survivors() {
    auto& population = result_.population;
    const std::vector<std::size_t> keep =
        survivor_selection(points_, violations_, params_.population_size);
    next_.clear();
    next_points_.clear();
    next_violations_.clear();
    for (std::size_t i : keep) {
      next_.push_back(std::move(population[i]));
      next_points_.push_back(std::move(points_[i]));
      next_violations_.push_back(violations_[i]);
    }
    population.swap(next_);
    points_.swap(next_points_);
    violations_.swap(next_violations_);
  }

  Nsga2Params params_;
  const Nsga2Ops<Genome>& ops_;
  util::Rng& rng_;
  std::size_t generation_ = 0;

  Nsga2Result<Genome> result_;
  std::vector<Objectives> points_;
  std::vector<double> violations_;

  // Scratch buffers for survivor selection, reused across generations.
  std::vector<EvaluatedGenome<Genome>> next_;
  std::vector<Objectives> next_points_;
  std::vector<double> next_violations_;
};

/// Run NSGA-II to the end: one engine, advanced generation by generation
/// and finished. params.on_generation fires once per generation and once
/// more after the last; throwing from it cancels the run.
template <typename Genome>
Nsga2Result<Genome> run_nsga2(const Nsga2Params& params,
                              const Nsga2Ops<Genome>& ops, util::Rng& rng,
                              std::vector<Genome> seeds = {}) {
  Nsga2Engine<Genome> engine(params, ops, rng, std::move(seeds));
  while (!engine.done()) engine.advance();
  return engine.finish();
}

}  // namespace clrearly::moea
