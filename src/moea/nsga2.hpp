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
//
// Each generation ranks once: survivor selection sorts the 2 mu pool and
// hands back the survivors' ranks and crowding with the cut (see
// PopulationRanking). The population lives in 2 mu fixed slots with one
// flat objective array; offspring are written into slots mu .. 2 mu - 1 and
// survivors move to the front by swaps, so a warm generation copies and
// frees no genome.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <stdexcept>
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
/// crossover(a, b, child_a, child_b, rng) overwrites the two children, which
/// never alias a parent; assigning into their existing storage lets a warm
/// generation vary without allocating.
template <typename Genome>
struct Nsga2Ops {
  std::function<Genome(util::Rng&)> create;
  std::function<void(const Genome&, const Genome&, Genome&, Genome&,
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
/// distance for every population member. A member no front lists (a
/// dominance cycle, possible only with NaN objectives) ranks one past the
/// last front, with crowding 0.
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

/// NSGA-II's ranking of one population over flat objective rows (as
/// ParetoRanker), reused generation after generation: a warm call allocates
/// nothing. rank_and_crowding and survivor_selection wrap it.
class PopulationRanking {
 public:
  /// Rank n points afresh: ranks()[i] is i's front, crowding()[i] its
  /// crowding distance within that front (the number of fronts and 0 for a
  /// point no front lists).
  void rank(const double* rows, std::size_t n, std::size_t m,
            const double* violations);

  /// (mu + lambda) survivor selection of `target` of the n points: whole
  /// fronts, best first, then the members of the cut front with the largest
  /// crowding distance. survivors() lists the kept rows in survivor order,
  /// and ranks()[s] / crowding()[s] are what rank() on the survivors, in
  /// that order, would give survivor s — without sorting them again.
  ///
  /// The survivors' fronts are the pool's fronts cut at front c, so a fresh
  /// sort lists every whole front in the pool's order: those keep the
  /// crowding computed on the pool. It lists the kept members of front c by
  /// their lead (their last dominator sits in front c - 1, which is whole)
  /// and then by survivor order; only they are crowded again, in that
  /// order. Points no front lists (a dominance cycle, possible only with
  /// NaN objectives) fill any places left, by index, ranked last.
  void select(const double* rows, std::size_t n, std::size_t m,
              const double* violations, std::size_t target);

  const std::vector<std::size_t>& ranks() const noexcept { return ranks_; }
  const std::vector<double>& crowding() const noexcept { return crowding_; }
  const std::vector<std::size_t>& survivors() const noexcept {
    return survivors_;
  }

 private:
  ParetoRanker ranker_;
  std::vector<std::size_t> ranks_;
  std::vector<double> crowding_;
  std::vector<std::size_t> survivors_;
  // Scratch.
  std::vector<double> distance_;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> cut_;
  std::vector<std::size_t> members_;
  std::vector<unsigned char> listed_;
};

namespace detail {

/// First-front size and bounding-box proxy of one progress report.
struct FrontStats {
  std::size_t size = 0;
  /// Product over objectives of (max - min) across the front's feasible
  /// members; 0 for fewer than two. A cheap convergence proxy: it tracks
  /// the front's extent, not true hypervolume (no reference point, no
  /// dominated-volume accounting), in O(front * m) with no extra sorting.
  double hv_proxy = 0.0;
};

/// The progress report of each generation and of the final front, over the
/// first n flat rows. The first front is the members ranked 0, never
/// re-ranked here; the proxy keeps its feasible members. Fires `hook` (when
/// set) with the report.
inline FrontStats report_progress(const ProgressHook& hook,
                                  std::size_t generation,
                                  std::size_t generations,
                                  std::size_t evaluations, const double* rows,
                                  std::size_t m, const double* violations,
                                  const std::size_t* rank, std::size_t n) {
  FrontStats stats;
  std::size_t feasible = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rank[i] != 0) continue;
    ++stats.size;
    if (is_feasible(violations[i])) ++feasible;
  }
  if (feasible >= 2) {
    stats.hv_proxy = 1.0;
    for (std::size_t k = 0; k < m; ++k) {
      bool first = true;
      double lo = 0.0;
      double hi = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (rank[i] != 0 || !is_feasible(violations[i])) continue;
        const double x = rows[i * m + k];
        lo = first ? x : std::min(lo, x);
        hi = first ? x : std::max(hi, x);
        first = false;
      }
      stats.hv_proxy *= hi - lo;
    }
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
    const std::size_t mu = params_.population_size;
    genomes_.resize(2 * mu);
    violations_.resize(2 * mu);

    // The one batch evaluated before the objective count is known.
    std::vector<Evaluation> initial(mu);
    util::stream_for(
        mu,
        [&](std::size_t ready) {
          genomes_[ready] = ready < seeds.size() ? std::move(seeds[ready])
                                                 : ops_.create(rng_);
          return ready + 1;
        },
        [&](std::size_t i) { initial[i] = ops_.evaluate(genomes_[i]); });
    count_evaluations(mu);
    m_ = initial.front().objectives.size();
    objectives_.resize(2 * mu * m_);
    for (std::size_t i = 0; i < mu; ++i) store(i, initial[i]);
    ranking_.rank(objectives_.data(), mu, m_, violations_.data());
  }

  bool done() const noexcept { return generation_ >= params_.generations; }

  /// Evolve one generation: telemetry/hook, serial variation pipelined with
  /// parallel evaluation, (mu + lambda) survivor selection, which also
  /// ranks the survivors for the next generation.
  void advance() {
    if (done()) {
      throw std::logic_error("Nsga2Engine::advance: already finished");
    }
    const std::size_t mu = params_.population_size;
    const util::TraceSpan gen_span("nsga2.generation");
    generations_metric().add();

    // Per-generation convergence telemetry from already-computed data. Pure
    // reads — never feeds back into selection or the RNG.
    const std::vector<std::size_t>& rank = ranking_.ranks();
    const std::vector<double>& crowding = ranking_.crowding();
    const detail::FrontStats front = detail::report_progress(
        params_.on_generation, generation_, params_.generations, evaluations_,
        objectives_.data(), m_, violations_.data(), rank.data(), mu);
    front_size_metric().set(static_cast<double>(front.size));
    hv_proxy_metric().set(front.hv_proxy);
    if (util::trace_enabled()) {
      util::trace_counter("nsga2.front_size", static_cast<double>(front.size));
      util::trace_counter("nsga2.hv_proxy", front.hv_proxy);
    }

    auto better = [&](std::size_t a, std::size_t b) {
      if (rank[a] != rank[b]) return rank[a] < rank[b];
      return crowding[a] > crowding[b];
    };

    // Variation (lambda = mu), serial and RNG-ordered, one pair per
    // producer call, written into the offspring slots mu .. 2 mu - 1; each
    // pair is evaluated while the next is made. An odd lambda's last pair
    // makes its second child too (the RNG stream counts it) and drops it.
    const std::size_t lambda = mu;
    util::stream_for(
        lambda,
        [&](std::size_t ready) {
          const std::size_t pa =
              tournament_select(mu, params_.tournament_k, rng_, better);
          const std::size_t pb =
              tournament_select(mu, params_.tournament_k, rng_, better);
          Genome& ca = genomes_[mu + ready];
          Genome& cb = ready + 1 < lambda ? genomes_[mu + ready + 1] : spare_;
          if (rng_.bernoulli(params_.crossover_prob)) {
            ops_.crossover(genomes_[pa], genomes_[pb], ca, cb, rng_);
          } else {
            ca = genomes_[pa];
            cb = genomes_[pb];
          }
          if (rng_.bernoulli(params_.mutation_prob)) ops_.mutate(ca, rng_);
          if (rng_.bernoulli(params_.mutation_prob)) ops_.mutate(cb, rng_);
          return std::min(ready + 2, lambda);
        },
        [&](std::size_t i) { store(mu + i, ops_.evaluate(genomes_[mu + i])); });
    count_evaluations(lambda);

    ranking_.select(objectives_.data(), mu + lambda, m_, violations_.data(),
                    mu);
    gather_survivors();
    ++generation_;
  }

  /// Final front extraction + the final progress snapshot. Call exactly once,
  /// after the last advance(); the engine is consumed.
  Nsga2Result<Genome> finish() {
    const std::size_t mu = params_.population_size;
    const std::vector<std::size_t>& rank = ranking_.ranks();
    Nsga2Result<Genome> result;
    result.evaluations = evaluations_;
    result.population.reserve(mu);
    for (std::size_t s = 0; s < mu; ++s) {
      const double* row = objectives_.data() + s * m_;
      result.population.push_back(
          {std::move(genomes_[s]),
           Evaluation{Objectives(row, row + m_), violations_[s]}});
      if (rank[s] == 0) result.front.push_back(s);
    }
    if (params_.on_generation) {
      // Final snapshot after the last survivor selection, so observers
      // always see generation == generations exactly once per completed run.
      detail::report_progress(params_.on_generation, params_.generations,
                              params_.generations, evaluations_,
                              objectives_.data(), m_, violations_.data(),
                              rank.data(), mu);
    }
    return result;
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

  void count_evaluations(std::size_t count) {
    evaluations_ += count;
    // Registry lookup once per process; per batch it's one striped add.
    static util::Counter& evals_metric =
        util::metric_counter("nsga2.evaluations");
    evals_metric.add(count);
  }

  /// Slot i's objective row and violation. Runs on the evaluating thread,
  /// which also frees `eval`'s vector, and touches only slot i's storage.
  void store(std::size_t i, const Evaluation& eval) {
    if (eval.objectives.size() != m_ || m_ == 0) {
      throw std::invalid_argument(
          "Nsga2Engine: every evaluation must return the same, non-zero "
          "number of objectives");
    }
    std::copy(eval.objectives.begin(), eval.objectives.end(),
              objectives_.begin() + static_cast<std::ptrdiff_t>(i * m_));
    violations_[i] = eval.violation;
  }

  /// Move the survivors to slots 0 .. mu - 1, in survivor order, by
  /// following the permutation's cycles with swaps; the dropped members
  /// take the offspring slots, whose storage the next variation reuses.
  void gather_survivors() {
    const std::size_t mu = params_.population_size;
    const std::size_t slots = 2 * mu;
    const std::vector<std::size_t>& keep = ranking_.survivors();
    source_.resize(slots);
    moved_.assign(slots, 0);
    for (std::size_t s = 0; s < mu; ++s) {
      source_[s] = keep[s];
      moved_[keep[s]] = 1;
    }
    for (std::size_t i = 0, next = mu; i < slots; ++i) {
      if (!moved_[i]) source_[next++] = i;
    }
    std::fill(moved_.begin(), moved_.end(), 0);
    for (std::size_t start = 0; start < slots; ++start) {
      for (std::size_t at = start; !moved_[at]; at = source_[at]) {
        moved_[at] = 1;
        if (source_[at] == start) break;
        swap_slots(at, source_[at]);
      }
    }
  }

  void swap_slots(std::size_t a, std::size_t b) {
    using std::swap;
    swap(genomes_[a], genomes_[b]);
    double* row_a = objectives_.data() + a * m_;
    std::swap_ranges(row_a, row_a + m_, objectives_.data() + b * m_);
    swap(violations_[a], violations_[b]);
  }

  Nsga2Params params_;
  const Nsga2Ops<Genome>& ops_;
  util::Rng& rng_;
  std::size_t generation_ = 0;
  std::size_t evaluations_ = 0;

  // The 2 mu slots: the population in 0 .. mu - 1, offspring after it.
  std::vector<Genome> genomes_;
  std::size_t m_ = 0;
  std::vector<double> objectives_;  ///< slot i's row: [i * m_, i * m_ + m_)
  std::vector<double> violations_;
  Genome spare_;  ///< an odd lambda's dropped second child
  PopulationRanking ranking_;

  // Scratch for gather_survivors(), reused across generations.
  std::vector<std::size_t> source_;
  std::vector<unsigned char> moved_;
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
