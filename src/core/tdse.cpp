#include "core/tdse.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "moea/nsga2.hpp"
#include "moea/operators.hpp"
#include "moea/pareto.hpp"
#include "util/thread_pool.hpp"

namespace clrearly::core {

TdseObjectives TdseObjectives::table4_row(int row) {
  if (row < 1 || row > 6) {
    throw std::invalid_argument("TdseObjectives: TABLE IV row must be 1..6");
  }
  TdseObjectives obj;
  obj.avg_exec_time = true;
  obj.error_prob = row >= 2;
  obj.mttf = row >= 3;
  obj.energy = row >= 4;
  obj.power = row >= 5;
  obj.peak_temp = row >= 6;
  return obj;
}

TdseObjectives TdseObjectives::tdse_run(int run) {
  // Strictly growing objective sets (Fig. 9). Energy (time x power) and the
  // power-derived metrics (MTTF/power/peak temperature) discriminate along
  // different cuts, so each run keeps strictly more Pareto implementations.
  switch (run) {
    case 1: return table4_row(2);  // time + error probability
    case 2: {                      // + energy
      TdseObjectives obj = table4_row(2);
      obj.energy = true;
      return obj;
    }
    case 3: return table4_row(6);  // all six task-level metrics
    default:
      throw std::invalid_argument("TdseObjectives: tDSE run must be 1..3");
  }
}

std::size_t TdseObjectives::count() const {
  std::size_t n = 0;
  for (bool flag : {avg_exec_time, error_prob, mttf, energy, power, peak_temp}) {
    if (flag) ++n;
  }
  return n;
}

std::vector<double> TdseObjectives::extract(
    const reliability::TaskMetrics& m) const {
  std::vector<double> out;
  out.reserve(count());
  if (avg_exec_time) out.push_back(m.avg_exec_time_us);
  if (error_prob) out.push_back(m.error_prob);
  if (mttf) out.push_back(-m.mttf_hours);  // maximize MTTF
  if (energy) out.push_back(m.energy_uj);
  if (power) out.push_back(m.avg_power_w);
  if (peak_temp) out.push_back(m.peak_temp_c);
  if (out.empty()) {
    throw std::invalid_argument("TdseObjectives: no objective selected");
  }
  return out;
}

Tdse::Tdse(reliability::TaskAnalyzer analyzer, reliability::ClrAxes axes)
    : analyzer_(std::move(analyzer)), axes_(axes) {}

std::vector<TaskDesignPoint> Tdse::enumerate(
    const std::vector<reliability::BaseImpl>& impls,
    const platform::Architecture& architecture) const {
  if (impls.empty()) {
    throw std::invalid_argument("Tdse::enumerate: no implementations");
  }
  // Collect-then-batch: enumerate every (impl, pe, config) point first,
  // then evaluate them through the batched chain path — misses from the
  // chain cache are deduped and solved W lanes per SIMD instruction instead
  // of one LU at a time (see analyze_clr_chain_batch).
  std::vector<TaskDesignPoint> points;
  std::vector<reliability::TaskAnalyzer::EvalJob> jobs;
  for (std::size_t impl_index = 0; impl_index < impls.size(); ++impl_index) {
    const reliability::BaseImpl& impl = impls[impl_index];
    for (std::size_t pe_type = 0; pe_type < architecture.num_types();
         ++pe_type) {
      const platform::PeType& pe = architecture.type(pe_type);
      if (!impl.runs_on(pe)) continue;
      const auto configs =
          analyzer_.space().enumerate(pe.dvfs.size(), axes_);
      for (const reliability::ClrConfig& config : configs) {
        TaskDesignPoint point;
        point.impl_index = impl_index;
        point.pe_type = pe_type;
        point.config = config;
        points.push_back(std::move(point));
        jobs.push_back({&impl, &pe, config});
      }
    }
  }
  if (points.empty()) {
    throw std::invalid_argument(
        "Tdse::enumerate: no PE type can host any implementation");
  }
  const std::vector<reliability::TaskMetrics> metrics =
      analyzer_.evaluate_jobs(jobs);
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].metrics = metrics[i];
  }
  return points;
}

std::vector<TaskDesignPoint> Tdse::pareto_filter(
    const std::vector<TaskDesignPoint>& points,
    const TdseObjectives& objectives) {
  // Group by PE type, filter each group independently so pruning never
  // strips a PE type of all its implementations.
  std::map<std::size_t, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < points.size(); ++i) {
    groups[points[i].pe_type].push_back(i);
  }
  std::vector<TaskDesignPoint> survivors;
  for (const auto& [pe_type, members] : groups) {
    std::vector<moea::Objectives> vectors;
    vectors.reserve(members.size());
    for (std::size_t i : members) {
      vectors.push_back(objectives.extract(points[i].metrics));
    }
    for (std::size_t local : moea::pareto_front_indices(vectors)) {
      survivors.push_back(points[members[local]]);
    }
  }
  return survivors;
}

TdseResult Tdse::run(const std::vector<reliability::BaseImpl>& impls,
                     const platform::Architecture& architecture,
                     const TdseObjectives& objectives) const {
  TdseResult result;
  result.enumerated = enumerate(impls, architecture);
  result.pareto = pareto_filter(result.enumerated, objectives);
  return result;
}

TdseResult Tdse::run_stochastic(
    const std::vector<reliability::BaseImpl>& impls,
    const platform::Architecture& architecture,
    const TdseObjectives& objectives, const moea::Nsga2Params& ga,
    std::uint64_t seed) const {
  if (impls.empty()) {
    throw std::invalid_argument("Tdse::run_stochastic: no implementations");
  }
  // Genome: [impl, pe-type selector, hw, ssw, asw, dvfs]. The PE selector
  // indexes the list of types compatible with the chosen implementation
  // (modulo its size), so every genome decodes to a valid point.
  const reliability::ClrSpace& space = analyzer_.space();
  std::vector<std::vector<std::size_t>> compatible(impls.size());
  for (std::size_t i = 0; i < impls.size(); ++i) {
    for (std::size_t pt = 0; pt < architecture.num_types(); ++pt) {
      if (impls[i].runs_on(architecture.type(pt)) &&
          !architecture.pes_of_type(pt).empty()) {
        compatible[i].push_back(pt);
      }
    }
  }
  bool any = false;
  for (const auto& c : compatible) any = any || !c.empty();
  if (!any) {
    throw std::invalid_argument(
        "Tdse::run_stochastic: no PE type can host any implementation");
  }

  std::size_t max_dvfs = 1;
  for (std::size_t pt = 0; pt < architecture.num_types(); ++pt) {
    max_dvfs = std::max(max_dvfs, architecture.type(pt).dvfs.size());
  }
  const std::vector<std::size_t> cards{
      impls.size(),
      architecture.num_types(),
      axes_.hw ? space.hw_methods().size() : 1,
      axes_.ssw ? space.ssw_methods().size() : 1,
      axes_.asw ? space.asw_methods().size() : 1,
      axes_.dvfs ? max_dvfs : 1};

  // Every evaluated point is remembered so the final filtering can run over
  // the whole visited sample, not just the final population. The GA
  // evaluates in parallel, so the map is guarded.
  std::map<std::array<std::size_t, 6>, TaskDesignPoint> visited;
  std::mutex visited_mutex;

  auto decode = [&](const moea::GeneVector& g) {
    TaskDesignPoint point;
    std::size_t impl = g[0] % impls.size();
    if (compatible[impl].empty()) {
      // Fall to the nearest hostable implementation (deterministic).
      for (std::size_t i = 0; i < impls.size(); ++i) {
        if (!compatible[i].empty()) {
          impl = i;
          break;
        }
      }
    }
    point.impl_index = impl;
    point.pe_type = compatible[impl][g[1] % compatible[impl].size()];
    const platform::PeType& pe = architecture.type(point.pe_type);
    point.config.hw = axes_.hw ? g[2] : 0;
    point.config.ssw = axes_.ssw ? g[3] : 0;
    point.config.asw = axes_.asw ? g[4] : 0;
    point.config.dvfs = axes_.dvfs ? g[5] % pe.dvfs.size() : 0;
    return point;
  };

  moea::Nsga2Ops<moea::GeneVector> ops;
  ops.create = [&cards](util::Rng& rng) {
    moea::GeneVector g(cards.size());
    for (std::size_t i = 0; i < cards.size(); ++i) g[i] = rng.index(cards[i]);
    return g;
  };
  ops.crossover = [](const moea::GeneVector& a, const moea::GeneVector& b,
                     moea::GeneVector& child_a, moea::GeneVector& child_b,
                     util::Rng& rng) {
    child_a = a;
    child_b = b;
    moea::two_point_crossover(child_a, child_b, rng);
  };
  ops.mutate = [&cards](moea::GeneVector& g, util::Rng& rng) {
    moea::random_reset_mutation(g, cards, rng);
  };
  ops.evaluate = [&](const moea::GeneVector& g) {
    TaskDesignPoint point = decode(g);
    const std::array<std::size_t, 6> key{point.impl_index, point.pe_type,
                                         point.config.hw, point.config.ssw,
                                         point.config.asw, point.config.dvfs};
    moea::Evaluation eval;
    {
      std::lock_guard<std::mutex> lock(visited_mutex);
      const auto it = visited.find(key);
      if (it != visited.end()) {
        eval.objectives = objectives.extract(it->second.metrics);
        return eval;
      }
    }
    // Evaluation is pure, so two threads racing on one key compute the same
    // metrics and the second emplace is a no-op.
    point.metrics = analyzer_.evaluate(impls[point.impl_index],
                                       architecture.type(point.pe_type),
                                       point.config);
    {
      std::lock_guard<std::mutex> lock(visited_mutex);
      visited.emplace(key, point);
    }
    eval.objectives = objectives.extract(point.metrics);
    return eval;
  };

  util::Rng rng(seed);
  (void)moea::run_nsga2(ga, ops, rng);

  TdseResult result;
  result.enumerated.reserve(visited.size());
  for (const auto& [key, point] : visited) result.enumerated.push_back(point);
  result.pareto = pareto_filter(result.enumerated, objectives);
  return result;
}

std::vector<TdseResult> Tdse::run_application(
    const app::Application& application,
    const platform::Architecture& architecture,
    const TdseObjectives& objectives) const {
  application.validate();
  const std::size_t types = application.graph.num_types();
  // Task types are independent explorations; fan them out over the thread
  // pool, each writing its own result slot. run() is const and the analyzer
  // stateless, so this is bit-identical to the serial per-type loop.
  std::vector<TdseResult> results(types);
  util::parallel_for(types, [&](std::size_t type) {
    results[type] = run(application.impls[type], architecture, objectives);
  });
  return results;
}

}  // namespace clrearly::core
