#include "core/problem.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.hpp"

namespace clrearly::core {

namespace {

std::size_t class_index(platform::PeClass c) {
  return static_cast<std::size_t>(c);
}
constexpr std::size_t kNumClasses = 2;

}  // namespace

SystemObjectives SystemObjectives::all() {
  SystemObjectives obj;
  obj.mttf = obj.energy = obj.power = true;
  return obj;
}

std::size_t SystemObjectives::count() const {
  std::size_t n = 0;
  for (bool flag : {makespan, error_prob, mttf, energy, power}) {
    if (flag) ++n;
  }
  return n;
}

std::vector<double> SystemObjectives::extract(
    const sched::QosMetrics& m) const {
  std::vector<double> out;
  out.reserve(count());
  if (makespan) out.push_back(w_makespan * m.makespan_us);
  if (error_prob) out.push_back(w_error_prob * m.error_prob);
  if (mttf) out.push_back(w_mttf * -m.mttf_hours);  // maximize lifetime
  if (energy) out.push_back(w_energy * m.energy_uj);
  if (power) out.push_back(w_power * m.peak_power_w);
  if (out.empty()) {
    throw std::invalid_argument("SystemObjectives: no objective selected");
  }
  return out;
}

sched::QosFieldMask SystemObjectives::fields_read() const {
  sched::QosFieldMask fields = 0;
  if (error_prob) fields |= sched::kQosFunctionalRel;
  if (energy) fields |= sched::kQosEnergy;
  if (power) fields |= sched::kQosPeakPower;
  return fields;
}

double SystemObjectives::scalarize(const sched::QosMetrics& m) const {
  double acc = 0.0;
  for (double component : extract(m)) acc += component;
  return acc;
}

ClrMappingProblem::ClrMappingProblem(app::Application application,
                                     platform::Architecture architecture,
                                     reliability::TaskAnalyzer analyzer,
                                     SystemObjectives objectives,
                                     sched::QosSpec spec,
                                     reliability::ClrAxes axes)
    : app_(std::move(application)),
      arch_(std::move(architecture)),
      analyzer_(std::move(analyzer)),
      objectives_(objectives),
      spec_(spec),
      axes_(axes),
      mode_(Mode::kFullConfig),
      plan_(app_, arch_, objectives_.fields_read() | spec_.fields_read()) {
  group_pes();
  build_full_config_tables();
  build_layout();
}

ClrMappingProblem::ClrMappingProblem(
    app::Application application, platform::Architecture architecture,
    reliability::TaskAnalyzer analyzer, SystemObjectives objectives,
    sched::QosSpec spec,
    std::vector<std::vector<TaskDesignPoint>> pareto_points)
    : app_(std::move(application)),
      arch_(std::move(architecture)),
      analyzer_(std::move(analyzer)),
      objectives_(objectives),
      spec_(spec),
      axes_(reliability::ClrAxes::all()),
      mode_(Mode::kParetoFiltered),
      points_(std::move(pareto_points)),
      plan_(app_, arch_, objectives_.fields_read() | spec_.fields_read()) {
  group_pes();
  if (points_.size() < app_.graph.num_types()) {
    throw std::invalid_argument(
        "ClrMappingProblem: Pareto point set missing for some task type");
  }
  for (std::size_t type = 0; type < app_.graph.num_types(); ++type) {
    if (points_[type].empty()) {
      throw std::invalid_argument(
          "ClrMappingProblem: empty Pareto set for task type " +
          std::to_string(type));
    }
    // Every Pareto point must land on a PE type that has instances.
    for (const TaskDesignPoint& p : points_[type]) {
      if (p.pe_type >= arch_.num_types() || pes_by_type_[p.pe_type].empty()) {
        throw std::invalid_argument(
            "ClrMappingProblem: Pareto point references an unavailable PE "
            "type");
      }
    }
  }
  build_layout();
}

void ClrMappingProblem::group_pes() {
  app_.validate();
  if (arch_.num_pes() == 0) {
    throw std::invalid_argument("ClrMappingProblem: architecture has no PEs");
  }
  pes_by_class_.assign(kNumClasses, {});
  for (const platform::Pe& pe : arch_.pes()) {
    pes_by_class_[class_index(arch_.type_of(pe.id).pe_class)].push_back(pe.id);
  }
  pes_by_type_.resize(arch_.num_types());
  for (std::size_t t = 0; t < arch_.num_types(); ++t) {
    pes_by_type_[t] = arch_.pes_of_type(t);
  }
}

void ClrMappingProblem::build_full_config_tables() {
  const reliability::ClrSpace& space = analyzer_.space();
  const std::size_t h_n = space.hw_methods().size();
  const std::size_t s_n = space.ssw_methods().size();
  const std::size_t a_n = space.asw_methods().size();
  const std::size_t types = app_.graph.num_types();

  // Size the (type, impl, pe_type) table skeleton serially, collecting one
  // work item per populated table; then fan the dense CLR-config sweeps —
  // independent absorbing-chain solves writing into disjoint tables — out
  // over the thread pool. TaskAnalyzer is stateless, so concurrent
  // evaluate() calls are safe and the result is identical to the serial
  // fill at any thread count.
  struct Sweep {
    std::size_t type, impl, pe_type;
  };
  std::vector<Sweep> sweeps;
  metrics_.assign(types, {});
  for (std::size_t type = 0; type < types; ++type) {
    const auto& impls = app_.impls[type];
    metrics_[type].assign(impls.size(), {});
    for (std::size_t impl = 0; impl < impls.size(); ++impl) {
      metrics_[type][impl].assign(arch_.num_types(), {});
      for (std::size_t pt = 0; pt < arch_.num_types(); ++pt) {
        const platform::PeType& pe = arch_.type(pt);
        if (!impls[impl].runs_on(pe)) continue;
        if (pes_by_type_[pt].empty()) continue;  // type with no instances
        metrics_[type][impl][pt].assign(h_n * s_n * a_n * pe.dvfs.size(),
                                        reliability::TaskMetrics{});
        sweeps.push_back({type, impl, pt});
      }
    }
  }
  util::parallel_for(sweeps.size(), [&](std::size_t k) {
    const Sweep& sweep = sweeps[k];
    const reliability::BaseImpl& impl = app_.impls[sweep.type][sweep.impl];
    const platform::PeType& pe = arch_.type(sweep.pe_type);
    const std::size_t d_n = pe.dvfs.size();
    auto& table = metrics_[sweep.type][sweep.impl][sweep.pe_type];
    // Evaluate the axis-reachable configs (pinned axes always decode to
    // index 0) as one batch through the chain path — each worker batches
    // its own sweep, so the thread-local batch workspaces never contend.
    const std::vector<reliability::ClrConfig> configs =
        space.enumerate(d_n, axes_);
    const std::vector<reliability::TaskMetrics> evaluated =
        analyzer_.evaluate_batch(impl, pe, configs);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const reliability::ClrConfig& c = configs[i];
      table[((c.hw * s_n + c.ssw) * a_n + c.asw) * d_n + c.dvfs] = evaluated[i];
    }
  });
}

void ClrMappingProblem::build_layout() {
  const std::size_t n = app_.graph.num_tasks();
  const reliability::ClrSpace& space = analyzer_.space();

  std::size_t max_dvfs = 1;
  for (std::size_t t = 0; t < arch_.num_types(); ++t) {
    max_dvfs = std::max(max_dvfs, arch_.type(t).dvfs.size());
  }

  std::vector<std::size_t> cards;
  if (mode_ == Mode::kFullConfig) {
    cards.resize(n * kFullConfigFields);
    for (std::size_t t = 0; t < n; ++t) {
      const std::size_t type = app_.graph.task(t).type;
      cards[t * kFullConfigFields + kFieldImpl] = app_.impls[type].size();
      cards[t * kFullConfigFields + kFieldPeSel] = arch_.num_pes();
      cards[t * kFullConfigFields + kFieldHw] =
          axes_.hw ? space.hw_methods().size() : 1;
      cards[t * kFullConfigFields + kFieldSsw] =
          axes_.ssw ? space.ssw_methods().size() : 1;
      cards[t * kFullConfigFields + kFieldAsw] =
          axes_.asw ? space.asw_methods().size() : 1;
      cards[t * kFullConfigFields + kFieldDvfs] = axes_.dvfs ? max_dvfs : 1;
    }
    layout_ = std::make_unique<GenomeLayout>(n, kFullConfigFields,
                                             std::move(cards));
  } else {
    cards.resize(n * kParetoFields);
    for (std::size_t t = 0; t < n; ++t) {
      const std::size_t type = app_.graph.task(t).type;
      cards[t * kParetoFields + kFieldPoint] = points_[type].size();
      cards[t * kParetoFields + kFieldPeSel] = arch_.num_pes();
    }
    layout_ =
        std::make_unique<GenomeLayout>(n, kParetoFields, std::move(cards));
  }
}

ClrMappingProblem::Choice ClrMappingProblem::decode_task(
    const MappingGenome& g, std::size_t t) const {
  // Every caller validated `g`, so the task's genes are in range; read them
  // and the platform tables directly, without the checked accessors.
  const std::size_t* genes = g.genes.data() + t * layout_->fields_per_task();
  const std::size_t type = app_.graph.tasks()[t].type;
  Choice resolved;

  if (mode_ == Mode::kFullConfig) {
    const reliability::ClrSpace& space = analyzer_.space();
    const auto& impls = app_.impls[type];
    const std::size_t impl = genes[kFieldImpl] % impls.size();
    const auto& compatible =
        pes_by_class_[class_index(impls[impl].target)];
    if (compatible.empty()) {
      throw std::invalid_argument(
          "ClrMappingProblem: no PE instance can host implementation " +
          impls[impl].name);
    }
    const std::size_t pe = compatible[genes[kFieldPeSel] % compatible.size()];
    const std::size_t pe_type = arch_.pes()[pe].type_index;
    const std::size_t d_n = arch_.types()[pe_type].dvfs.size();
    const std::size_t s_n = space.ssw_methods().size();
    const std::size_t a_n = space.asw_methods().size();
    const std::size_t h = axes_.hw ? genes[kFieldHw] : 0;
    const std::size_t s = axes_.ssw ? genes[kFieldSsw] : 0;
    const std::size_t a = axes_.asw ? genes[kFieldAsw] : 0;
    const std::size_t d = axes_.dvfs ? genes[kFieldDvfs] % d_n : 0;
    const std::size_t idx = ((h * s_n + s) * a_n + a) * d_n + d;
    resolved.pe = pe;
    resolved.impl_index = impl;
    resolved.config = reliability::ClrConfig{h, s, a, d};
    resolved.metrics = &metrics_[type][impl][pe_type][idx];
  } else {
    const auto& pts = points_[type];
    const TaskDesignPoint& point = pts[genes[kFieldPoint] % pts.size()];
    const auto& instances = pes_by_type_[point.pe_type];
    resolved.pe = instances[genes[kFieldPeSel] % instances.size()];
    resolved.impl_index = point.impl_index;
    resolved.config = point.config;
    resolved.metrics = &point.metrics;
  }
  return resolved;
}

ClrMappingProblem::ResolvedTask ClrMappingProblem::resolve_task(
    const MappingGenome& genome, std::size_t t) const {
  const Choice choice = decode_task(genome, t);
  return ResolvedTask{choice.pe, choice.impl_index, choice.config,
                      *choice.metrics};
}

std::vector<sched::TaskDecision> ClrMappingProblem::decode(
    const MappingGenome& genome) const {
  layout_->validate(genome);
  const std::size_t n = app_.graph.num_tasks();
  std::vector<sched::TaskDecision> decisions(n);
  for (std::size_t t = 0; t < n; ++t) {
    const Choice choice = decode_task(genome, t);
    decisions[t] = sched::TaskDecision{choice.pe, *choice.metrics};
  }
  return decisions;
}

std::vector<ClrMappingProblem::ResolvedTask> ClrMappingProblem::resolve(
    const MappingGenome& genome) const {
  layout_->validate(genome);
  const std::size_t n = app_.graph.num_tasks();
  std::vector<ResolvedTask> resolved(n);
  for (std::size_t t = 0; t < n; ++t) resolved[t] = resolve_task(genome, t);
  return resolved;
}

std::vector<ClrMappingProblem::TaskChoice> ClrMappingProblem::report(
    const MappingGenome& genome) const {
  layout_->validate(genome);
  const std::size_t n = app_.graph.num_tasks();
  std::vector<TaskChoice> choices(n);
  for (std::size_t t = 0; t < n; ++t) {
    const ResolvedTask resolved = resolve_task(genome, t);
    const std::size_t type = app_.graph.task(t).type;
    TaskChoice& choice = choices[t];
    choice.task_name = app_.graph.task(t).name;
    choice.impl_name = app_.impls[type][resolved.impl_index].name;
    choice.pe = resolved.pe;
    choice.pe_type_name = arch_.type_of(resolved.pe).name;
    choice.config = resolved.config;
    choice.config_text = analyzer_.space().describe(resolved.config);
    choice.metrics = resolved.metrics;
  }
  return choices;
}

sched::QosMetrics ClrMappingProblem::qos(const MappingGenome& genome) const {
  return sched::estimate_qos(app_, arch_, decode(genome), genome.order);
}

sched::QosMetrics ClrMappingProblem::qos(const MappingGenome& genome,
                                         const sched::QosPlan& plan) const {
  layout_->validate_genes(genome);
  sched::QosWorkspace& ws = sched::QosWorkspace::local();
  const std::size_t n = app_.graph.num_tasks();
  ws.tasks.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    const Choice choice = decode_task(genome, t);
    ws.tasks[t] = sched::TaskRef{choice.pe, choice.metrics};
  }
  return plan.evaluate(ws, genome.order);
}

moea::Evaluation ClrMappingProblem::evaluate(
    const MappingGenome& genome) const {
  const sched::QosMetrics metrics = qos(genome, plan_);
  moea::Evaluation eval;
  eval.objectives = objectives_.extract(metrics);
  eval.violation = spec_.violation(metrics);
  return eval;
}

moea::Nsga2Ops<MappingGenome> ClrMappingProblem::ops(
    double mutation_indpb) const {
  moea::Nsga2Ops<MappingGenome> ops;
  ops.create = [this](util::Rng& rng) { return layout_->random(rng); };
  ops.crossover = [this](const MappingGenome& a, const MappingGenome& b,
                         MappingGenome& child_a, MappingGenome& child_b,
                         util::Rng& rng) {
    layout_->crossover(a, b, child_a, child_b, rng);
  };
  ops.mutate = [this, mutation_indpb](MappingGenome& g, util::Rng& rng) {
    layout_->mutate(g, rng, mutation_indpb);
  };
  ops.evaluate = [this](const MappingGenome& g) { return evaluate(g); };
  return ops;
}

double ClrMappingProblem::log10_design_space_size() const {
  const std::size_t n = app_.graph.num_tasks();
  // P^T and the T! scheduling orderings.
  double log_size =
      static_cast<double>(n) * std::log10(static_cast<double>(arch_.num_pes()));
  for (std::size_t t = 2; t <= n; ++t) {
    log_size += std::log10(static_cast<double>(t));
  }
  // Per-task implementation/configuration choices.
  if (mode_ == Mode::kFullConfig) {
    std::size_t max_dvfs = 1;
    for (std::size_t pt = 0; pt < arch_.num_types(); ++pt) {
      max_dvfs = std::max(max_dvfs, arch_.type(pt).dvfs.size());
    }
    const double log_configs = std::log10(
        static_cast<double>(analyzer_.space().size(max_dvfs, axes_)));
    for (std::size_t t = 0; t < n; ++t) {
      const std::size_t type = app_.graph.task(t).type;
      log_size +=
          std::log10(static_cast<double>(app_.impls[type].size())) +
          log_configs;
    }
  } else {
    for (std::size_t t = 0; t < n; ++t) {
      const std::size_t type = app_.graph.task(t).type;
      log_size += std::log10(static_cast<double>(points_[type].size()));
    }
  }
  return log_size;
}

std::optional<MappingGenome> ClrMappingProblem::repair_for_failures(
    const MappingGenome& genome, const std::vector<char>& failed) const {
  layout_->validate(genome);
  if (failed.size() != arch_.num_pes()) {
    throw std::invalid_argument(
        "repair_for_failures: failure mask size must equal the PE count");
  }

  const std::size_t n = app_.graph.num_tasks();
  MappingGenome out = genome;

  // Committed load per surviving PE: the expected execution time of every
  // task that keeps its placement. The greedy below extends these
  // finish-time estimates the same way heft_clr_mapping's EFT loop does.
  std::vector<double> load(arch_.num_pes(), 0.0);
  std::vector<char> displaced(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    const Choice choice = decode_task(genome, t);
    if (failed[choice.pe]) {
      displaced[t] = 1;
    } else {
      load[choice.pe] += choice.metrics->avg_exec_time_us;
    }
  }

  for (std::size_t task : genome.order) {
    if (!displaced[task]) continue;
    const std::size_t type = app_.graph.task(task).type;
    bool found = false;
    double best_finish = 0.0;
    std::size_t best_pe = 0;

    if (mode_ == Mode::kFullConfig) {
      const auto& impls = app_.impls[type];
      const std::size_t impl =
          layout_->gene(genome, task, kFieldImpl) % impls.size();
      const auto& compatible = pes_by_class_[class_index(impls[impl].target)];
      std::size_t best_sel = 0;
      for (std::size_t sel = 0; sel < compatible.size(); ++sel) {
        const std::size_t pe = compatible[sel];
        if (failed[pe]) continue;
        // Stage the selector and decode: the metrics-table index depends on
        // the candidate PE type's DVFS cardinality, so decode_task is the
        // one source of truth for the candidate's execution time.
        layout_->set_gene(out, task, kFieldPeSel, sel);
        const Choice candidate = decode_task(out, task);
        const double finish = load[pe] + candidate.metrics->avg_exec_time_us;
        if (!found || finish < best_finish) {
          found = true;
          best_finish = finish;
          best_pe = pe;
          best_sel = sel;
        }
      }
      if (!found) return std::nullopt;
      // Selector = position in the class-compatible list, which decode_task
      // reads modulo compatible.size() — always in range because the PeSel
      // cardinality is the full PE count.
      layout_->set_gene(out, task, kFieldPeSel, best_sel);
    } else {
      const auto& pts = points_[type];
      const std::size_t chosen =
          layout_->gene(genome, task, kFieldPoint) % pts.size();
      std::size_t best_point = 0;
      std::size_t best_sel = 0;
      auto try_point = [&](std::size_t pt_idx) {
        const auto& instances = pes_by_type_[pts[pt_idx].pe_type];
        for (std::size_t sel = 0; sel < instances.size(); ++sel) {
          const std::size_t pe = instances[sel];
          if (failed[pe]) continue;
          const double finish =
              load[pe] + pts[pt_idx].metrics.avg_exec_time_us;
          if (!found || finish < best_finish) {
            found = true;
            best_finish = finish;
            best_pe = pe;
            best_point = pt_idx;
            best_sel = sel;
          }
        }
      };
      // Prefer keeping the chosen Pareto point (same implementation + CLR
      // configuration, another instance of the same PE type); fall back to
      // the other points only when its type lost every instance.
      try_point(chosen);
      if (!found) {
        for (std::size_t p = 0; p < pts.size(); ++p) {
          if (p != chosen) try_point(p);
        }
      }
      if (!found) return std::nullopt;
      layout_->set_gene(out, task, kFieldPoint, best_point);
      layout_->set_gene(out, task, kFieldPeSel, best_sel);
    }
    load[best_pe] = best_finish;
  }
  return out;
}

MappingGenome ClrMappingProblem::translate_to(
    const ClrMappingProblem& fc, const MappingGenome& genome) const {
  if (mode_ != Mode::kParetoFiltered ||
      fc.mode() != Mode::kFullConfig) {
    throw std::invalid_argument(
        "translate_to: requires a pfCLR source and an fcCLR target");
  }
  if (fc.app_.graph.num_tasks() != app_.graph.num_tasks()) {
    throw std::invalid_argument("translate_to: task count mismatch");
  }
  layout_->validate(genome);

  const GenomeLayout& src = *layout_;
  const GenomeLayout& dst = *fc.layout_;
  MappingGenome out;
  out.order = genome.order;
  out.genes.assign(dst.gene_count(), 0);

  for (std::size_t t = 0; t < app_.graph.num_tasks(); ++t) {
    const std::size_t type = app_.graph.task(t).type;
    const auto& pts = points_[type];
    const TaskDesignPoint& point =
        pts[src.gene(genome, t, kFieldPoint) % pts.size()];
    const auto& instances = pes_by_type_[point.pe_type];
    const std::size_t pe =
        instances[src.gene(genome, t, kFieldPeSel) % instances.size()];

    const auto& impls = fc.app_.impls[type];
    const std::size_t impl = point.impl_index % impls.size();
    const auto& compatible =
        fc.pes_by_class_[class_index(impls[impl].target)];
    const auto where = std::find(compatible.begin(), compatible.end(), pe);
    const std::size_t pe_sel =
        where == compatible.end()
            ? 0
            : static_cast<std::size_t>(where - compatible.begin());

    auto clamp = [&](std::size_t field, std::size_t value) {
      return std::min(value, dst.cardinality(t, field) - 1);
    };
    dst.set_gene(out, t, kFieldImpl, clamp(kFieldImpl, impl));
    dst.set_gene(out, t, kFieldPeSel, clamp(kFieldPeSel, pe_sel));
    dst.set_gene(out, t, kFieldHw, clamp(kFieldHw, point.config.hw));
    dst.set_gene(out, t, kFieldSsw, clamp(kFieldSsw, point.config.ssw));
    dst.set_gene(out, t, kFieldAsw, clamp(kFieldAsw, point.config.asw));
    dst.set_gene(out, t, kFieldDvfs, clamp(kFieldDvfs, point.config.dvfs));
  }
  return out;
}

}  // namespace clrearly::core
