// Micro-benchmarks (google-benchmark) for the analytical kernels behind the
// "early-stage exploration" claim: a batch of CLR Markov-chain solves, one full
// task-metric evaluation, list scheduling, QoS estimation, a whole NSGA-II
// generation and its non-dominated sort, hypervolume computation and
// task-graph generation.
//
// These document that a single fitness evaluation costs microseconds —
// which is what makes the multi-stage GA flows tractable on a laptop.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "app/characterizer.hpp"
#include "app/sobel.hpp"
#include "app/tgff.hpp"
#include "core/dse.hpp"
#include "core/experiment.hpp"
#include "moea/hypervolume.hpp"
#include "moea/nsga2.hpp"
#include "moea/pareto.hpp"
#include "platform/architecture.hpp"
#include "reliability/clr_chain_builder.hpp"
#include "util/cpu_features.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace clrearly;

void BM_MarkovClrChainAnalyze(benchmark::State& state) {
  // A batch of distinct chains through the uncached driver: every iteration
  // times assembly and the row-0 solves, never a chain-cache hit. The label
  // names the dispatch level, so runs under CLREARLY_SIMD=scalar|avx2 report
  // the kernel per level.
  constexpr std::size_t kChains = 64;
  std::vector<reliability::ClrChainParams> batch(kChains);
  for (std::size_t i = 0; i < kChains; ++i) {
    reliability::ClrChainParams& params = batch[i];
    params.exec_time_us = 1000.0 + 0.01 * static_cast<double>(i);
    params.lambda_per_us = 3e-4;
    params.hw_masking = 0.7;
    params.detection_coverage = 0.92;
    params.tolerance_success = 0.98;
    params.asw_masking = 0.6;
    params.intervals = static_cast<std::size_t>(state.range(0));
    params.detection_time_us = 10.0;
    params.tolerance_time_us = 20.0;
    params.checkpoint_time_us = 30.0;
  }
  const reliability::ChainBatchOptions uncached{.use_cache = false};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reliability::analyze_clr_chain_batch(batch, uncached));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kChains));
  state.SetLabel(util::to_string(util::active_simd_level()));
}
BENCHMARK(BM_MarkovClrChainAnalyze)->Arg(1)->Arg(2)->Arg(4);

void BM_TaskAnalyzerEvaluate(benchmark::State& state) {
  const reliability::TaskAnalyzer analyzer =
      reliability::TaskAnalyzer::paper_default();
  const platform::Architecture arch = platform::Architecture::paper_default();
  const app::Application sobel = app::make_sobel_application();
  const reliability::ClrConfig config{2, 2, 1, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analyzer.evaluate(sobel.impls[0][0], arch.type(0), config));
  }
}
BENCHMARK(BM_TaskAnalyzerEvaluate);

void BM_ListSchedule(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const app::Application syn = app::make_synthetic_application(n, 10, 7);
  util::Rng rng(1);
  std::vector<sched::TaskAssignment> assignments(n);
  for (auto& a : assignments) {
    a.pe = rng.index(6);
    a.exec_time_us = rng.uniform(100.0, 1000.0);
    a.power_w = 0.4;
  }
  const auto order = moea::random_permutation(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::list_schedule(syn.graph, assignments, order, 6));
  }
}
BENCHMARK(BM_ListSchedule)->Arg(10)->Arg(50)->Arg(100)->Arg(500)->Arg(2000);

void BM_FitnessEvaluation(benchmark::State& state) {
  // One fcCLR fitness evaluation, as the GA makes it: decode + schedule +
  // the QoS fields the paper's objectives and Fapp >= 0.99 spec read.
  // Iterations rotate through distinct genomes.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const app::Application syn = app::make_synthetic_application(n, 10, 7);
  sched::QosSpec spec;
  spec.min_functional_rel = 0.99;
  const core::ClrMappingProblem problem(
      syn, platform::Architecture::paper_default(),
      core::bench_system_analyzer(), core::SystemObjectives{}, spec);
  util::Rng rng(2);
  std::vector<core::MappingGenome> genomes;
  for (int i = 0; i < 64; ++i) genomes.push_back(problem.layout().random(rng));
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.evaluate(genomes[next]));
    next = (next + 1) % genomes.size();
  }
}
BENCHMARK(BM_FitnessEvaluation)
    ->Arg(10)->Arg(50)->Arg(100)->Arg(500)->Arg(2000);

void BM_Nsga2Generation(benchmark::State& state) {
  // One Nsga2Engine::advance at population 100 on an fcCLR problem:
  // variation pipelined with the offspring's evaluation, then survivor
  // selection, which also ranks the survivors. The problem and the initial
  // population are built once, outside the timed loop, so each iteration is
  // one steady-state generation.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const app::Application syn = app::make_synthetic_application(n, 10, 7);
  const core::DseMethodology dse(syn, platform::Architecture::paper_default(),
                                 core::bench_system_analyzer());
  const core::DseOptions options = core::bench_options(3);
  const core::ClrMappingProblem problem = dse.build_fcclr_problem(options);
  const auto ops = problem.ops(options.ga.mutation_indpb);
  moea::Nsga2Params params = options.ga;
  params.population_size = 100;
  params.generations = std::numeric_limits<std::size_t>::max();
  util::Rng rng(options.seed);
  moea::Nsga2Engine<core::MappingGenome> engine(params, ops, rng);
  for (auto _ : state) {
    engine.advance();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(params.population_size));
}
BENCHMARK(BM_Nsga2Generation)->Arg(20)->Arg(100)->Unit(benchmark::kMicrosecond);

void BM_NonDominatedSort(benchmark::State& state) {
  // NSGA-II's ranking kernel alone on n two-objective points, by input
  // shape (range(1)):
  //   0  uniform random, unconstrained: no duplicates, many fronts;
  //   1  the same with half the points infeasible;
  //   2  GA-shaped, like a (mu + lambda) pool: a coarse grid near one
  //      staircase, so about half the points share the first front, about
  //      40% duplicates and a few infeasible members.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(8);
  std::vector<moea::Objectives> points;
  std::vector<double> violations;
  for (std::size_t i = 0; i < n; ++i) {
    if (state.range(1) == 2) {
      if (i > 0 && rng.bernoulli(0.4)) {
        const std::size_t j = rng.index(i);
        points.push_back(points[j]);
        violations.push_back(violations[j]);
        continue;
      }
      const double x = std::floor(rng.uniform(0.0, 60.0));
      const double above =
          rng.bernoulli(0.5) ? 0.0 : std::floor(rng.uniform(1.0, 6.0));
      points.push_back({x, 60.0 - x + above});
      violations.push_back(rng.bernoulli(0.02) ? rng.uniform() : 0.0);
      continue;
    }
    points.push_back({rng.uniform(), rng.uniform()});
    if (state.range(1) != 0) {
      violations.push_back(rng.bernoulli(0.5) ? 0.0 : rng.uniform());
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(moea::non_dominated_sort(points, violations));
  }
}
BENCHMARK(BM_NonDominatedSort)
    ->ArgsProduct({{100, 200, 1000}, {0, 1}})
    ->Args({100, 2})
    ->Args({200, 2})
    ->Unit(benchmark::kMicrosecond);

void BM_Hypervolume(benchmark::State& state) {
  const std::size_t points = static_cast<std::size_t>(state.range(0));
  const std::size_t dims = static_cast<std::size_t>(state.range(1));
  util::Rng rng(4);
  std::vector<moea::Objectives> front;
  for (std::size_t i = 0; i < points; ++i) {
    moea::Objectives p(dims);
    for (double& x : p) x = rng.uniform();
    front.push_back(p);
  }
  const moea::Objectives ref(dims, 1.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(moea::hypervolume(front, ref));
  }
}
BENCHMARK(BM_Hypervolume)->Args({50, 2})->Args({50, 3})->Args({30, 5});

void BM_TgffGenerate(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  app::TgffOptions options;
  options.num_tasks = n;
  for (auto _ : state) {
    util::Rng rng(5);
    benchmark::DoNotOptimize(app::generate_tgff_graph(options, rng));
  }
}
BENCHMARK(BM_TgffGenerate)->Arg(20)->Arg(100);

void BM_TdseEnumerate(benchmark::State& state) {
  const core::Tdse tdse(reliability::TaskAnalyzer::paper_default());
  const platform::Architecture arch = platform::Architecture::paper_default();
  const app::Application sobel = app::make_sobel_application();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tdse.enumerate(sobel.impls[0], arch));
  }
}
BENCHMARK(BM_TdseEnumerate)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  clrearly::util::set_log_level(clrearly::util::LogLevel::Warn);
  // Honour the shared --threads flag (google-benchmark owns the remaining
  // argv, so strip ours before benchmark::Initialize sees it).
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      clrearly::util::set_thread_count(std::stoul(argv[++i]));
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      clrearly::util::set_thread_count(std::stoul(arg + 10));
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
