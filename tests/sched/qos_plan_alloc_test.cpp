// Heap allocations of the search path, counted by this binary's own
// operator new. At the default cache capacity, a warm
// ClrMappingProblem::evaluate decodes into the thread's QoS workspace and
// scores it with the problem's plan, so its one allocation is the returned
// objectives vector; warm variation allocates nothing, and a warm NSGA-II
// generation allocates little beyond its evaluations.
// Own binary, because the replaced operator new would count every other
// test's allocations too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "app/characterizer.hpp"
#include "core/experiment.hpp"
#include "core/problem.hpp"
#include "moea/nsga2.hpp"
#include "platform/architecture.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// These replace the global pair, so free() does match the malloc() above;
// GCC cannot see that once it inlines them into callers and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace clrearly::core {
namespace {

TEST(QosPlanAllocationTest, WarmEvaluateAllocatesOnlyItsObjectives) {
  sched::QosSpec spec;
  spec.min_functional_rel = 0.99;
  for (std::size_t n : {10, 100, 2000}) {
    const ClrMappingProblem problem(
        app::make_synthetic_application(n, 10, 7),
        platform::Architecture::paper_default(), bench_system_analyzer(),
        SystemObjectives{}, spec);
    util::Rng rng(n);
    std::vector<MappingGenome> genomes;
    for (int i = 0; i < 4; ++i) genomes.push_back(problem.layout().random(rng));
    (void)problem.evaluate(genomes[0]);  // grow the thread's workspace

    for (const MappingGenome& genome : genomes) {
      const std::uint64_t before =
          g_allocations.load(std::memory_order_relaxed);
      const moea::Evaluation eval = problem.evaluate(genome);
      const std::uint64_t allocs =
          g_allocations.load(std::memory_order_relaxed) - before;
      EXPECT_EQ(eval.objectives.size(), 2u);
      // The objectives vector, which also shows the counter is wired in.
      EXPECT_EQ(allocs, 1u) << n << " tasks";
    }
  }
}

TEST(QosPlanAllocationTest, WarmCrossoverAndMutationAllocateNothing) {
  // GenomeLayout::crossover validates both parents and overwrites the two
  // children in their existing storage: once the children have held a
  // genome of this size, either branch allocates nothing, and mutation
  // validates and edits in place. The permutation checks and the order
  // crossover reuse a per-thread bit set.
  const ClrMappingProblem problem(
      app::make_synthetic_application(100, 10, 7),
      platform::Architecture::paper_default(), bench_system_analyzer(),
      SystemObjectives{}, sched::QosSpec{});
  const GenomeLayout& layout = problem.layout();
  util::Rng rng(5);
  MappingGenome a = layout.random(rng);
  MappingGenome b = layout.random(rng);
  MappingGenome ca;
  MappingGenome cb;
  // Warm: the children's storage and the thread's bit set.
  layout.crossover(a, b, ca, cb, rng);
  layout.crossover(a, b, ca, cb, rng);

  for (int i = 0; i < 32; ++i) {
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    layout.crossover(a, b, ca, cb, rng);
    const std::uint64_t crossed = g_allocations.load(std::memory_order_relaxed);
    layout.mutate(ca, rng, 0.05);
    layout.mutate(cb, rng, 0.05);
    const std::uint64_t mutated = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(crossed - before, 0u) << "crossover " << i;
    EXPECT_EQ(mutated - crossed, 0u) << "mutation " << i;
    std::swap(a, ca);
    std::swap(b, cb);
  }
}

TEST(QosPlanAllocationTest, WarmGenerationAllocatesOnlyTheEvaluations) {
  // One warm Nsga2Engine::advance at one thread: variation writes into the
  // engine's offspring slots, ranking reuses its buffers and the survivors
  // move by swaps, so what allocates is each evaluation's objectives vector
  // (lambda = 100 of them) and the pool call's fixed few. A per-member
  // allocation anywhere else adds at least another 100.
  util::set_thread_count(1);
  sched::QosSpec spec;
  spec.min_functional_rel = 0.99;
  const ClrMappingProblem problem(
      app::make_synthetic_application(100, 10, 7),
      platform::Architecture::paper_default(), bench_system_analyzer(),
      SystemObjectives{}, spec);
  const auto ops = problem.ops(0.05);
  moea::Nsga2Params params;
  params.population_size = 100;
  params.generations = 1000;
  util::Rng rng(3);
  moea::Nsga2Engine<MappingGenome> engine(params, ops, rng);
  for (int g = 0; g < 3; ++g) engine.advance();  // warm every slot

  for (int g = 0; g < 5; ++g) {
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    engine.advance();
    const std::uint64_t allocs =
        g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_GE(allocs, params.population_size) << "generation " << g;
    EXPECT_LT(allocs, params.population_size + 50) << "generation " << g;
  }
  util::set_thread_count(0);
}

}  // namespace
}  // namespace clrearly::core
