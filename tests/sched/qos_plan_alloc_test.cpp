// Heap allocations of the search path, counted by this binary's own
// operator new. At the default cache capacity, a warm
// ClrMappingProblem::evaluate decodes into the thread's QoS workspace and
// scores it with the problem's plan, so its one allocation is the returned
// objectives vector; warm variation allocates only the children it returns.
// Own binary, because the replaced operator new would count every other
// test's allocations too; the suite is named QosPlan* so the CI sanitizer
// regexes run it.
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
#include "platform/architecture.hpp"
#include "util/rng.hpp"

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

TEST(QosPlanAllocationTest, WarmCrossoverAndMutationAllocateOnlyTheChildren) {
  // GenomeLayout::crossover validates both parents and returns two fresh
  // children: either branch allocates their four vectors (orders and genes)
  // and nothing else, and mutation validates and edits in place. The
  // permutation checks and the order crossover reuse a per-thread bit set.
  const ClrMappingProblem problem(
      app::make_synthetic_application(100, 10, 7),
      platform::Architecture::paper_default(), bench_system_analyzer(),
      SystemObjectives{}, sched::QosSpec{});
  const GenomeLayout& layout = problem.layout();
  util::Rng rng(5);
  MappingGenome a = layout.random(rng);
  MappingGenome b = layout.random(rng);
  (void)layout.crossover(a, b, rng);  // grow the thread's bit set

  for (int i = 0; i < 32; ++i) {
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    std::pair<MappingGenome, MappingGenome> children =
        layout.crossover(a, b, rng);
    const std::uint64_t crossed = g_allocations.load(std::memory_order_relaxed);
    layout.mutate(children.first, rng, 0.05);
    layout.mutate(children.second, rng, 0.05);
    const std::uint64_t mutated = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(crossed - before, 4u) << "crossover " << i;
    EXPECT_EQ(mutated - crossed, 0u) << "mutation " << i;
    a = std::move(children.first);
    b = std::move(children.second);
  }
}

}  // namespace
}  // namespace clrearly::core
