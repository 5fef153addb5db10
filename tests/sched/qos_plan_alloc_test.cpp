// Heap allocations of the search path's fitness evaluation, counted by this
// binary's own operator new: at the default cache capacity, a warm
// ClrMappingProblem::evaluate decodes into the thread's QoS workspace and
// scores it with the problem's plan, so its one allocation is the returned
// objectives vector. Own binary, because the replaced operator new would
// count every other test's allocations too; the suite is named QosPlan* so
// the CI sanitizer regexes run it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
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

}  // namespace
}  // namespace clrearly::core
