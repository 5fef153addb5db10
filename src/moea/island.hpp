// Island-model NSGA-II (ROADMAP item: 1000+-task graphs).
//
// The population is sharded into N islands, each an independent Nsga2Engine
// with its own Rng::split stream, evolving concurrently over the shared
// thread pool. Every `migration_interval` generations the islands exchange
// their best individuals over a deterministic ring (island i's emigrants
// join island (i+1) % N), and the final populations are merged in island
// order with one global non-dominated sort. Because each island's variation
// is serial on its own stream, evaluation is pure, and migration/merge are
// serial and index-ordered, the outcome is bit-identical at any thread
// count and across repeated runs — the same contract a single Nsga2Engine
// carries. With one island this is the plain single-population NSGA-II, so
// run_island_nsga2 is the library's only GA driver. docs/SCALING.md
// describes the topology and the determinism argument.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "moea/nsga2.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace clrearly::util {
class ArgParser;
}  // namespace clrearly::util

namespace clrearly::moea {

/// Island-model knobs (the --islands/--migration-interval/--migration-size
/// CLI options and the wire format's `islands` sub-object). islands == 1
/// is the plain single-population NSGA-II: one engine, run to the end.
struct IslandParams {
  std::size_t islands = 1;             ///< sub-population count
  std::size_t migration_interval = 10; ///< generations between migrations
  std::size_t migration_size = 4;      ///< emigrants per island per migration

  void validate() const;

  bool operator==(const IslandParams&) const noexcept = default;
};

/// Read the island options off a parser that declared them via
/// util::add_island_options (parse_standard_args does). Returns defaults for
/// parsers that never declared them, so generic drivers can call this
/// unconditionally.
IslandParams island_params_from_args(const util::ArgParser& parser);

namespace detail {

/// Per-island population shares: params.population_size split as evenly as
/// possible (the first population_size % islands islands get one extra).
/// Throws when any island would fall below the 2-member minimum a
/// population needs for variation.
inline std::vector<std::size_t> island_shares(std::size_t population_size,
                                              std::size_t islands) {
  const std::size_t base = population_size / islands;
  const std::size_t extra = population_size % islands;
  if (base < 2) {
    throw std::invalid_argument(
        "run_island_nsga2: population of " + std::to_string(population_size) +
        " cannot shard into " + std::to_string(islands) +
        " islands of >= 2 members each");
  }
  std::vector<std::size_t> shares(islands, base);
  for (std::size_t i = 0; i < extra; ++i) ++shares[i];
  return shares;
}

}  // namespace detail

/// Run island-model NSGA-II: `island.islands` independent sub-populations
/// of params.population_size members in total, each evolving
/// params.generations generations, with ring migration of non-dominated
/// individuals every `island.migration_interval` generations.
///
/// Seeds implement the bias-elitist idea (Quan & Pimentel): island 0
/// receives the provided seeds verbatim (the heuristic design and/or a
/// previous stage's front), every later island receives copies perturbed by
/// one mutation from its own stream, so all islands start near the seeds
/// without collapsing onto identical populations.
///
/// With one island, params.on_generation fires once per generation (and
/// once more after the last). With several it fires once per migration
/// epoch (and once more after the final merge with generation ==
/// generations) with aggregated union front statistics. Throwing from it
/// cancels the run, so cooperative cancellation has per-generation
/// granularity on one island and epoch granularity on several.
///
/// The total evaluation budget is identical to a single-population run of
/// the same params: population_size logical evaluations per generation plus
/// the initial populations (migration copies evaluated individuals, it
/// never re-evaluates).
template <typename Genome>
Nsga2Result<Genome> run_island_nsga2(const Nsga2Params& params,
                                     const IslandParams& island,
                                     const Nsga2Ops<Genome>& ops,
                                     util::Rng& rng,
                                     std::vector<Genome> seeds = {}) {
  island.validate();
  if (island.islands <= 1) {
    // One population: the engine fires the per-generation hook itself.
    Nsga2Engine<Genome> engine(params, ops, rng, std::move(seeds));
    while (!engine.done()) engine.advance();
    return engine.finish();
  }
  params.validate();
  const std::size_t n = island.islands;
  const std::vector<std::size_t> shares =
      detail::island_shares(params.population_size, n);

  static util::Gauge& islands_metric = util::metric_gauge("island.count");
  static util::Counter& migrants_metric =
      util::metric_counter("island.migrants");
  static util::Counter& epochs_metric = util::metric_counter("island.epochs");
  islands_metric.set(static_cast<double>(n));

  // Per-island RNG streams, drawn in island order from the caller's stream
  // (which advances deterministically, so a caller reusing `rng` afterwards
  // — the proposed flow's second stage — stays reproducible).
  std::vector<util::Rng> rngs;
  rngs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) rngs.push_back(rng.split());

  // Seed distribution: island 0 verbatim, islands j > 0 get copies
  // perturbed by one mutation from island j's own stream — drawn before the
  // engine's create() fills, exactly like a seed prefix.
  std::vector<std::vector<Genome>> island_seeds(n);
  island_seeds[0] = std::move(seeds);
  for (std::size_t j = 1; j < n; ++j) {
    island_seeds[j].reserve(island_seeds[0].size());
    for (const Genome& seed : island_seeds[0]) {
      Genome copy = seed;
      ops.mutate(copy, rngs[j]);
      island_seeds[j].push_back(std::move(copy));
    }
  }

  // Engines run with a nulled hook: the aggregate epoch hook below is the
  // single observer, so per-island telemetry never races.
  Nsga2Params island_params = params;
  island_params.on_generation = nullptr;
  std::vector<Nsga2Engine<Genome>> engines;
  engines.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    island_params.population_size = shares[i];
    engines.emplace_back(island_params, ops, rngs[i],
                         std::move(island_seeds[i]));
  }

  // Cone separation (Branke et al., docs/SCALING.md): island k owns the k-th
  // of n equal bands of the normalized objective ratio r = f2 / (f1 + f2)
  // (a pure-arithmetic stand-in for the angular sector; monotone in the
  // objective-space angle for two objectives). Each engine's region bias
  // penalizes members outside its band by their distance to it, so
  // constrained dominance steers every island toward its own segment of the
  // front instead of n islands rediscovering the same knee. Bands activate
  // at the first migration, once a pooled ideal/nadir exists to normalize
  // against, and the bounds are refreshed between epochs — serially, so the
  // bias each engine reads during an epoch is fixed and the run stays
  // deterministic. Needs at least two objectives; with fewer the bias stays
  // inactive and only ring migration remains.
  struct RegionBand {
    bool active = false;
    double lo = 0.0;
    double hi = 1.0;
    Objectives ideal;
    Objectives nadir;

    double ratio(const Objectives& objectives) const {
      const auto normalized = [&](std::size_t m) {
        const double range = nadir[m] - ideal[m];
        return range > 0.0 ? (objectives[m] - ideal[m]) / range : 0.0;
      };
      const double f1 = normalized(0);
      const double f2 = normalized(1);
      return f1 + f2 > 0.0 ? f2 / (f1 + f2) : -1.0;  // -1: pooled ideal
    }
  };
  std::vector<RegionBand> bands(n);
  for (std::size_t i = 0; i < n; ++i) {
    bands[i].lo = static_cast<double>(i) / static_cast<double>(n);
    bands[i].hi = static_cast<double>(i + 1) / static_cast<double>(n);
    engines[i].set_region_bias([&bands, i](const Objectives& objectives) {
      const RegionBand& band = bands[i];
      if (!band.active || objectives.size() < 2) return 0.0;
      const double r = band.ratio(objectives);
      if (r < 0.0) return 0.0;  // the pooled ideal belongs everywhere
      return std::max({0.0, band.lo - r, r - band.hi});
    });
  }
  auto refresh_bands = [&] {
    // Normalization bounds from the feasible union across all islands
    // (fall back to the full union while nothing is feasible yet).
    Objectives ideal;
    Objectives nadir;
    bool seen_feasible = false;
    bool seen_any = false;
    for (const auto& engine : engines) {
      const auto& points = engine.points();
      const auto& violations = engine.violations();
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].size() < 2) return;  // single-objective: stay inactive
        const bool feasible = is_feasible(violations[i]);
        if (feasible && !seen_feasible) {
          seen_feasible = true;
          seen_any = false;  // restart the bounds over feasible points only
        }
        if (seen_feasible && !feasible) continue;
        if (!seen_any) {
          ideal = points[i];
          nadir = points[i];
          seen_any = true;
          continue;
        }
        for (std::size_t m = 0; m < points[i].size(); ++m) {
          ideal[m] = std::min(ideal[m], points[i][m]);
          nadir[m] = std::max(nadir[m], points[i][m]);
        }
      }
    }
    if (!seen_any) return;
    for (RegionBand& band : bands) {
      band.ideal = ideal;
      band.nadir = nadir;
      band.active = true;
    }
  };

  auto total_evaluations = [&] {
    std::size_t total = 0;
    for (const auto& engine : engines) total += engine.evaluations();
    return total;
  };

  std::size_t done_gens = 0;
  while (done_gens < params.generations) {
    const std::size_t step =
        std::min(island.migration_interval, params.generations - done_gens);
    epochs_metric.add();
    {
      const util::TraceSpan epoch_span("island.epoch");
      // One pool item per island; the engines' inner evaluate batches nest
      // into serial inline loops, so each island is one deterministic
      // serial strand regardless of worker count.
      util::parallel_for(n, [&](std::size_t i) {
        const util::TraceSpan island_span("island.evolve");
        for (std::size_t g = 0; g < step; ++g) engines[i].advance();
      });
    }
    done_gens += step;

    if (done_gens < params.generations && island.migration_size > 0) {
      const util::TraceSpan migration_span("island.migration");
      // Collect every island's emigrants first, then deliver — simultaneous
      // exchange, not a sequential gossip whose outcome would depend on
      // island order. With active bands, delivery routes each migrant to
      // the island owning its objective-space sector, re-anchoring every
      // island with the pool's best individuals *for its own segment of the
      // front*; migrants the bands cannot place (fewer than two objectives,
      // or sitting exactly at the pooled ideal) go to the ring neighbor
      // (source + 1) % n, which is also the whole topology before the first
      // refresh. Pure arithmetic, deterministic for any population order
      // and thread count.
      refresh_bands();
      std::vector<std::vector<EvaluatedGenome<Genome>>> outbound;
      outbound.reserve(n);
      for (const auto& engine : engines) {
        outbound.push_back(engine.emigrants(island.migration_size));
      }
      std::vector<std::vector<EvaluatedGenome<Genome>>> inbound(n);
      std::size_t migrated = 0;
      for (std::size_t i = 0; i < n; ++i) {
        for (auto& member : outbound[i]) {
          const Objectives& objectives = member.eval.objectives;
          std::size_t target = (i + 1) % n;  // ring fallback
          if (bands[0].active && objectives.size() >= 2) {
            const double r = bands[0].ratio(objectives);
            if (r >= 0.0) {
              target = std::min(
                  n - 1, static_cast<std::size_t>(
                             std::max(0.0, r * static_cast<double>(n))));
            }
          }
          ++migrated;
          inbound[target].push_back(std::move(member));
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        engines[i].immigrate(std::move(inbound[i]));
      }
      migrants_metric.add(migrated);
    }

    if (params.on_generation && done_gens < params.generations) {
      // Aggregate epoch snapshot: union first front over all islands.
      std::vector<Objectives> points;
      std::vector<double> violations;
      for (const auto& engine : engines) {
        points.insert(points.end(), engine.points().begin(),
                      engine.points().end());
        violations.insert(violations.end(), engine.violations().begin(),
                          engine.violations().end());
      }
      const auto fronts = non_dominated_sort(points, violations);
      std::vector<std::size_t> rank(points.size(), 1);
      if (!fronts.empty()) {
        for (std::size_t i : fronts.front()) rank[i] = 0;
      }
      detail::report_progress(params.on_generation, done_gens,
                              params.generations, total_evaluations(), points,
                              violations, rank);
    }
  }

  // Deterministic merge: island populations concatenated in island-index
  // order (count-then-lex over the ring positions), one global
  // non-dominated sort for the final front.
  Nsga2Result<Genome> merged;
  std::vector<Objectives> points;
  std::vector<double> violations;
  merged.population.reserve(params.population_size);
  points.reserve(params.population_size);
  violations.reserve(params.population_size);
  for (auto& engine : engines) {
    Nsga2Result<Genome> part = engine.finish();
    merged.evaluations += part.evaluations;
    for (auto& member : part.population) {
      points.push_back(member.eval.objectives);
      violations.push_back(member.eval.violation);
      merged.population.push_back(std::move(member));
    }
  }
  const auto fronts = non_dominated_sort(points, violations);
  merged.front = fronts.empty() ? std::vector<std::size_t>{} : fronts.front();

  if (params.on_generation) {
    std::vector<std::size_t> rank(points.size(), 1);
    for (std::size_t i : merged.front) rank[i] = 0;
    detail::report_progress(params.on_generation, params.generations,
                            params.generations, merged.evaluations, points,
                            violations, rank);
  }
  return merged;
}

}  // namespace clrearly::moea
