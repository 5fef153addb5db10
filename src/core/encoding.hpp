// The GA encoding of Fig. 5.
//
// An individual is (a) a permutation of the task ids — the implicit schedule
// priority — and (b) a per-task tuple of bounded integer genes: for pfCLR the
// Pareto-point index and the PE-instance selector; for fcCLR the
// implementation index, PE selector and the four CLR decision fields
// (HWRel, SSWRel, ASWRel, DVFS). GenomeLayout owns the field cardinalities
// and implements the paper's four variation operators on this structure.
#pragma once

#include <cstddef>
#include <vector>

#include "moea/operators.hpp"
#include "util/rng.hpp"

namespace clrearly::core {

/// One GA individual: schedule permutation + flattened per-task genes.
struct MappingGenome {
  moea::Permutation order;       ///< task ids in schedule-priority order
  moea::GeneVector genes;        ///< num_tasks * fields_per_task values

  bool operator==(const MappingGenome&) const = default;
};

class GenomeLayout {
 public:
  /// `cardinalities` has num_tasks * fields_per_task entries (task-major);
  /// every entry must be >= 1. Gene values are kept in [0, cardinality).
  GenomeLayout(std::size_t num_tasks, std::size_t fields_per_task,
               std::vector<std::size_t> cardinalities);

  std::size_t num_tasks() const noexcept { return num_tasks_; }
  std::size_t fields_per_task() const noexcept { return fields_per_task_; }
  std::size_t gene_count() const noexcept { return cardinalities_.size(); }
  const std::vector<std::size_t>& cardinalities() const noexcept {
    return cardinalities_;
  }

  std::size_t cardinality(std::size_t task, std::size_t field) const;

  /// Value of (task, field) in `g`.
  std::size_t gene(const MappingGenome& g, std::size_t task,
                   std::size_t field) const;
  void set_gene(MappingGenome& g, std::size_t task, std::size_t field,
                std::size_t value) const;

  /// Uniformly random genome (random permutation + uniform genes).
  MappingGenome random(util::Rng& rng) const;

  /// The paper's crossover: with equal probability either the two-point
  /// exchange of configuration genes or the single-point order crossover of
  /// the scheduling permutation. Parents are untouched; the children are
  /// overwritten in their existing storage (once warm, nothing allocates)
  /// and must not alias a parent.
  void crossover(const MappingGenome& a, const MappingGenome& b,
                 MappingGenome& child_a, MappingGenome& child_b,
                 util::Rng& rng) const;

  /// The paper's mutation: with equal probability either a single-point
  /// random reset of one configuration gene or a two-point swap in the
  /// scheduling permutation. In place.
  void mutate(MappingGenome& g, util::Rng& rng) const;

  /// Per-task mutation (DEAP indpb convention, the paper's pm = 0.05): each
  /// task independently has one of its configuration genes reset with
  /// probability `per_task_prob`, and one scheduling swap is applied with
  /// probability min(1, per_task_prob * num_tasks). In place.
  void mutate(MappingGenome& g, util::Rng& rng, double per_task_prob) const;

  /// Structural check (sizes, permutation validity, gene ranges); throws
  /// std::invalid_argument on violation.
  void validate(const MappingGenome& g) const;

  /// validate() except the permutation check, for callers that check the
  /// order themselves (a QoS plan ranks it and throws on a non-permutation).
  /// Allocation-free.
  void validate_genes(const MappingGenome& g) const;

 private:
  std::size_t num_tasks_;
  std::size_t fields_per_task_;
  std::vector<std::size_t> cardinalities_;
};

}  // namespace clrearly::core
