#include "core/encoding.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace clrearly::core {

GenomeLayout::GenomeLayout(std::size_t num_tasks, std::size_t fields_per_task,
                           std::vector<std::size_t> cardinalities)
    : num_tasks_(num_tasks),
      fields_per_task_(fields_per_task),
      cardinalities_(std::move(cardinalities)) {
  if (num_tasks_ == 0 || fields_per_task_ == 0) {
    throw std::invalid_argument("GenomeLayout: empty layout");
  }
  if (cardinalities_.size() != num_tasks_ * fields_per_task_) {
    throw std::invalid_argument("GenomeLayout: cardinality count mismatch");
  }
  for (std::size_t c : cardinalities_) {
    if (c == 0) {
      throw std::invalid_argument("GenomeLayout: zero cardinality");
    }
  }
}

std::size_t GenomeLayout::cardinality(std::size_t task,
                                      std::size_t field) const {
  if (task >= num_tasks_ || field >= fields_per_task_) {
    throw std::out_of_range("GenomeLayout::cardinality");
  }
  return cardinalities_[task * fields_per_task_ + field];
}

std::size_t GenomeLayout::gene(const MappingGenome& g, std::size_t task,
                               std::size_t field) const {
  if (task >= num_tasks_ || field >= fields_per_task_) {
    throw std::out_of_range("GenomeLayout::gene");
  }
  return g.genes[task * fields_per_task_ + field];
}

void GenomeLayout::set_gene(MappingGenome& g, std::size_t task,
                            std::size_t field, std::size_t value) const {
  if (task >= num_tasks_ || field >= fields_per_task_) {
    throw std::out_of_range("GenomeLayout::set_gene");
  }
  if (value >= cardinalities_[task * fields_per_task_ + field]) {
    throw std::invalid_argument("GenomeLayout::set_gene: value out of range");
  }
  g.genes[task * fields_per_task_ + field] = value;
}

MappingGenome GenomeLayout::random(util::Rng& rng) const {
  MappingGenome g;
  g.order = moea::random_permutation(num_tasks_, rng);
  g.genes.resize(gene_count());
  for (std::size_t i = 0; i < gene_count(); ++i) {
    g.genes[i] = rng.index(cardinalities_[i]);
  }
  return g;
}

void GenomeLayout::crossover(const MappingGenome& a, const MappingGenome& b,
                             MappingGenome& child_a, MappingGenome& child_b,
                             util::Rng& rng) const {
  validate(a);
  validate(b);
  if (rng.bernoulli(0.5)) {
    // Configuration exchange: two-point crossover on the gene vectors.
    child_a = a;
    child_b = b;
    moea::two_point_crossover(child_a.genes, child_b.genes, rng);
    return;
  }
  // Scheduling exchange: single-point order crossover on the permutation;
  // the parents' orders are never copied, only their genes.
  moea::order_crossover(a.order, b.order, child_a.order, child_b.order, rng);
  child_a.genes = a.genes;
  child_b.genes = b.genes;
}

void GenomeLayout::mutate(MappingGenome& g, util::Rng& rng) const {
  validate(g);
  if (rng.bernoulli(0.5)) {
    moea::random_reset_mutation(g.genes, cardinalities_, rng);
  } else {
    moea::swap_mutation(g.order, rng);
  }
}

void GenomeLayout::mutate(MappingGenome& g, util::Rng& rng,
                          double per_task_prob) const {
  validate(g);
  if (per_task_prob < 0.0 || per_task_prob > 1.0) {
    throw std::invalid_argument("GenomeLayout::mutate: bad probability");
  }
  for (std::size_t t = 0; t < num_tasks_; ++t) {
    if (!rng.bernoulli(per_task_prob)) continue;
    const std::size_t field = rng.index(fields_per_task_);
    const std::size_t idx = t * fields_per_task_ + field;
    g.genes[idx] = rng.index(cardinalities_[idx]);
  }
  const double swap_prob =
      std::min(1.0, per_task_prob * static_cast<double>(num_tasks_));
  if (rng.bernoulli(swap_prob)) {
    moea::swap_mutation(g.order, rng);
  }
}

void GenomeLayout::validate(const MappingGenome& g) const {
  validate_genes(g);
  if (!moea::is_permutation(g.order)) {
    throw std::invalid_argument("GenomeLayout: order is not a permutation");
  }
}

void GenomeLayout::validate_genes(const MappingGenome& g) const {
  if (g.order.size() != num_tasks_) {
    throw std::invalid_argument("GenomeLayout: order length mismatch");
  }
  if (g.genes.size() != gene_count()) {
    throw std::invalid_argument("GenomeLayout: gene count mismatch");
  }
  for (std::size_t i = 0; i < g.genes.size(); ++i) {
    if (g.genes[i] >= cardinalities_[i]) {
      throw std::invalid_argument("GenomeLayout: gene value out of range");
    }
  }
}

}  // namespace clrearly::core
