#include "core/encoding.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace clrearly::core {
namespace {

GenomeLayout small_layout() {
  // 3 tasks x 2 fields with cardinalities {4, 2} per task.
  return GenomeLayout(3, 2, {4, 2, 4, 2, 4, 2});
}

TEST(GenomeLayoutTest, ConstructionValidation) {
  EXPECT_THROW(GenomeLayout(0, 2, {}), std::invalid_argument);
  EXPECT_THROW(GenomeLayout(2, 0, {}), std::invalid_argument);
  EXPECT_THROW(GenomeLayout(2, 2, {1, 1, 1}), std::invalid_argument);
  EXPECT_THROW(GenomeLayout(1, 2, {1, 0}), std::invalid_argument);
}

TEST(GenomeLayoutTest, Accessors) {
  const GenomeLayout layout = small_layout();
  EXPECT_EQ(layout.num_tasks(), 3u);
  EXPECT_EQ(layout.fields_per_task(), 2u);
  EXPECT_EQ(layout.gene_count(), 6u);
  EXPECT_EQ(layout.cardinality(1, 0), 4u);
  EXPECT_EQ(layout.cardinality(2, 1), 2u);
  EXPECT_THROW(layout.cardinality(3, 0), std::out_of_range);
  EXPECT_THROW(layout.cardinality(0, 2), std::out_of_range);
}

TEST(GenomeLayoutTest, GeneGetSetRoundTrip) {
  const GenomeLayout layout = small_layout();
  util::Rng rng(1);
  MappingGenome g = layout.random(rng);
  layout.set_gene(g, 1, 0, 3);
  EXPECT_EQ(layout.gene(g, 1, 0), 3u);
  EXPECT_THROW(layout.set_gene(g, 1, 0, 4), std::invalid_argument);
  EXPECT_THROW(layout.set_gene(g, 5, 0, 0), std::out_of_range);
  EXPECT_THROW(layout.gene(g, 0, 9), std::out_of_range);
}

TEST(GenomeLayoutTest, RandomGenomesAreValid) {
  const GenomeLayout layout = small_layout();
  util::Rng rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    const MappingGenome g = layout.random(rng);
    EXPECT_NO_THROW(layout.validate(g));
  }
}

TEST(GenomeLayoutTest, ValidateCatchesCorruption) {
  const GenomeLayout layout = small_layout();
  util::Rng rng(3);
  MappingGenome g = layout.random(rng);

  MappingGenome bad_order = g;
  bad_order.order = {0, 0, 1};
  EXPECT_THROW(layout.validate(bad_order), std::invalid_argument);

  MappingGenome short_order = g;
  short_order.order = {0, 1};
  EXPECT_THROW(layout.validate(short_order), std::invalid_argument);

  MappingGenome bad_gene = g;
  bad_gene.genes[0] = 99;
  EXPECT_THROW(layout.validate(bad_gene), std::invalid_argument);

  MappingGenome short_genes = g;
  short_genes.genes.pop_back();
  EXPECT_THROW(layout.validate(short_genes), std::invalid_argument);
}

TEST(GenomeLayoutTest, CrossoverProducesValidChildren) {
  const GenomeLayout layout = small_layout();
  util::Rng rng(4);
  // The children are reused across trials: each call overwrites them.
  MappingGenome ca;
  MappingGenome cb;
  for (int trial = 0; trial < 200; ++trial) {
    const MappingGenome a = layout.random(rng);
    const MappingGenome b = layout.random(rng);
    layout.crossover(a, b, ca, cb, rng);
    EXPECT_NO_THROW(layout.validate(ca));
    EXPECT_NO_THROW(layout.validate(cb));
  }
}

TEST(GenomeLayoutTest, CrossoverTouchesEitherGenesOrOrder) {
  const GenomeLayout layout = small_layout();
  util::Rng rng(5);
  bool saw_gene_exchange = false;
  bool saw_order_exchange = false;
  for (int trial = 0; trial < 200; ++trial) {
    const MappingGenome a = layout.random(rng);
    const MappingGenome b = layout.random(rng);
    MappingGenome ca;
    MappingGenome cb;
    layout.crossover(a, b, ca, cb, rng);
    if (ca.order == a.order && cb.order == b.order &&
        (ca.genes != a.genes || cb.genes != b.genes)) {
      saw_gene_exchange = true;
    }
    if (ca.genes == a.genes && cb.genes == b.genes &&
        (ca.order != a.order || cb.order != b.order)) {
      saw_order_exchange = true;
    }
  }
  EXPECT_TRUE(saw_gene_exchange);
  EXPECT_TRUE(saw_order_exchange);
}

TEST(GenomeLayoutTest, MutationKeepsGenomesValid) {
  const GenomeLayout layout = small_layout();
  util::Rng rng(6);
  MappingGenome g = layout.random(rng);
  for (int trial = 0; trial < 500; ++trial) {
    layout.mutate(g, rng);
    EXPECT_NO_THROW(layout.validate(g));
  }
}

TEST(GenomeLayoutTest, MutationEventuallyTouchesBothParts) {
  const GenomeLayout layout = small_layout();
  util::Rng rng(7);
  bool order_changed = false;
  bool genes_changed = false;
  for (int trial = 0; trial < 200; ++trial) {
    MappingGenome g = layout.random(rng);
    const MappingGenome before = g;
    layout.mutate(g, rng);
    if (g.order != before.order) order_changed = true;
    if (g.genes != before.genes) genes_changed = true;
  }
  EXPECT_TRUE(order_changed);
  EXPECT_TRUE(genes_changed);
}

}  // namespace
}  // namespace clrearly::core
