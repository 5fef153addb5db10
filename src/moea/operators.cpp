#include "moea/operators.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace clrearly::moea {

namespace {

/// A cleared n-bit set, reused per thread so the permutation operators
/// allocate nothing once warm (variation checks every parent and child).
std::vector<std::uint64_t>& cleared_bits(std::size_t n) {
  thread_local std::vector<std::uint64_t> bits;
  bits.assign((n + 63) / 64, 0);
  return bits;
}

/// Set bit v; returns whether it was already set.
bool test_and_set(std::vector<std::uint64_t>& bits, std::size_t v) {
  const std::uint64_t mask = std::uint64_t{1} << (v % 64);
  const bool was_set = (bits[v / 64] & mask) != 0;
  bits[v / 64] |= mask;
  return was_set;
}

}  // namespace

bool is_permutation(const Permutation& p) {
  std::vector<std::uint64_t>& seen = cleared_bits(p.size());
  for (std::size_t v : p) {
    if (v >= p.size() || test_and_set(seen, v)) return false;
  }
  return true;
}

Permutation random_permutation(std::size_t n, util::Rng& rng) {
  Permutation p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  rng.shuffle(p);
  return p;
}

void order_crossover(const Permutation& a, const Permutation& b,
                     Permutation& child_a, Permutation& child_b,
                     util::Rng& rng) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("order_crossover: size mismatch");
  }
  const std::size_t n = a.size();
  if (n < 2) {
    child_a = a;
    child_b = b;
    return;
  }

  const std::size_t cut = 1 + rng.index(n - 1);  // at least one element each side

  auto make_child = [n, cut](const Permutation& head, const Permutation& tail,
                             Permutation& child) {
    child.reserve(n);
    child.assign(head.begin(), head.begin() + static_cast<std::ptrdiff_t>(cut));
    std::vector<std::uint64_t>& used = cleared_bits(n);
    for (std::size_t v : child) test_and_set(used, v);
    for (std::size_t v : tail) {
      if (!test_and_set(used, v)) child.push_back(v);
    }
  };
  make_child(a, b, child_a);
  make_child(b, a, child_b);
}

void swap_mutation(Permutation& p, util::Rng& rng) {
  if (p.size() < 2) return;
  const std::size_t i = rng.index(p.size());
  std::size_t j = rng.index(p.size() - 1);
  if (j >= i) ++j;  // distinct positions
  std::swap(p[i], p[j]);
}

void two_point_crossover(GeneVector& a, GeneVector& b, util::Rng& rng) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("two_point_crossover: size mismatch");
  }
  const std::size_t n = a.size();
  if (n == 0) return;
  std::size_t cut1 = rng.index(n + 1);
  std::size_t cut2 = rng.index(n + 1);
  if (cut1 > cut2) std::swap(cut1, cut2);
  for (std::size_t i = cut1; i < cut2; ++i) std::swap(a[i], b[i]);
}

void random_reset_mutation(GeneVector& genes,
                           const std::vector<std::size_t>& cardinalities,
                           util::Rng& rng) {
  if (genes.size() != cardinalities.size()) {
    throw std::invalid_argument("random_reset_mutation: size mismatch");
  }
  if (genes.empty()) return;
  const std::size_t pos = rng.index(genes.size());
  if (cardinalities[pos] == 0) {
    throw std::invalid_argument("random_reset_mutation: zero cardinality");
  }
  genes[pos] = rng.index(cardinalities[pos]);
}

}  // namespace clrearly::moea
