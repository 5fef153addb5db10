// Width-templated batched row-0 chain kernel — the SIMD body behind
// markov::solve_row0_batch.
//
// THIS FILE IS INCLUDED INTO MULTIPLE TRANSLATION UNITS compiled with
// different -m flags (portable / -mavx2 / -mavx512f). Everything here is
// `static` (internal linkage) so each TU keeps its own copy and the linker
// can never merge a portable instantiation into an AVX one. All those TUs
// build with -ffp-contract=off, so no variant fuses a multiply-subtract the
// others round separately.
//
// Bit-identity contract: for every lane l, the sequence of floating-point
// operations applied to chain l is *exactly* the sequence the width-1
// instantiation applies — I - Q assembly, a partially pivoted LU in the
// loop order of the test-only reference LU (oracle::LuDecomposition,
// tests/oracle/linsolve.hpp), the adjoint solve (I - Q)^T x = e_0 for row
// 0 of N, the dot/sum/absorption reductions, and (for the second moment) a
// forward solve t = N r, qt = Q t and the second-moment rhs. Data-dependent
// skips (`factor == 0.0` in elimination, `x == 0.0` in the absorption
// reduction) are per-lane selects, bit-equivalent to branching (including
// the -0.0 edge cases the skips protect), so lanes never influence each
// other's arithmetic and the lane loops stay branch-free for the
// vectorizer. Loop order, pivot tie-breaking (`>` keeps the first maximum)
// and the singularity tolerance (kLuSingularTol) match that reference LU,
// so the kernel and the reference chain solver (tests/oracle/chain.hpp)
// agree on which chains are singular.
//
// A lane whose I - Q is numerically singular is flagged and its arithmetic
// keeps running on garbage (IEEE non-trapping inf/NaN) — elementwise ops
// never leak across lanes, so batch-mates are unaffected. The caller zeroes
// flagged lanes' outputs.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "markov/chain_batch.hpp"

namespace clrearly::markov {
namespace kernel_detail {

template <std::size_t W>
static void batch_kernel(ChainBatch& ws, bool with_second_moment) {
  const std::size_t t = ws.t;
  const std::size_t a = ws.a;
  double* __restrict lu = ws.lu.data();
  const double* __restrict q = ws.q.data();
  const double* __restrict r = ws.r.data();
  const double* __restrict res = ws.residence.data();
  double* __restrict row0 = ws.row0.data();
  double* __restrict b0 = ws.b0.data();
  double* __restrict tv = ws.tvec.data();
  double* __restrict qt = ws.qt.data();
  double* __restrict rhs = ws.rhs.data();
  double* __restrict scr = ws.scratch.data();
  std::size_t* __restrict perm = ws.perm.data();

  // ---- I - Q over the LU buffer, fused with the max-|entry| scan of the
  // singularity tolerance: one pass in flat (i, j) order per lane, touching
  // the 2 t^2 W doubles once.
  //
  // The same pass builds a per-column bitmask of possibly-nonzero rows
  // (bit i of col_mask[j] <=> cell (i, j) is nonzero in SOME lane). These
  // chains couple only neighboring checkpoint intervals, so each column has
  // a handful of nonzero rows out of t; the factorization below walks set
  // bits instead of scanning all t rows per step. A clear bit guarantees
  // the cell is +0.0 in every lane — bits are only ever set, never cleared,
  // and fill-in unions the masks — so skipping a clear row is exact
  // whenever the scalar op on it would be a no-op store of +0.0.
  const bool use_masks = (t <= 64);
  std::uint64_t col_mask[64];  ///< bit i of [j]: cell (i, j) maybe non-(+-0)
  std::uint64_t row_mask[64];  ///< bit j of [i]: cell (i, j) maybe non-(+-0)
  double tol[W];
  {
    if (use_masks) {
      for (std::size_t j = 0; j < t; ++j) col_mask[j] = 0;
      for (std::size_t i = 0; i < t; ++i) row_mask[i] = 0;
    }
    double max_entry[W];
    for (std::size_t l = 0; l < W; ++l) max_entry[l] = 0.0;
    if (ws.q_zero_outside_pattern && ws.q_pattern_t == t) {
      // q is +0.0 off the recorded assembly pattern, so I - Q is 1.0 on the
      // unlisted diagonal and +0.0 on every unlisted off-diagonal cell:
      // memset + diagonal + pattern walk writes the bit-identical matrix
      // while touching ~12 cells per row instead of t. Unlisted diagonals
      // contribute exactly 1.0 to the max-|entry| scan, which the tolerance
      // clamp below already supplies, so tol is unchanged too.
      for (std::size_t e = 0; e < t * t * W; ++e) lu[e] = 0.0;
      for (std::size_t i = 0; i < t; ++i) {
        const std::size_t ii = (i * t + i) * W;
        for (std::size_t l = 0; l < W; ++l) lu[ii + l] = 1.0;
        if (use_masks) {
          col_mask[i] |= std::uint64_t{1} << i;
          row_mask[i] |= std::uint64_t{1} << i;
        }
      }
      for (const std::uint32_t cell : ws.q_pattern) {
        const std::size_t i = cell / t;
        const std::size_t j = cell % t;
        const double diag = (i == j) ? 1.0 : 0.0;
        const std::size_t ij = static_cast<std::size_t>(cell) * W;
        bool nz = false;
        for (std::size_t l = 0; l < W; ++l) {
          const double v = diag - q[ij + l];
          lu[ij + l] = v;
          max_entry[l] = std::max(max_entry[l], std::abs(v));
          nz |= (v != 0.0);
        }
        if (use_masks) {
          col_mask[j] |= static_cast<std::uint64_t>(nz) << i;
          row_mask[i] |= static_cast<std::uint64_t>(nz) << j;
        }
      }
    } else {
      for (std::size_t i = 0; i < t; ++i) {
        for (std::size_t j = 0; j < t; ++j) {
          const double diag = (i == j) ? 1.0 : 0.0;
          const std::size_t ij = (i * t + j) * W;
          bool nz = false;
          for (std::size_t l = 0; l < W; ++l) {
            const double v = diag - q[ij + l];
            lu[ij + l] = v;
            max_entry[l] = std::max(max_entry[l], std::abs(v));
            nz |= (v != 0.0);
          }
          if (use_masks) {
            col_mask[j] |= static_cast<std::uint64_t>(nz) << i;
            row_mask[i] |= static_cast<std::uint64_t>(nz) << j;
          }
        }
      }
    }
    for (std::size_t l = 0; l < W; ++l) {
      tol[l] = kLuSingularTol * std::max(max_entry[l], 1.0);
    }
  }

  // Snapshot of the assembly-time row masks for the qt = Q t apply below:
  // off the diagonal, a cell of Q is nonzero exactly where I - Q is, and the
  // diagonal bit is forced on because q_ii = 1 makes I - Q zero there while
  // Q itself is not. The factorization mutates row_mask in place (fill-in,
  // swaps), so the apply needs this pre-elimination copy.
  std::uint64_t q_row_mask[64];
  if (use_masks) {
    for (std::size_t i = 0; i < t; ++i) {
      q_row_mask[i] = row_mask[i] | (std::uint64_t{1} << i);
    }
  }

  // ---- LU factorization (partial pivoting, the reference LU's loop order).
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t l = 0; l < W; ++l) perm[i * W + l] = i;
  }

  for (std::size_t k = 0; k < t; ++k) {
    std::size_t pivot_row[W];
    double pivot_mag[W];
    const std::size_t kk = (k * t + k) * W;
    for (std::size_t l = 0; l < W; ++l) {
      pivot_row[l] = k;
      pivot_mag[l] = std::abs(lu[kk + l]);
    }
    // Rows below the diagonal that can hold a nonzero in column k. A clear
    // bit is +0.0 in every lane: |+0| beats nothing under the strict `>` of
    // the pivot search, and its scalar elimination step stores
    // +0/pivot — a no-op whenever the pivot is non-negative. So the pivot
    // scan always walks set bits only, and the elimination below does too
    // unless a lane's pivot has its sign bit set (then the no-op argument
    // breaks and that step falls back to the full scan).
    const std::uint64_t below =
        (use_masks && k + 1 < 64) ? col_mask[k] >> (k + 1) : 0;
    const auto pivot_probe = [&](std::size_t i) {
      const std::size_t ik = (i * t + k) * W;
      // Branchless form of the scalar `if (mag > pivot_mag)` update so the
      // lane loop turns into compare + two blends instead of W branches.
      for (std::size_t l = 0; l < W; ++l) {
        const double mag = std::abs(lu[ik + l]);
        const bool gt = mag > pivot_mag[l];
        pivot_mag[l] = gt ? mag : pivot_mag[l];
        pivot_row[l] = gt ? i : pivot_row[l];
      }
    };
    if (use_masks) {
      for (std::uint64_t m = below; m != 0; m &= m - 1) {
        pivot_probe(k + 1 + static_cast<std::size_t>(__builtin_ctzll(m)));
      }
    } else {
      for (std::size_t i = k + 1; i < t; ++i) pivot_probe(i);
    }
    for (std::size_t l = 0; l < W; ++l) {
      // Where the reference LU throws std::domain_error, a lane is flagged
      // and keeps computing garbage that never crosses lanes.
      if (pivot_mag[l] <= tol[l]) ws.singular[l] = 1;
    }
    // Per-lane row swaps — scalar bookkeeping, O(W t) against the vector
    // elimination below. A swap exchanges rows k and pr in every column, so
    // the column masks union the two rows' bits (union, not swap: lanes can
    // pick different pivot rows, and a superset bit is always safe).
    for (std::size_t l = 0; l < W; ++l) {
      const std::size_t pr = pivot_row[l];
      if (pr != k) {
        for (std::size_t j = 0; j < t; ++j) {
          std::swap(lu[(k * t + j) * W + l], lu[(pr * t + j) * W + l]);
        }
        std::swap(perm[k * W + l], perm[pr * W + l]);
        if (use_masks) {
          for (std::size_t j = 0; j < t; ++j) {
            const std::uint64_t m = col_mask[j];
            const std::uint64_t both = ((m >> k) | (m >> pr)) & 1u;
            col_mask[j] = m | (both << k) | (both << pr);
          }
          // The two rows exchanged contents in this lane only; the shared
          // row masks take the union (superset — always safe).
          const std::uint64_t u = row_mask[k] | row_mask[pr];
          row_mask[k] = u;
          row_mask[pr] = u;
        }
      }
    }
    bool fast = use_masks;
    for (std::size_t l = 0; l < W; ++l) {
      fast &= !std::signbit(lu[kk + l]);
    }
    const auto eliminate_row = [&](std::size_t i) {
      const std::size_t ik = (i * t + k) * W;
      bool all_zero = true;
      for (std::size_t l = 0; l < W; ++l) all_zero &= (lu[ik + l] == 0.0);
      if (all_zero) {
        // Every lane's multiplier is (+-0)/pivot — a signed zero, sign of
        // the numerator XOR sign of the pivot, with no divider involved.
        // Stored only when some lane's bit pattern actually changes, which
        // keeps untouched cache lines clean.
        bool flip = false;
        for (std::size_t l = 0; l < W; ++l) {
          flip |= (std::signbit(lu[ik + l]) != std::signbit(lu[kk + l]));
        }
        if (flip) {
          for (std::size_t l = 0; l < W; ++l) {
            const bool neg =
                std::signbit(lu[ik + l]) != std::signbit(lu[kk + l]);
            lu[ik + l] = neg ? -0.0 : 0.0;  // bit-identical to the division
          }
        }
        return;
      }
      double factor[W];
      bool any_nonzero = false;
      for (std::size_t l = 0; l < W; ++l) {
        factor[l] = lu[ik + l] / lu[kk + l];
        lu[ik + l] = factor[l];  // store L's multiplier in place
        any_nonzero |= (factor[l] != 0.0);
      }
      // When every lane's multiplier is zero, every lane's scalar path takes
      // its `if (factor == 0.0) continue;` — the whole row is untouched in
      // all lanes, so skip it.
      if (!any_nonzero) return;
      if (use_masks) {
        // Fill-in: row i inherits row k's upper pattern (and its factor at
        // column k, covered by row k's own diagonal bit).
        for (std::size_t j = k + 1; j < t; ++j) {
          col_mask[j] |= ((col_mask[j] >> k) & 1u) << i;
        }
        row_mask[i] |= row_mask[k];
      }
      for (std::size_t j = k + 1; j < t; ++j) {
        const std::size_t ij = (i * t + j) * W;
        const std::size_t kj = (k * t + j) * W;
        // Select replicates the scalar `if (factor == 0.0) continue;`.
        for (std::size_t l = 0; l < W; ++l) {
          const double upd = lu[ij + l] - factor[l] * lu[kj + l];
          lu[ij + l] = (factor[l] == 0.0) ? lu[ij + l] : upd;
        }
      }
    };
    if (fast) {
      // Re-read the mask: a swap unions bits into column k (the old diagonal
      // lands on row pr), so the pre-swap `below` would miss that row.
      const std::uint64_t below_after =
          (k + 1 < 64) ? col_mask[k] >> (k + 1) : 0;
      for (std::uint64_t m = below_after; m != 0; m &= m - 1) {
        eliminate_row(k + 1 + static_cast<std::size_t>(__builtin_ctzll(m)));
      }
    } else {
      for (std::size_t i = k + 1; i < t; ++i) eliminate_row(i);
    }
  }

  // ---- Adjoint solve (I - Q)^T x = e_0. With P A = L U this is
  // U^T y = e_0 (forward), L^T z = y (backward), x = P^{-1} z.
  //
  // The forward pass is written right-looking: once scr[j] is final, its
  // contribution is pushed into every later element by walking row j of the
  // LU buffer contiguously, instead of each element pulling its terms down
  // a strided column. Element i still accumulates the same terms in the
  // same ascending-j order as a left-looking loop would, so the sums are
  // unchanged — only the memory walk differs.
  // Masked-skip exactness for the triangular solves: a clear mask bit means
  // the cell is +-0.0 in every lane (assembly sets bits by value; the
  // elimination's zero paths only ever store signed zeros into clear-bit
  // cells), so a skipped term is (+-0) * finite = +-0. Subtracting +-0 from
  // an accumulator changes nothing unless the accumulator is exactly -0.0
  // (-0 - -0 = +0). Accumulators that start at a non-negative value and
  // evolve by subtraction can never reach -0.0 (round-to-nearest gives +0
  // on exact cancellation), so those walks skip unconditionally. The
  // adjoint backward accumulator starts at a *divided* value, which can be
  // -0.0 if some pivot is negative — that pass checks every diagonal's sign
  // bit first and falls back to the dense walk in that (never-in-practice)
  // case. Singular lanes can diverge under a skip (scalar would propagate
  // inf/NaN through the skipped product); their outputs are zeroed anyway.
  bool diag_nonneg = use_masks;
  for (std::size_t i = 0; i < t && diag_nonneg; ++i) {
    const std::size_t ii = (i * t + i) * W;
    for (std::size_t l = 0; l < W; ++l) {
      diag_nonneg &= !std::signbit(lu[ii + l]);
    }
  }

  for (std::size_t i = 0; i < t; ++i) {
    const double bi = (i == 0) ? 1.0 : 0.0;
    for (std::size_t l = 0; l < W; ++l) scr[i * W + l] = bi;
  }
  for (std::size_t j = 0; j < t; ++j) {
    const std::size_t jj = (j * t + j) * W;
    for (std::size_t l = 0; l < W; ++l) {
      scr[j * W + l] = scr[j * W + l] / lu[jj + l];
    }
    const auto push = [&](std::size_t i) {
      const std::size_t ji = (j * t + i) * W;
      for (std::size_t l = 0; l < W; ++l) {
        scr[i * W + l] -= lu[ji + l] * scr[j * W + l];
      }
    };
    // Each push targets a distinct accumulator, so walking only the set
    // bits preserves every element's term order.
    if (use_masks) {
      const std::uint64_t upper = (j + 1 < 64) ? row_mask[j] >> (j + 1) : 0;
      for (std::uint64_t m = upper; m != 0; m &= m - 1) {
        push(j + 1 + static_cast<std::size_t>(__builtin_ctzll(m)));
      }
    } else {
      for (std::size_t i = j + 1; i < t; ++i) push(i);
    }
  }
  // The backward pass must keep its descending-i, ascending-j order (a
  // right-looking form would reverse each element's summation order and
  // change the rounding). The set-bit walk is ascending-j, so it keeps that
  // order while skipping the strided +-0 loads that dominate this pass.
  for (std::size_t i2 = t; i2-- > 0;) {
    double acc[W];
    for (std::size_t l = 0; l < W; ++l) acc[l] = scr[i2 * W + l];
    const auto pull = [&](std::size_t j) {
      const std::size_t ji = (j * t + i2) * W;
      for (std::size_t l = 0; l < W; ++l) {
        acc[l] -= lu[ji + l] * scr[j * W + l];
      }
    };
    if (diag_nonneg) {
      const std::uint64_t below =
          (i2 + 1 < 64) ? col_mask[i2] >> (i2 + 1) : 0;
      for (std::uint64_t m = below; m != 0; m &= m - 1) {
        pull(i2 + 1 + static_cast<std::size_t>(__builtin_ctzll(m)));
      }
    } else {
      for (std::size_t j = i2 + 1; j < t; ++j) pull(j);
    }
    for (std::size_t l = 0; l < W; ++l) scr[i2 * W + l] = acc[l];
  }
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t l = 0; l < W; ++l) {
      row0[perm[i * W + l] * W + l] = scr[i * W + l];
    }
  }

  // ---- Row-0 reductions, one loop each (E[time] = row0 . residence,
  // E[steps] = sum(row0), b0 = row0 R) in ascending state order.
  double acc[W];
  for (std::size_t l = 0; l < W; ++l) acc[l] = 0.0;
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t l = 0; l < W; ++l) {
      acc[l] += row0[i * W + l] * res[i * W + l];
    }
  }
  for (std::size_t l = 0; l < W; ++l) ws.expected_time[l] = acc[l];

  for (std::size_t l = 0; l < W; ++l) acc[l] = 0.0;
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t l = 0; l < W; ++l) acc[l] += row0[i * W + l];
  }
  for (std::size_t l = 0; l < W; ++l) ws.expected_steps[l] = acc[l];

  for (std::size_t e = 0; e < a * W; ++e) b0[e] = 0.0;
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t k = 0; k < a; ++k) {
      const std::size_t rik = (i * a + k) * W;
      const std::size_t bk = k * W;
      // Select replicates an `if (x == 0.0) continue;` skip.
      for (std::size_t l = 0; l < W; ++l) {
        const double x = row0[i * W + l];
        const double upd = b0[bk + l] + x * r[rik + l];
        b0[bk + l] = (x == 0.0) ? b0[bk + l] : upd;
      }
    }
  }

  if (!with_second_moment) return;

  // ---- E[T^2]: forward/backward solve of (I - Q) t = residence, qt = Q t,
  // the rhs r.^2 + 2 r .* qt, and its dot with row 0 of N (with T_i the
  // time from state i, E[T_i^2] = r_i^2 + 2 r_i (Q t)_i + (Q s)_i, so
  // s = N rhs and E[T_0^2] = row0 . rhs).
  // Both accumulators start from non-negative values (a residence time, a
  // forward-substitution result seeded from one) and evolve by subtraction,
  // so the masked set-bit walks skip only exact +-0 terms — see the
  // exactness note above the adjoint solve. Ascending-j bit order matches
  // the left-looking term order.
  for (std::size_t i = 0; i < t; ++i) {
    double facc[W];
    for (std::size_t l = 0; l < W; ++l) {
      facc[l] = res[perm[i * W + l] * W + l];
    }
    const auto fpull = [&](std::size_t j) {
      const std::size_t ij = (i * t + j) * W;
      for (std::size_t l = 0; l < W; ++l) {
        facc[l] -= lu[ij + l] * tv[j * W + l];
      }
    };
    if (use_masks) {
      const std::uint64_t lower =
          row_mask[i] & ((std::uint64_t{1} << i) - 1);
      for (std::uint64_t m = lower; m != 0; m &= m - 1) {
        fpull(static_cast<std::size_t>(__builtin_ctzll(m)));
      }
    } else {
      for (std::size_t j = 0; j < i; ++j) fpull(j);
    }
    for (std::size_t l = 0; l < W; ++l) tv[i * W + l] = facc[l];
  }
  for (std::size_t i2 = t; i2-- > 0;) {
    double bacc[W];
    for (std::size_t l = 0; l < W; ++l) bacc[l] = tv[i2 * W + l];
    const auto bpull = [&](std::size_t j) {
      const std::size_t ij = (i2 * t + j) * W;
      for (std::size_t l = 0; l < W; ++l) {
        bacc[l] -= lu[ij + l] * tv[j * W + l];
      }
    };
    if (use_masks) {
      const std::uint64_t upper =
          (i2 + 1 < 64) ? row_mask[i2] >> (i2 + 1) : 0;
      for (std::uint64_t m = upper; m != 0; m &= m - 1) {
        bpull(i2 + 1 + static_cast<std::size_t>(__builtin_ctzll(m)));
      }
    } else {
      for (std::size_t j = i2 + 1; j < t; ++j) bpull(j);
    }
    const std::size_t ii = (i2 * t + i2) * W;
    for (std::size_t l = 0; l < W; ++l) {
      tv[i2 * W + l] = bacc[l] / lu[ii + l];
    }
  }

  // qt = Q t: cells off the pre-elimination pattern are exactly +0.0 in
  // every lane, and an accumulator growing from +0 by addition can never be
  // -0.0, so adding their (+-0) products is a no-op — skipping them is
  // exact.
  for (std::size_t i = 0; i < t; ++i) {
    double qacc[W];
    for (std::size_t l = 0; l < W; ++l) qacc[l] = 0.0;
    const auto qpull = [&](std::size_t j) {
      const std::size_t ij = (i * t + j) * W;
      for (std::size_t l = 0; l < W; ++l) {
        qacc[l] += q[ij + l] * tv[j * W + l];
      }
    };
    if (use_masks) {
      for (std::uint64_t m = q_row_mask[i]; m != 0; m &= m - 1) {
        qpull(static_cast<std::size_t>(__builtin_ctzll(m)));
      }
    } else {
      for (std::size_t j = 0; j < t; ++j) qpull(j);
    }
    for (std::size_t l = 0; l < W; ++l) qt[i * W + l] = qacc[l];
  }

  for (std::size_t i = 0; i < t; ++i) {
    const std::size_t iw = i * W;
    for (std::size_t l = 0; l < W; ++l) {
      rhs[iw + l] =
          res[iw + l] * res[iw + l] + 2.0 * res[iw + l] * qt[iw + l];
    }
  }

  for (std::size_t l = 0; l < W; ++l) acc[l] = 0.0;
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t l = 0; l < W; ++l) {
      acc[l] += row0[i * W + l] * rhs[i * W + l];
    }
  }
  for (std::size_t l = 0; l < W; ++l) ws.second_moment[l] = acc[l];
}

}  // namespace kernel_detail
}  // namespace clrearly::markov
