// Baseline DSE flows the paper compares against (Fig. 7 / TABLE V):
// single-layer optimizations (DVFS-only, HWRel-only, SSWRel-only,
// ASWRel-only) and the "other-layer-agnostic" combination — the Pareto union
// of the four single-layer fronts.
#pragma once

#include <string>
#include <vector>

#include "core/dse.hpp"

namespace clrearly::core {

/// Which single decision axis a baseline explores.
enum class SingleLayer { kDvfs, kHwRel, kSswRel, kAswRel };

std::string to_string(SingleLayer layer);
reliability::ClrAxes axes_for(SingleLayer layer);

/// GA over the fcCLR encoding with every CLR axis except `layer` pinned to
/// its no-op entry (task mapping and implementation choice stay free — the
/// baseline still maps tasks, it just cannot cross layers).
DseOutcome run_single_layer(const DseMethodology& dse,
                            const DseOptions& options, SingleLayer layer);

/// All four single-layer runs plus their Pareto-filtered union.
struct AgnosticOutcome {
  std::vector<SingleLayer> layers;                  ///< run order
  std::vector<DseOutcome> per_layer;                ///< parallel to layers
  std::vector<moea::Objectives> combined_front;     ///< dominant union points
  std::size_t evaluations = 0;                      ///< total across layers
};

AgnosticOutcome run_agnostic(const DseMethodology& dse,
                             const DseOptions& options);

}  // namespace clrearly::core
