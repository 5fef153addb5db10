#include "oracle/clr_chain_reference.hpp"

#include <string>
#include <vector>

#include "oracle/chain_builder.hpp"

namespace clrearly::oracle {

AbsorbingChain build_chain_reference(const reliability::ClrChainParams& p,
                                     bool functional) {
  p.validate();
  ChainBuilder b;

  const std::size_t n = p.intervals;

  const StateId error = functional ? b.absorbing("Error") : StateId{};
  const StateId done = b.absorbing(functional ? "noError" : "End");

  // Create the per-interval state blocks first so "next interval" targets
  // exist when wiring edges.
  std::vector<StateId> exec(n), hw(n), ssw_impl(n), ssw_det(n),
      ssw_tol(n), asw(n), chk(n > 1 ? n - 1 : 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string suffix = "_" + std::to_string(i);
    exec[i] = b.transient("Exec" + suffix,
                          p.interval_time(i) + p.detection_time_us);
    hw[i] = b.transient("HWRel" + suffix, 0.0);
    ssw_impl[i] = b.transient("SSWImpl" + suffix, 0.0);
    ssw_det[i] = b.transient("SSWDet" + suffix, 0.0);
    ssw_tol[i] = b.transient("SSWTol" + suffix, p.tolerance_time_us);
    asw[i] = b.transient("ASWRel" + suffix, 0.0);
    if (i + 1 < n) {
      chk[i] = b.transient("Chkpnt" + suffix, p.checkpoint_time_us);
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    // Clean completion of interval i proceeds to the next checkpoint, or to
    // final absorption after the last interval.
    const StateId next = (i + 1 < n) ? chk[i] : done;
    const double pne = p.pne_for_interval(i);

    b.edge(exec[i], next, pne);
    b.edge(exec[i], hw[i], 1.0 - pne);

    b.edge(hw[i], next, p.hw_masking);
    b.edge(hw[i], ssw_impl[i], 1.0 - p.hw_masking);

    b.edge(ssw_impl[i], next, p.implicit_ssw_masking);
    b.edge(ssw_impl[i], ssw_det[i], 1.0 - p.implicit_ssw_masking);

    b.edge(ssw_det[i], ssw_tol[i], p.detection_coverage);
    b.edge(ssw_det[i], asw[i], 1.0 - p.detection_coverage);

    // Successful tolerance rolls back to the start of the current interval;
    // failed tolerance leaves the error for the ASW layer.
    b.edge(ssw_tol[i], exec[i], p.tolerance_success);
    b.edge(ssw_tol[i], asw[i], 1.0 - p.tolerance_success);

    if (functional) {
      b.edge(asw[i], next, p.asw_masking);
      b.edge(asw[i], error, 1.0 - p.asw_masking);
    } else {
      // Timing: the result's correctness does not change when it is ready.
      b.edge(asw[i], next, 1.0);
    }

    if (i + 1 < n) {
      if (functional && p.checkpoint_error_prob > 0.0) {
        b.edge(chk[i], error, p.checkpoint_error_prob);
        b.edge(chk[i], exec[i + 1], 1.0 - p.checkpoint_error_prob);
      } else {
        b.edge(chk[i], exec[i + 1], 1.0);
      }
    }
  }
  return b.build();
}

}  // namespace clrearly::oracle
