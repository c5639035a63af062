#pragma once

/// \file observe.hpp
/// The paper's "info ratio" arithmetic for partial shift-out.
///
/// A fault whose response differs from the fault-free response is *caught*
/// in a cycle if the difference is visible in what the ATE reads: the
/// primary outputs plus the s scan-out observations of that cycle
/// (scan::observes_difference in fabric.hpp decides the scan-out part).
/// With direct scan-out those observations are the s tail cells; with
/// horizontal XOR each observation is the XOR of the tapped cells, so a
/// difference can be visible even when it sits deep inside the chain —
/// and, conversely, an even number of aligned differences can cancel.

#include <cstddef>

namespace vcomp::scan {

/// The paper's Table-2 "info" points: per-cycle tester data of the stitched
/// scheme, (PI + s) stimulus and (PO + s) response bits, as a fraction of
/// the full-shift scheme's (PI + L) + (PO + L).  Solving
///     (PI + PO + 2s) = r · (PI + PO + 2L)
/// for s gives the shift size for info point r.  Returns 0 when the point
/// is unattainable (s would be < 1/2), which the paper marks '/' — this
/// reproduces the published shift column for the Table-2 circuits.
std::size_t shift_for_info_ratio(std::size_t num_pi, std::size_t num_po,
                                 std::size_t chain_len, double ratio);

}  // namespace vcomp::scan
