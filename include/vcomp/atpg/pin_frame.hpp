#pragma once

/// \file pin_frame.hpp
/// The good machine under one query's pinned scan cells, shared by every
/// constrained-ATPG call that sees the same pins.
///
/// A PinFrame is the ternary simulation (sim::TernarySim) of the circuit
/// with the pinned cells at their values and every other source at X.  It
/// is keyed on the pins' content and rebuilt only when they change: once
/// per stitched cycle, since every target of a cycle sees the same retained
/// bits, and once for all of baseline ATPG (the all-X frame).
///
/// The frame also answers one question before either engine searches:
/// proves_untestable(f), a sound proof that the pins alone already block
/// the fault.  It holds in two cases:
///  * the frame fixes the fault source's good value at the stuck value, so
///    the fault can never be activated;
///  * the source is X, and no path from the site through gates the frame
///    leaves at X reaches an observation point (a PO or a DFF data-pin
///    driver).  While the site is X the faulty machine refines the good
///    one, so a gate the frame fixes holds the same value in both machines
///    under every completion of the X sources: a difference can travel only
///    through X gates.
/// An activated site is never proved, and neither, while its source is X,
/// is a DFF data-pin branch (the capture observes the wrong value
/// directly) or an observable PI/PPI stem; those queries go to the
/// engine's own search.

#include <cstdint>
#include <span>
#include <vector>

#include "vcomp/fault/fault.hpp"
#include "vcomp/sim/eval_graph.hpp"
#include "vcomp/sim/ternary_sim.hpp"
#include "vcomp/sim/trit.hpp"

namespace vcomp::atpg {

/// Pin a subset of scan cells to fixed values (Trit::X = free).
struct PpiConstraints {
  std::vector<sim::Trit> fixed;  ///< empty means "all free"

  bool all_free() const { return fixed.empty(); }
  sim::Trit at(std::size_t i) const {
    return fixed.empty() ? sim::Trit::X : fixed[i];
  }
};

/// Pin frame over a shared evaluation graph.  Not thread-safe — one
/// instance per engine, like the engines themselves.
class PinFrame {
 public:
  explicit PinFrame(sim::EvalGraph::Ref graph);

  /// Makes the frame the good machine under \p constraints (null or empty
  /// = nothing pinned).  The size is checked before any state changes, so
  /// a rejected vector leaves the previous frame intact.  Returns true when
  /// the frame was rebuilt, false when the pins equal the previous call's.
  bool load(const PpiConstraints* constraints);

  /// Good value of every gate, indexed by GateId.
  std::span<const sim::Trit> values() const { return sim_.values(); }
  /// True when gate \p g drives a primary output or a DFF data pin.
  bool is_obs(netlist::GateId g) const { return is_obs_[g] != 0; }

  /// True only when no completion of the frame's X sources detects \p f
  /// (see the file comment).  False claims nothing.
  bool proves_untestable(const fault::Fault& f);

 private:
  sim::EvalGraph::Ref eg_;
  sim::TernarySim sim_;
  std::vector<sim::Trit> pins_;  // content key
  bool valid_ = false;           // false until the first build completes
  std::vector<std::uint8_t> is_obs_;

  // X-path search scratch: epoch-stamped visited marks and a DFS stack.
  std::vector<std::uint32_t> seen_;
  std::uint32_t epoch_ = 0;
  std::vector<netlist::GateId> stack_;
};

}  // namespace vcomp::atpg
