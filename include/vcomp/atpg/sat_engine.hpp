#pragma once

/// \file sat_engine.hpp
/// SAT-backed constrained-ATPG engine: CnfEncoder + CdclSolver.
///
/// Each generate() call first asks its PinFrame (pin_frame.hpp) whether
/// the pinned cells alone block the fault.  A proved query returns
/// Untestable with sat_calls = 1 and no conflict, without building a CNF,
/// and counts in atpg.sat_calls, atpg.sat_untestable and
/// atpg.frame_untestable.  Every other call encodes the fault's output
/// cone (cnf.hpp) and solves it (sat.hpp), unchanged:
///  * Sat     -> Success, with a cube read off the model's support
///               sources (everything outside the support stays X — by
///               construction it cannot affect any observation point, so
///               every completion of the cube still detects the fault);
///  * Unsat   -> Untestable (a proof, exactly like PODEM's exhausted
///               decision tree);
///  * Unknown -> Aborted (conflict budget exhausted, claims nothing).
///
/// Pinned scan cells appear in the returned cube with their pinned values
/// even when they lie outside the support, matching PODEM's cube shape so
/// downstream fill/stitching treats both engines identically.

#include "vcomp/atpg/engine.hpp"
#include "vcomp/atpg/pin_frame.hpp"
#include "vcomp/atpg/sat.hpp"

namespace vcomp::atpg {

/// CNF + CDCL backend behind the Engine interface.  Reusable across calls;
/// not thread-safe — one instance per thread.
class SatEngine final : public Engine {
 public:
  SatEngine(sim::EvalGraph::Ref graph, const SatOptions& options = {});

  GenResult generate(const fault::Fault& f,
                     const PpiConstraints* constraints) override;
  std::string_view name() const override { return "sat"; }

  /// Decision literals and stats of the last solve that ran (a query the
  /// frame proves runs none; determinism test).
  const std::vector<SatLit>& last_decisions() const {
    return solver_.decision_log();
  }
  const CdclSolver::Stats& last_stats() const { return solver_.stats(); }

 private:
  sim::EvalGraph::Ref eg_;
  const netlist::Netlist* nl_;
  SatOptions opts_;
  PinFrame frame_;
  CnfEncoder encoder_;
  CdclSolver solver_;
  Cnf cnf_;
};

}  // namespace vcomp::atpg
