#pragma once

/// \file ternary_sim.hpp
/// Three-valued (0/1/X) combinational simulation over test cubes.
///
/// Used to reason about partially specified vectors: a cube with X's whose
/// ternary simulation pins an output to 0/1 pins it for *every* completion
/// of the X's (monotonicity).  Its production caller is atpg::Podem, which
/// builds its *pin frame* here: the good machine under one call's pinned
/// scan cells with every other source at X, shared by all targets until
/// the pins change (once per stitched cycle).  The check oracles test it
/// against a naive reference evaluator.
///
/// Evaluation runs over the compiled EvalGraph schedule, reading fanin
/// trits straight out of the CSR index buffer.

#include <span>
#include <vector>

#include "vcomp/sim/eval_graph.hpp"
#include "vcomp/sim/trit.hpp"

namespace vcomp::sim {

/// Ternary combinational simulator; mirrors WordSim's interface.
class TernarySim {
 public:
  /// Shares a pre-compiled evaluation graph (the cheap constructor).
  explicit TernarySim(EvalGraph::Ref graph);
  /// Convenience: compiles a private graph for \p nl.
  explicit TernarySim(const netlist::Netlist& nl);

  const netlist::Netlist& netlist() const { return eg_->netlist(); }
  const EvalGraph::Ref& graph() const { return eg_; }

  /// Sets all sources to X.
  void clear();

  void set_input(std::size_t i, Trit v);
  void set_state(std::size_t i, Trit v);
  void set_source(netlist::GateId g, Trit v);

  /// Full combinational pass.
  void eval();

  Trit value(netlist::GateId g) const { return values_[g]; }
  /// Every gate's value, indexed by GateId.
  std::span<const Trit> values() const { return values_; }
  Trit output(std::size_t i) const;
  Trit next_state(std::size_t i) const;

 private:
  EvalGraph::Ref eg_;
  std::vector<Trit> values_;
};

}  // namespace vcomp::sim
