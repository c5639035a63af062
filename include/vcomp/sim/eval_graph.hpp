#pragma once

/// \file eval_graph.hpp
/// Immutable compiled form of a finalized netlist — the shared evaluation
/// core under every simulator.
///
/// A Netlist is a pointer-chasing builder structure (one std::vector of
/// fanins per gate, metadata scattered across Gate objects).  Every
/// experiment in the stitching flow reduces to millions of combinational
/// evaluation passes over that graph — PODEM implication, 64-way
/// pattern-parallel fault dropping, per-cycle candidate scoring — so the
/// traversal structure is compiled once, here, into flat arrays:
///
///  * CSR fanin / fanout: one contiguous GateId buffer plus an offsets
///    array each, no per-gate heap allocation, cache-linear iteration;
///  * a level-partitioned gate schedule (all combinational gates in
///    topological order with per-level offsets) driving both full sweeps
///    and levelized event propagation;
///  * shared per-gate metadata computed once and reused by every engine:
///    gate type, combinational level, is-primary-output flag, DFF index of
///    DFF gates, and the CSR list of flip-flops each signal feeds;
///  * fanout-free regions: each gate's one reader pin when it is interior
///    to a region, and the region's root (see region_root()).
///
/// An EvalGraph is immutable after construction and therefore freely
/// shared: StitchEngine compiles one per circuit and hands the same Ref to
/// SCOAP, PODEM, the tracker and its scoring simulator, instead of each of
/// them re-deriving private copies of the same structure.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "vcomp/netlist/netlist.hpp"

namespace vcomp::sim {

class EvalGraph {
 public:
  /// Shared handle; the graph is immutable, so aliasing is always safe.
  using Ref = std::shared_ptr<const EvalGraph>;

  /// Compiles \p nl (must be finalized and must outlive the graph).
  static Ref compile(const netlist::Netlist& nl);

  explicit EvalGraph(const netlist::Netlist& nl);

  const netlist::Netlist& netlist() const { return *nl_; }

  /// \name Per-gate metadata
  /// @{
  std::size_t num_gates() const { return type_.size(); }
  netlist::GateType type(netlist::GateId g) const { return type_[g]; }
  std::uint32_t level(netlist::GateId g) const { return level_[g]; }
  bool is_po(netlist::GateId g) const { return is_po_[g] != 0; }

  /// Index into dffs() when \p g is a Dff gate; kNotDff otherwise.
  static constexpr std::uint32_t kNotDff = ~std::uint32_t{0};
  std::uint32_t dff_index_of(netlist::GateId g) const {
    return dff_index_of_[g];
  }

  /// Flip-flop indices whose data input is driven by signal \p g (CSR).
  std::span<const std::uint32_t> feeds_dff(netlist::GateId g) const {
    return {feeds_dff_ids_.data() + feeds_dff_off_[g],
            feeds_dff_off_[g + 1] - feeds_dff_off_[g]};
  }
  /// @}

  /// \name CSR connectivity
  /// @{
  std::span<const netlist::GateId> fanin(netlist::GateId g) const {
    return {fanin_ids_.data() + fanin_off_[g],
            fanin_off_[g + 1] - fanin_off_[g]};
  }
  std::span<const netlist::GateId> fanout(netlist::GateId g) const {
    return {fanout_ids_.data() + fanout_off_[g],
            fanout_off_[g + 1] - fanout_off_[g]};
  }

  /// Raw CSR arrays for the hottest kernels (offsets have num_gates()+1
  /// entries; ids[offsets[g] .. offsets[g+1]) are gate g's fanins).
  const std::uint32_t* fanin_offsets() const { return fanin_off_.data(); }
  const netlist::GateId* fanin_ids() const { return fanin_ids_.data(); }
  /// @}

  /// \name Fanout-free regions
  /// A gate is *interior* when exactly one gate pin reads it (a gate read
  /// on two pins of one gate has two readers), it is not a primary output,
  /// and that pin is not a flip-flop's data pin.  A difference on an
  /// interior gate can leave it only through that pin, so it reaches the
  /// rest of the circuit only through the gate's region root: the first
  /// non-interior gate down the chain of readers.  A non-interior gate is
  /// its own root.  Sources (Input, Dff) are classified like any gate.
  /// @{
  bool interior(netlist::GateId g) const {
    return regions_[g].reader != netlist::kNoGate;
  }
  netlist::GateId region_root(netlist::GateId g) const {
    return regions_[g].root;
  }
  /// The gate reading interior gate \p g (kNoGate for a root).
  netlist::GateId region_reader(netlist::GateId g) const {
    return regions_[g].reader;
  }
  /// The pin of region_reader(g) that reads \p g (interior gates only).
  std::uint32_t region_pin(netlist::GateId g) const {
    return regions_[g].pin;
  }
  /// @}

  /// \name Level-partitioned schedule
  /// @{

  /// All combinational gates in dependency order, partitioned by level:
  /// schedule()[level_offset(l) .. level_offset(l+1)) holds the gates of
  /// level l.  Sources (Input/Dff, level 0) never appear.
  std::span<const netlist::GateId> schedule() const { return schedule_; }

  /// Number of level partitions (netlist depth + 1; partition 0 is empty).
  std::uint32_t num_levels() const {
    return static_cast<std::uint32_t>(level_off_.size() - 1);
  }
  std::uint32_t level_offset(std::uint32_t lvl) const {
    return level_off_[lvl];
  }
  std::span<const netlist::GateId> level_gates(std::uint32_t lvl) const {
    return {schedule_.data() + level_off_[lvl],
            level_off_[lvl + 1] - level_off_[lvl]};
  }
  /// @}

  /// \name Interface shorthands (forwarded from the netlist)
  /// @{
  std::span<const netlist::GateId> inputs() const { return nl_->inputs(); }
  std::span<const netlist::GateId> dffs() const { return nl_->dffs(); }
  std::span<const netlist::GateId> outputs() const { return nl_->outputs(); }
  std::size_t num_inputs() const { return nl_->num_inputs(); }
  std::size_t num_dffs() const { return nl_->num_dffs(); }
  std::size_t num_outputs() const { return nl_->num_outputs(); }
  std::uint32_t depth() const { return nl_->depth(); }

  /// Signal captured by the i-th flip-flop (its data-input driver).
  netlist::GateId dff_input(std::size_t i) const { return dff_input_[i]; }
  /// @}

 private:
  const netlist::Netlist* nl_;

  std::vector<netlist::GateType> type_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint8_t> is_po_;
  std::vector<std::uint32_t> dff_index_of_;

  std::vector<std::uint32_t> fanin_off_;
  std::vector<netlist::GateId> fanin_ids_;
  std::vector<std::uint32_t> fanout_off_;
  std::vector<netlist::GateId> fanout_ids_;

  std::vector<std::uint32_t> feeds_dff_off_;
  std::vector<std::uint32_t> feeds_dff_ids_;

  std::vector<netlist::GateId> schedule_;
  std::vector<std::uint32_t> level_off_;

  std::vector<netlist::GateId> dff_input_;

  // One record per gate: a trace reads all three fields together.
  struct Region {
    netlist::GateId reader = netlist::kNoGate;
    std::uint32_t pin = 0;
    netlist::GateId root = netlist::kNoGate;
  };
  std::vector<Region> regions_;
};

}  // namespace vcomp::sim
