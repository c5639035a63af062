#pragma once

/// \file block_lane_sim.hpp
/// 512-lane fault simulator where every lane carries its own (stimulus,
/// fault) pair: one eval() advances up to kBlockLanes independent faulty
/// machines through a combinational cycle.
///
/// This complements DiffSim, which propagates only the differences of its
/// faults against shared good values.  Diagnosis simulates its candidate
/// devices here, and the oracles use it as the full-sweep reference; with
/// no fault injected it is the plain 512-pattern simulator.
///
/// The sweep itself is the shared SIMD-dispatched Block kernel; faulty
/// gates are handled through the sweep's patch callback — a gate whose
/// force flag is set gets re-evaluated with its forced pins (gather +
/// patch, the rare slow path) and/or its output masked to the stuck
/// value, right after its plain store and before any consumer reads it.
///
/// Faults are injected either as original-graph Fault sites (inject) or
/// as compacted-graph MappedFault site lists (inject_mapped); a mapped
/// fault's sites all force the same stuck value in the same lane.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "vcomp/fault/compact_model.hpp"
#include "vcomp/fault/fault.hpp"
#include "vcomp/sim/block.hpp"
#include "vcomp/sim/simd_dispatch.hpp"
#include "vcomp/sim/word_sim.hpp"

namespace vcomp::fault {

class BlockLaneSim {
 public:
  /// Shares a pre-compiled evaluation graph.  \p mode selects the sweep
  /// implementation (Auto = the process-wide active_simd()).
  explicit BlockLaneSim(sim::EvalGraph::Ref graph,
                        sim::SimdMode mode = sim::SimdMode::Auto);

  const netlist::Netlist& netlist() const { return eg_->netlist(); }
  const sim::EvalGraph::Ref& graph() const { return eg_; }
  sim::SimdMode simd() const { return mode_; }

  /// Removes all lanes, stimuli and injected faults.
  void clear();

  /// Opens a new lane (at most kBlockLanes per batch); returns its index.
  int add_lane();
  int num_lanes() const { return lanes_; }

  /// Broadcasts one primary-input bit to every lane.
  void set_pi_all(std::size_t input_index, bool v);

  /// Whole-Block write of one primary input across all lanes.
  void set_pi_block(std::size_t input_index, const sim::Block& b);

  /// Per-lane stimulus bit of one state element.
  void set_state(int lane, std::size_t dff_index, bool v);

  /// Raw word write of one state bit across lanes 64k .. 64k+63 (bit b of
  /// \p w = lane 64k+b): callers marshalling 64-lane words tile eight of
  /// them per state element without bit transposes.
  void set_state_word(std::size_t dff_index, std::size_t k, sim::Word w);

  /// Whole-Block write of one state bit across all lanes.
  void set_state_block(std::size_t dff_index, const sim::Block& b);

  /// Injects a stuck-at fault into one lane.
  void inject(int lane, const Fault& f);

  /// Injects all sites of a compacted-graph fault into one lane.
  void inject_mapped(int lane, const MappedFault& mf);

  /// Evaluates the combinational core for all lanes.
  void eval();

  /// Readouts (valid after eval()); bit layout matches Block lanes.
  const sim::Block& output_block(std::size_t po_index) const;
  /// Captured next-state of one flip-flop, including data-pin forces.
  sim::Block next_state_block(std::size_t dff_index) const;
  const sim::Block& value_block(netlist::GateId g) const {
    return values_[g];
  }

 private:
  struct PinForce {
    std::uint16_t pin;
    sim::Block mask0 = sim::Block::zero();  // lanes forcing this pin to 0
    sim::Block mask1 = sim::Block::zero();  // lanes forcing this pin to 1
  };
  struct StemForce {
    sim::Block mask0 = sim::Block::zero();
    sim::Block mask1 = sim::Block::zero();
  };

  static constexpr std::uint8_t kHasPinForce = 1;
  static constexpr std::uint8_t kHasStemForce = 2;

  void add_stem_force(netlist::GateId g, int lane, bool stuck);
  void add_pin_force(netlist::GateId g, std::uint16_t pin, int lane,
                     bool stuck);
  /// Patch hook: re-applies gate \p g's forces right after its store.
  void patch_gate(netlist::GateId g);

  sim::EvalGraph::Ref eg_;
  sim::SimdMode mode_;
  sim::BlockSweepFn sweep_;
  int lanes_ = 0;
  std::vector<sim::Block> values_;
  std::unordered_map<netlist::GateId, StemForce> stem_forces_;
  std::unordered_map<netlist::GateId, std::vector<PinForce>> pin_forces_;
  /// Per-gate force presence; doubles as the sweep's patch array.
  std::vector<std::uint8_t> force_flags_;
  std::vector<sim::Block> gather_;
};

}  // namespace vcomp::fault
