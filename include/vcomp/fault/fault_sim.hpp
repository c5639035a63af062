#pragma once

/// \file fault_sim.hpp
/// Event-driven, 64-lane fault simulator.
///
/// The simulator keeps a fault-free ("good") value word per gate and, for
/// each query, propagates only the *difference* words through the fanout
/// cone using a levelized event queue — the same engineering idea as HOPE,
/// which the paper used.  Every call fills all 64 lanes, in one of two
/// layouts:
///
///  * pattern lanes — simulate() / simulate_mapped(): one fault in every
///    lane, lane k under stimulus k (bit k of every good word);
///  * fault lanes — simulate_lanes(): fault k in lane k, lane k under
///    stimulus k.  With a broadcast stimulus (every good word all-0 or
///    all-1) this is 64 faults against one vector in one pass over the
///    union of their cones.  A lane may also flip flip-flop cells, which
///    makes it a hidden fault's faulty machine.
///
/// Both layouts run one core: each fault site becomes a lane-masked force
/// (stem, combinational pin or flip-flop data pin), a forced gate is
/// scheduled like any other event and re-evaluated with its forces, and a
/// lane whose site is not activated seeds nothing.  Pattern lanes are the
/// case where every force covers every lane.  A flipped cell is a stem
/// force at the complement of the good cell; a later force on a line
/// replaces an earlier one in its lanes, and faults come after flips.
///
/// The effect is reported as:
///  * po_any — lanes where any primary output differs;
///  * ppo_diffs — sparse (flip-flop index, diff word) pairs for state
///    elements whose captured next-state differs, one entry per flip-flop.
///
/// Callers decide what "detected" means: full-scan observes everything,
/// while the stitching flow only observes POs plus the shifted-out window.
///
/// Structure (levels, observation points, DFF feeder lists, CSR fanin /
/// fanout) comes from the shared EvalGraph; per-instance state is only the
/// mutable delta/queue scratch and the pass's force list, so per-shard
/// clones are cheap.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "vcomp/fault/compact_model.hpp"
#include "vcomp/fault/fault.hpp"
#include "vcomp/sim/word_sim.hpp"

namespace vcomp::fault {

class DiffSim {
 public:
  /// Shares a pre-compiled evaluation graph (the cheap constructor).
  explicit DiffSim(sim::EvalGraph::Ref graph);
  /// Convenience: compiles a private graph for \p nl.
  explicit DiffSim(const netlist::Netlist& nl);

  const sim::EvalGraph::Ref& graph() const { return good_.graph(); }

  /// The embedded good-circuit simulator; set stimuli through it.
  sim::WordSim& good() { return good_; }
  const sim::WordSim& good_sim() const { return good_; }

  /// Evaluates the good circuit for the current stimulus.  Must be called
  /// after changing stimuli and before simulate().
  void commit_good();

  /// One state element whose captured value differs under the fault.
  struct PpoDiff {
    std::uint32_t dff_index;  ///< index into netlist.dffs()
    sim::Word diff;           ///< lanes where the captured bit differs
  };

  /// Difference summary of one pass (valid until the next simulate call).
  struct Effect {
    sim::Word po_any = 0;
    std::span<const PpoDiff> ppo_diffs;

    /// Lanes where the fault is detectable under full observation.
    sim::Word any() const {
      sim::Word w = po_any;
      for (const auto& d : ppo_diffs) w |= d.diff;
      return w;
    }
  };

  /// Most faults one fault-lane pass carries.
  static constexpr std::size_t kLanes = 64;

  /// Pattern lanes: simulates \p f in every lane against the committed
  /// good values.
  Effect simulate(const Fault& f);

  /// Pattern lanes for a compacted-graph fault (possibly multi-site, see
  /// compact_model.hpp).  The graph this engine runs on must be the one
  /// the MappedFault was built for.
  Effect simulate_mapped(const MappedFault& mf);

  /// Fault lanes: lane k carries \p faults[k] (at most kLanes; lanes past
  /// the end carry no fault and report no difference).  Counts one
  /// diffsim.simulations per fault.
  Effect simulate_lanes(std::span<const Fault> faults);
  /// A flip-flop cell holding the complement of its good value in a lane.
  struct FlippedCell {
    std::uint32_t dff_index;  ///< index into netlist.dffs()
    std::uint32_t lane;
  };
  /// Fault lanes for compacted-graph faults: lane k carries *faults[k],
  /// and the cells in \p flipped are inverted in their lanes.  A fault
  /// forcing a flipped flip-flop's output stem wins in its lane.
  Effect simulate_lanes(std::span<const MappedFault* const> faults,
                        std::span<const FlippedCell> flipped = {});

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  /// The lane-masked forces on one gate: lanes in a mask read the matching
  /// bits of its value (a subset of the mask), on the gate's output (stem)
  /// or on one of its input pins.
  struct GateForce {
    netlist::GateId gate = netlist::kNoGate;
    sim::Word stem_mask = 0;
    sim::Word stem_value = 0;
    std::uint32_t first_pin = kNone;  ///< head of its pin-force list
  };
  struct PinForce {
    std::uint32_t pin = 0;
    std::uint32_t next = kNone;  ///< next pin force on the same gate
    sim::Word mask = 0;
    sim::Word value = 0;
  };

  /// Forces the lanes of \p mask of a stem (\p pin < 0) or an input pin
  /// to the matching bits of \p value, replacing earlier forces there.
  void add_force(netlist::GateId g, std::int16_t pin, sim::Word mask,
                 sim::Word value);
  void add_fault(const Fault& f, sim::Word mask);
  void add_fault(const MappedFault& mf, sim::Word mask);
  /// Runs one pass over the forces added since the last one: seeds every
  /// forced gate, propagates, and harvests the observation points.
  /// \p faults feeds the simulations counter.
  Effect run_pass(std::size_t faults);
  void reset_deltas();
  void schedule(netlist::GateId g);
  void set_origin(netlist::GateId g, sim::Word d);
  /// The faulty value of a combinational gate under its forces.
  sim::Word eval_forced(const GateForce& gf) const;
  /// True iff flip-flop \p dff captures a forced data pin in some lane.
  bool dff_pin_forced(std::uint32_t dff) const;

  sim::EvalGraph::Ref eg_;
  sim::WordSim good_;

  std::vector<sim::Word> delta_;        // faulty XOR good, per gate
  std::vector<std::uint8_t> touched_;   // delta_[g] may be nonzero
  std::vector<netlist::GateId> touched_list_;
  std::vector<std::uint8_t> queued_;
  std::vector<std::vector<netlist::GateId>> buckets_;  // by level
  std::uint32_t first_level_ = 0;  // lowest level scheduled while seeding
  // Scheduled-but-unprocessed event count; nonzero outside the propagation
  // loop means a previous simulate() was abandoned mid-flight (it threw),
  // and reset_deltas() must drain the queue before the next propagation.
  std::size_t pending_events_ = 0;

  // The pass's forces, sized by the pass: one GateForce per forced gate
  // (sites several lanes share are merged) and its pin forces.
  // force_slot_ holds, per gate of the graph, the index of its GateForce
  // (kNone for unforced gates).
  std::vector<GateForce> gate_forces_;
  std::vector<PinForce> pin_forces_;
  std::vector<std::uint32_t> force_slot_;

  std::vector<PpoDiff> ppo_out_;
};

/// Per-shard DiffSim instances for data-parallel fault scans: each shard of
/// a util::parallel_for_shards loop drives a private engine, so no locking
/// is needed anywhere.  Engines are constructed lazily (shard 0 on the
/// first serial use, the rest only when the pool actually fans out) and
/// persist across calls to amortize their allocations.  All shards share
/// one immutable EvalGraph — structure is compiled once, not per shard.
class DiffSimShards {
 public:
  /// \p max_shards caps the shard count; 0 means util::parallelism().
  explicit DiffSimShards(sim::EvalGraph::Ref graph, std::size_t max_shards = 0);
  explicit DiffSimShards(const netlist::Netlist& nl,
                         std::size_t max_shards = 0);

  std::size_t max_shards() const { return sims_.size(); }
  const sim::EvalGraph::Ref& graph() const { return eg_; }

  /// The shard's private simulator.  Safe without locks because a shard
  /// index is executed by exactly one task at a time.
  DiffSim& at(std::size_t shard) {
    if (!sims_[shard]) sims_[shard] = std::make_unique<DiffSim>(eg_);
    return *sims_[shard];
  }

 private:
  sim::EvalGraph::Ref eg_;
  std::vector<std::unique_ptr<DiffSim>> sims_;
};

}  // namespace vcomp::fault
