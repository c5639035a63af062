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
/// simulate_regions() answers a whole fault list at once, as HOPE does: a
/// fault's difference can leave its fanout-free region (EvalGraph) only
/// through the region's root, so each fault is carried to its root with
/// the good values alone — its activation lanes ANDed with the sensitization
/// of every gate on the path (the gate evaluated with that pin inverted) —
/// and only the roots are propagated: each reached root once, flipped in
/// the union of its faults' lanes under a pattern stimulus, or one root per
/// lane, 64 per pass, under a broadcast one.  A fault whose lanes die in
/// its region needs no pass; a flip-flop data-pin fault is settled from its
/// captured bit; a mapped fault with several sites keeps a pass of its own
/// (a pattern-lane pass, or fault lanes 64 at a time under a broadcast
/// stimulus).
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
/// fanout, fanout-free regions) comes from the shared EvalGraph;
/// per-instance state is only the mutable delta/queue scratch, the pass's
/// force list and the region call's memo (sized on its first call), so
/// per-shard clones are cheap.

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

  /// A flip-flop cell holding the complement of its good value in a lane.
  struct FlippedCell {
    std::uint32_t dff_index;  ///< index into netlist.dffs()
    std::uint32_t lane;
  };
  /// Fault lanes: lane k carries *faults[k] (at most kLanes; lanes past
  /// the end carry no fault and report no difference), and the cells in
  /// \p flipped are inverted in their lanes.  A fault forcing a flipped
  /// flip-flop's output stem wins in its lane.  Counts one
  /// diffsim.simulations per fault.
  Effect simulate_lanes(std::span<const MappedFault* const> faults,
                        std::span<const FlippedCell> flipped = {});

  /// Region call: calls \p sink(n, effect) once for every fault n of
  /// \p faults with the Effect simulate() (simulate_mapped() for a mapped
  /// fault) would report against the committed good values: the same
  /// words in every lane, though ppo_diffs may list the flip-flops in
  /// another order.  The faults that need no pass come first, then those
  /// of each pass in turn, in list order within a pass; an effect is valid
  /// during its sink call only.  Counts one diffsim.simulations per fault,
  /// diffsim.region_roots per root lane simulated and
  /// diffsim.region_blocked per fault whose difference stops inside its
  /// region.
  template <typename Sink>
  void simulate_regions(std::span<const Fault> faults, Sink&& sink) {
    trace_regions(faults);
    report_regions(faults, sink);
  }
  template <typename Sink>
  void simulate_regions(std::span<const MappedFault* const> faults,
                        Sink&& sink) {
    trace_regions(faults);
    report_regions(faults, sink);
  }
  /// The same over faults \p ids of \p model (n indexes \p ids).
  template <typename Sink>
  void simulate_regions(const CompactModel& model,
                        std::span<const std::uint32_t> ids, Sink&& sink) {
    const ModelFaults faults{&model, ids};
    trace_regions(faults);
    report_regions(faults, sink);
  }

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
  Effect run_pass();

  /// A fault of a region call with an effect: \c lanes of slot \c slot,
  /// or, for a flip-flop data-pin fault, \c lanes on flip-flop
  /// \c slot & ~kCaptured.  Faults without one are marked in answered_
  /// only.
  static constexpr std::uint32_t kCaptured = std::uint32_t{1} << 31;
  struct Answer {
    sim::Word lanes = 0;
    std::uint32_t fault = 0;
    std::uint32_t slot = 0;
  };
  /// A pass's answer for one reached root (slots 0 .. roots_.size()-1,
  /// in the order the trace reached them) or one multi-site fault (the
  /// slots after), with its ppo entries at slot_ppo_[begin, end) while its
  /// wave is out.  \c lanes is the union of the lanes its faults read.
  struct Slot {
    sim::Word po = 0;
    sim::Word lanes = 0;
    std::uint32_t begin = 0, end = 0;
  };
  /// A region call's list of model faults, indexed like a span.
  struct ModelFaults {
    const CompactModel* model;
    std::span<const std::uint32_t> ids;
    std::size_t size() const { return ids.size(); }
    const MappedFault* operator[](std::size_t n) const {
      return &model->mapped(ids[n]);
    }
  };
  /// Traces every fault of \p faults (a span of faults or ModelFaults) to
  /// its region's root and groups the answered faults by slot; the first
  /// wave is the data-pin faults.
  template <typename List>
  void trace_regions(const List& faults);
  /// Reports the faults without an effect, then every wave.
  template <typename List, typename Sink>
  void report_regions(const List& faults, Sink& sink) {
    for (std::size_t n = 0; n < faults.size(); ++n)
      if (answered_[n] == 0) sink(n, Effect{});
    do
      for (std::uint32_t i : wave_) {
        const Answer& a = answers_[i];
        sink(std::size_t{a.fault}, effect_of(a));
      }
    while (next_wave(faults));
  }
  /// Runs the next pass (one root or multi-site fault under a pattern
  /// stimulus, up to 64 under a broadcast one) and makes its faults the
  /// wave; false when every slot is done.
  template <typename List>
  bool next_wave(const List& faults);
  /// An answered fault's effect, read from its slot.
  Effect effect_of(const Answer& a);
  /// Lanes where inverting pin \p pin of gate \p g inverts g's output.
  sim::Word pin_sensitivity(netlist::GateId g, std::uint32_t pin) const;
  /// Lanes where flipping interior gate \p g flips its region's root,
  /// memoized for the call.
  sim::Word path_lanes(netlist::GateId g);
  /// Stores \p eff as slot \p slot (a pattern pass).
  void keep_pass(std::uint32_t slot, const Effect& eff);
  /// Stores lane k of \p eff as slot \p first + k (a broadcast pass),
  /// expanding its bits to whole words.
  void split_lanes(const Effect& eff, std::uint32_t first,
                   std::size_t count);
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

  // Region-call state.  A gate's memo is this call's when its stamp is
  // stamp_: an interior gate's path_lanes(), a reached root's slot.  Sized
  // on the first region call.
  struct Memo {
    std::uint32_t stamp = 0;
    std::uint32_t slot = 0;
    sim::Word lanes = 0;
  };
  std::uint32_t stamp_ = 0;
  std::vector<Memo> memo_;
  std::vector<netlist::GateId> chain_;
  std::vector<std::uint8_t> answered_;  // per fault: has an Answer
  std::vector<Answer> answers_;
  std::vector<Slot> slots_;
  std::vector<netlist::GateId> roots_;  // the root of slot k
  std::vector<std::uint32_t> multi_;    // the fault of slot roots_.size()+k
  // The answers grouped for reporting, as indices into answers_: the
  // data-pin faults, then slot by slot; slot k's answers sit at
  // by_slot_[slot_first_[k], slot_first_[k+1]).
  std::vector<std::uint32_t> by_slot_;
  std::vector<std::uint32_t> slot_first_;
  std::span<const std::uint32_t> wave_;
  std::uint32_t next_slot_ = 0;
  bool broadcast_ = false;
  std::vector<PpoDiff> slot_ppo_;
  std::vector<PpoDiff> masked_;
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
