#pragma once

/// \file podem.hpp
/// PODEM test generation with scan-state constraints.
///
/// The generator works on the five-valued D-calculus, represented as a
/// (good, faulty) pair of trits per signal.  Decisions are made only on
/// *assignable* sources: primary inputs plus the free pseudo-primary inputs;
/// PPIs pinned by a PpiConstraints object (the retained scan-chain bits the
/// stitching flow must honour) are preloaded with their fixed values and are
/// never touched by backtrace.
///
/// Engineering: implication is event-driven (assignments propagate through
/// a levelized queue and are undone via a value trail on backtrack), and
/// the D-frontier / detection / X-path scans are restricted to the target
/// fault's output cone — the structures that make PODEM practical on
/// multi-thousand-gate circuits.
///
/// A call pays per cone, not per gate.  The engine keeps a PinFrame
/// (pin_frame.hpp): the good machine under the call's pinned cells with
/// every other source at X, rebuilt only when the pin values differ from
/// the previous call's.  Every target of a stitched cycle
/// (core::StitchEngine, through atpg::Engine and the Race engine) shares
/// one frame, and so does every unconstrained query of baseline ATPG
/// (test_set.cpp) and the virtual-scan baseline.
///
/// Each call first asks the frame whether the pins alone block the fault
/// (PinFrame::proves_untestable).  A proved query returns Untestable with
/// no decision, backtrack or implication, and counts in podem.calls,
/// podem.untestable and podem.constrained_untestable like a searched one,
/// plus atpg.frame_untestable.  The proof is asked only at the root: at a
/// search node it would prune searches that do find cubes, and so change
/// those cubes.  Every other call evaluates the faulty machine over the
/// fault's cone only (off the cone it equals the good one), searches, and
/// on every exit, returned or thrown, undoes its trail and decisions, so
/// each call starts from exactly the state a whole-circuit implication
/// would build and returns the same result.
///
/// A Success result carries a test cube whose unassigned positions are X;
/// five-valued implication guarantees every completion of the cube detects
/// the target fault at some primary output or capture point.  Untestable
/// means the fault is redundant *under the given constraints* (with no
/// constraints: combinationally redundant, like E-F/1 in the paper's
/// example).

#include <cstdint>
#include <optional>
#include <vector>

#include "vcomp/atpg/pin_frame.hpp"
#include "vcomp/fault/fault.hpp"
#include "vcomp/sim/eval_graph.hpp"
#include "vcomp/sim/trit.hpp"
#include "vcomp/tmeas/scoap.hpp"

namespace vcomp::atpg {

/// Partially specified full-scan stimulus.
struct Cube {
  std::vector<sim::Trit> pi;   ///< one per primary input
  std::vector<sim::Trit> ppi;  ///< one per state element (scan cell)
};

enum class PodemStatus : std::uint8_t { Success, Untestable, Aborted };

struct PodemOptions {
  std::uint32_t max_backtracks = 512;
};

struct PodemResult {
  PodemStatus status = PodemStatus::Aborted;
  Cube cube;                   ///< valid when status == Success
  std::uint32_t backtracks = 0;
};

/// Reusable PODEM engine (holds per-netlist scratch state).
class Podem {
 public:
  /// Shares a pre-compiled evaluation graph for implication / cone scans.
  Podem(sim::EvalGraph::Ref graph, const tmeas::Scoap& scoap);
  /// Convenience: compiles a private graph for \p nl.
  Podem(const netlist::Netlist& nl, const tmeas::Scoap& scoap);

  /// Generates a test cube for \p f honouring \p constraints (may be null).
  PodemResult generate(const fault::Fault& f,
                       const PpiConstraints* constraints = nullptr,
                       const PodemOptions& options = {});

 private:
  struct Decision {
    netlist::GateId source;
    sim::Trit value;
    bool flipped;
    std::size_t trail_mark;
  };
  struct TrailEntry {
    netlist::GateId gate;
    sim::Trit good, bad;
  };

  struct FrameRestore;

  void load_frame(const PpiConstraints* constraints);
  void compute_cone(const fault::Fault& f);
  void load_fault(const fault::Fault& f);
  void restore_frame(const fault::Fault& f);
  sim::Trit eval_bad(netlist::GateId u, const fault::Fault& f) const;
  void eval_pair(netlist::GateId u, const fault::Fault& f, sim::Trit& good,
                 sim::Trit& bad);
  void assign_source(netlist::GateId src, sim::Trit v, const fault::Fault& f);
  void undo_to(std::size_t mark);

  bool detected(const fault::Fault& f) const;
  bool activation_impossible(const fault::Fault& f) const;
  bool fault_visible(const fault::Fault& f) const;
  std::optional<std::pair<netlist::GateId, sim::Trit>> objective(
      const fault::Fault& f);
  std::pair<netlist::GateId, sim::Trit> backtrace(netlist::GateId g,
                                                  sim::Trit v) const;
  bool xpath_exists(const fault::Fault& f);

  sim::EvalGraph::Ref eg_;
  const netlist::Netlist* nl_;
  const tmeas::Scoap* scoap_;

  std::vector<sim::Trit> assign_;       // per source gate (X = unassigned)
  std::vector<sim::Trit> good_, bad_;   // per gate
  std::vector<Decision> stack_;
  std::vector<TrailEntry> trail_;

  // Pin frame: between calls assign_ holds exactly the pins, good_ the
  // frame's values and bad_ equals good_.  The frame also owns the
  // observation mask (PO or DFF data-pin driver).
  PinFrame frame_;

  std::vector<netlist::GateId> cone_;       // comb gates in the fault cone
  std::vector<netlist::GateId> cone_obs_;   // observation gates in the cone
  std::vector<std::uint8_t> in_cone_;
  std::vector<netlist::GateId> cone_work_;  // compute_cone's DFS stack
  std::vector<netlist::GateId> cone_levelized_;  // cone_ in level order

  // Levelized propagation queue for incremental implication.
  std::vector<std::vector<netlist::GateId>> buckets_;
  std::vector<std::uint8_t> queued_;

  // Epoch-stamped memo for the X-path check.
  std::vector<std::uint32_t> xpath_seen_;
  std::vector<std::int8_t> xpath_val_;
  std::uint32_t xpath_epoch_ = 0;

  // Implication events (trail pushes) in the current generate() call,
  // reported to the obs registry at return.
  std::uint64_t imply_events_ = 0;

  const PpiConstraints* constraints_ = nullptr;
};

}  // namespace vcomp::atpg
