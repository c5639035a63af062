#pragma once

/// \file tracker.hpp
/// Cycle-accurate fault-set tracking for stitched test application.
///
/// StitchTracker owns the fault-free scan fabric (N parallel chains; one
/// chain is the degenerate case) and the fault sets, which hold every
/// hidden fault as its difference from that fabric (fault_sets.hpp), and
/// advances them through applied test vectors:
///
///   apply_first(v)           — full load of vector 1, apply, classify;
///   apply_stitched(v, plan)  — shift plan[c] bits into chain c (a hidden
///                              fault whose difference the ATE observes,
///                              by scan::observes_difference, is caught
///                              here; the others slide their difference),
///                              apply, classify the uncaught faults, and
///                              advance every surviving hidden fault
///                              through its privately mutated vector T_f;
///   terminal_observe(plan)   — observe plan[c] shift-out cycles of every
///                              chain once, catching hidden faults whose
///                              difference is visible (the same rule).
///
/// Scalar overloads take a master shift size s and apportion it over the
/// chains with Fabric::plan_for; with one chain they are exactly the
/// single-chain API (byte-identical results — the degeneracy contract).
///
/// The StitchEngine drives it with ATPG-generated vectors; tests and the
/// quickstart example drive it with the paper's scripted vectors to
/// reproduce Table 1 event by event.
///
/// Classify (the uncaught list) and advance (the hidden faults that
/// survived the shift) are one routine: DiffSim fault-lane passes of 64
/// faults, in fixed blocks of the list, under the vector's broadcast
/// stimulus, a hidden fault's lane also flipping the cells of its
/// difference.  The blocks are sharded over the process thread pool, and a
/// serial merge applies the per-fault verdicts in list order.  Verdicts
/// are pure functions of the fault index, so every thread count produces
/// byte-identical CycleStats, FaultSets, schedules and counters (checked
/// by tests/core/tracker_parallel_test.cpp).

#include <cstdint>
#include <span>
#include <vector>

#include "vcomp/atpg/fill.hpp"
#include "vcomp/fault/collapse.hpp"
#include "vcomp/fault/compact_model.hpp"
#include "vcomp/fault/fault_sim.hpp"
#include "vcomp/core/fault_sets.hpp"
#include "vcomp/obs/metrics.hpp"
#include "vcomp/scan/fabric.hpp"

namespace vcomp::core {

/// Per-cycle trace entry.
struct CycleStats {
  std::size_t shift = 0;
  std::size_t caught_at_shift = 0;  ///< hidden faults observed while shifting
  std::size_t caught_at_po = 0;     ///< faults observed on primary outputs
  std::size_t new_hidden = 0;
  std::size_t hidden_reverted = 0;  ///< hidden faults back to uncaught
  std::size_t hidden_after = 0;     ///< |f_h| at end of cycle

  friend bool operator==(const CycleStats&, const CycleStats&) = default;
};

/// Per-phase wall-clock breakdown of one stitched run (monotonic clock),
/// plus the work counters the throughput benches divide by.  The
/// StitchTracker fills the shift, classify, advance and terminal fields
/// and the two tracker counters; StitchEngine adds the ATPG and scoring
/// fields, the ex-phase drop and total_seconds to the same record.  Each
/// seconds field is the sum of the obs::Span durations of its phase
/// (terminal_seconds: tracker.terminal_observe, tracker.partial_observe
/// and stitch.drop), so `--profile` and `--trace` read the same clock.
/// Measurement only — timings never feed back into the computed
/// schedule, so results stay byte-identical for every thread count.
/// Surfaced by `vcomp_stitch --profile` and the bench JSON rows.
struct PhaseProfile {
  double podem_seconds = 0;     ///< constrained PODEM cube search
  double scoring_seconds = 0;   ///< MostFaults completion scoring
  double shift_seconds = 0;     ///< tracker scan-shift + hidden compare
  double classify_seconds = 0;  ///< fault-free apply/capture + classification
  double advance_seconds = 0;   ///< hidden faults' fault-lane passes + merge
  double terminal_seconds = 0;  ///< terminal observes + ex-phase dropping
  double total_seconds = 0;     ///< whole StitchEngine::run call
  std::size_t faults_classified = 0;  ///< faults classified (one lane each)
  std::size_t hidden_advanced = 0;    ///< hidden faults advanced (one lane each)
  std::size_t podem_calls = 0;        ///< constrained generate() attempts
  std::size_t podem_backtracks = 0;   ///< backtracks across those calls
  std::size_t cubes_found = 0;        ///< successful cubes collected
  std::size_t candidates_scored = 0;  ///< MostFaults completions scored
  std::size_t aborted = 0;            ///< generate() calls ending Aborted
  std::size_t aborted_faults = 0;     ///< distinct faults ever Aborted
  std::size_t sat_calls = 0;          ///< SAT solver invocations
  std::size_t sat_conflicts = 0;      ///< CDCL conflicts across those calls

  /// Deterministic view for comparisons and bench JSON: the work counters
  /// without the wall-clock fields (which vary run to run and machine to
  /// machine).  Byte-identical across VCOMP_THREADS values.
  obs::CounterSet counters_only() const {
    obs::CounterSet cs;
    cs.values.emplace_back("atpg.aborted_faults", aborted_faults);
    cs.values.emplace_back("atpg.sat_calls", sat_calls);
    cs.values.emplace_back("atpg.sat_conflicts", sat_conflicts);
    cs.values.emplace_back("stitch.aborted", aborted);
    cs.values.emplace_back("stitch.candidates_scored", candidates_scored);
    cs.values.emplace_back("stitch.cubes_found", cubes_found);
    cs.values.emplace_back("stitch.podem_backtracks", podem_backtracks);
    cs.values.emplace_back("stitch.podem_calls", podem_calls);
    cs.values.emplace_back("tracker.faults_classified", faults_classified);
    cs.values.emplace_back("tracker.hidden_advanced", hidden_advanced);
    return cs;
  }
};

class StitchTracker {
 public:
  /// \p track marks the faults to follow (e.g. everything but proven
  /// redundancies); empty means "track all".  All internal simulators
  /// share the given pre-compiled evaluation graph.  \p model optionally
  /// supplies a pre-built simulation model for (\p graph, \p faults) —
  /// the compacted model depends only on those two, so concurrent trackers
  /// may alias one copy; nullptr builds a private compacted one.  (The
  /// compaction oracle passes the identity model here as its reference.)
  StitchTracker(sim::EvalGraph::Ref graph,
                const fault::CollapsedFaults& faults,
                scan::CaptureMode capture, scan::Fabric fabric,
                scan::FabricOut out_model,
                std::vector<std::uint8_t> track = {},
                std::shared_ptr<const fault::CompactModel> model = nullptr);
  /// Convenience: compiles a private graph for \p nl.
  StitchTracker(const netlist::Netlist& nl,
                const fault::CollapsedFaults& faults,
                scan::CaptureMode capture, scan::Fabric fabric,
                scan::FabricOut out_model,
                std::vector<std::uint8_t> track = {});
  /// Single-chain compatibility: wraps \p out_model into the degenerate
  /// one-chain fabric.
  StitchTracker(sim::EvalGraph::Ref graph,
                const fault::CollapsedFaults& faults,
                scan::CaptureMode capture, scan::ScanOutModel out_model,
                std::vector<std::uint8_t> track = {});
  StitchTracker(const netlist::Netlist& nl,
                const fault::CollapsedFaults& faults,
                scan::CaptureMode capture, scan::ScanOutModel out_model,
                std::vector<std::uint8_t> track = {});

  /// Applies the first vector (full chain load + capture).
  CycleStats apply_first(const atpg::TestVector& v);

  /// Applies a stitched vector with per-chain shift counts \p plan.  The
  /// vector's scan bits at retained positions (the 2-D retained region:
  /// positions >= plan[c] on every chain c) must equal the current fabric
  /// content (the stitching invariant); violations throw.
  CycleStats apply_stitched(const atpg::TestVector& v,
                            const scan::ShiftPlan& plan);
  /// Scalar compatibility: apportions \p s with Fabric::plan_for.
  CycleStats apply_stitched(const atpg::TestVector& v, std::size_t s);

  /// One terminal observation of the tail plan[c] cells of every chain
  /// (plan = chain lengths ⇒ full flush).  Returns the number of hidden
  /// faults caught.
  std::size_t terminal_observe(const scan::ShiftPlan& plan);
  /// Scalar compatibility: apportions \p s with Fabric::plan_for.
  std::size_t terminal_observe(std::size_t s);

  /// True iff observing the tail plan[c] cells of every chain would catch
  /// every remaining hidden fault (decides final_observe vs flush).
  bool partial_observe_suffices(const scan::ShiftPlan& plan) const;
  bool partial_observe_suffices(std::size_t s) const;

  /// Marks an uncaught fault as caught outside the stitched schedule (by an
  /// appended traditional full-shift vector).
  void catch_externally(std::size_t i) { sets_.set_caught(i, cycle_ + 1); }

  const FaultSets& sets() const { return sets_; }
  /// Setup-time access (e.g. FaultSets::set_targetable before the run).
  FaultSets& mutable_sets() { return sets_; }
  const scan::Fabric& fabric() const { return fabric_; }
  /// The fault-free machine's fabric content.
  const scan::FabricState& state() const { return state_; }
  /// Hidden fault \p i's full fabric content, rebuilt: the fault-free
  /// fabric with the fault's difference flipped.
  scan::FabricState hidden_state(std::size_t i) const;
  /// Single-chain compatibility accessor (requires num_chains == 1).
  const scan::ChainState& chain() const {
    VCOMP_REQUIRE(fabric_.num_chains() == 1,
                  "chain() is the single-chain accessor; use state()");
    return state_.chain(0);
  }
  std::size_t cycle() const { return cycle_; }
  const netlist::Netlist& netlist() const { return *nl_; }

  /// Cumulative per-phase wall-clock and work counters of this tracker's
  /// run; the tracker writes only its own fields.
  const PhaseProfile& profile() const { return profile_; }
  /// The same record, for the StitchEngine that runs this tracker to add
  /// its own phases to.
  PhaseProfile& mutable_profile() { return profile_; }

  /// Catch cycle of fault \p i (requires it to be caught).
  std::size_t catch_cycle(std::size_t i) const {
    return sets_.catch_cycle(i);
  }

 private:
  CycleStats apply(const atpg::TestVector& v, const scan::ShiftPlan& plan,
                   bool first);
  void load_stimulus(fault::DiffSim& sim, const atpg::TestVector& v) const;
  /// Catches every hidden fault whose difference \p plan's observations
  /// show (the one catch rule) and leaves the survivors in advance_.
  std::size_t catch_observed(const scan::ShiftPlan& plan);
  /// Classify's and advance's routine: runs \p work (faults of f_u or
  /// f_h) against the committed vector \p v and applies the verdicts.  A
  /// PO difference means caught; otherwise the new difference is the
  /// captured-state flips, plus the old one under VXor capture, and an
  /// empty one means uncaught.
  void run_lanes(const atpg::TestVector& v,
                 std::span<const std::uint32_t> work, CycleStats& st);

  const netlist::Netlist* nl_;
  const fault::CollapsedFaults* faults_;
  scan::CaptureMode capture_;
  scan::Fabric fabric_;
  scan::FabricOut out_model_;

  FaultSets sets_;
  scan::FabricState state_;
  /// Compacted simulation graph + per-fault site mappings.  Every internal
  /// simulator below runs on model_->graph(); reported netlist()/chain
  /// positions stay in original ids (the model preserves input / dff / po
  /// order, so index-based readouts need no translation).  Shared (and
  /// immutable) so concurrent runs on one circuit build it once.
  std::shared_ptr<const fault::CompactModel> model_;
  fault::DiffSimShards ssims_;  // per-shard fault-lane engines
  fault::DiffSim* sim0_;        // shard 0: also the good-machine readout
  std::size_t cycle_ = 0;
  mutable PhaseProfile profile_;

  /// One fault's verdict, written by exactly one shard and consumed by the
  /// serial list-order merge.
  struct Verdict {
    bool caught = false;     ///< a PO differs
    scan::FabricDiff diff;   ///< the difference after capture
  };

  // Reused per-cycle scratch (one apply() per stitched cycle; none of
  // these may allocate in steady state).
  std::vector<std::uint8_t> by_pos_, in_bits_, ppo_ff_;
  std::vector<std::uint32_t> advance_, observe_list_;
  std::vector<Verdict> verdicts_;
  scan::FabricDiff fold_;  // VXor: old difference XOR the flips
};

}  // namespace vcomp::core
