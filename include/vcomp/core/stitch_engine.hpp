#pragma once

/// \file stitch_engine.hpp
/// The paper's test-vector stitching algorithm (Figure 2).
///
/// Each stitched cycle:
///  1. pick a master shift size s (ShiftPolicy) and apportion it over the
///     fabric's chains (Fabric::plan_for) into a per-chain shift plan;
///  2. run PODEM constrained by the retained fabric bits — the 2-D retained
///     region: on every chain c the previous response slid plan[c]
///     positions toward the tail — to find vectors catching new faults
///     from f_u; pick a candidate per the SelectionPolicy;
///  3. commit the vector through the StitchTracker (shift-phase catches,
///     capture, hidden-fault classification and advancement);
///  4. account shift cycles (max over chains — they shift in parallel) and
///     tester bits (sum over chains) in the CostMeter.
///
/// When no constrained vector can catch a new fault and the shift policy is
/// out of escalations, the run ends: remaining f_u faults are covered by
/// appended traditional full-shift vectors ("ex" in Table 2), whose first
/// full shift also flushes — observes — every fault still hidden.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "vcomp/atpg/engine.hpp"
#include "vcomp/atpg/test_set.hpp"
#include "vcomp/core/artifacts.hpp"
#include "vcomp/core/selection.hpp"
#include "vcomp/core/shift_policy.hpp"
#include "vcomp/core/tracker.hpp"
#include "vcomp/scan/cost_model.hpp"
#include "vcomp/scan/fabric.hpp"
#include "vcomp/sim/eval_graph.hpp"

namespace vcomp::core {

struct StitchOptions {
  /// Shift size: >0 fixes it; 0 selects the variable policy.
  std::size_t fixed_shift = 0;
  /// Variable policy start size (0 = chain length / 8).
  std::size_t variable_start = 0;
  /// Variable policy: success streak that halves the size back toward the
  /// start (0 disables decay — escalation becomes monotonic).
  std::size_t variable_decay_after = 4;
  /// Explicit per-cycle shift schedule (master sizes, cyclic).  Non-empty
  /// selects the ScheduleShift playback policy and overrides fixed_shift /
  /// the variable policy — this is how a GA-evolved chromosome
  /// (core/ga_schedule.hpp) is handed to the engine.
  std::vector<std::size_t> shift_schedule;
  /// Overrides the schedule-kind token recorded on the emitted
  /// StitchedSchedule (empty = derive from the shift policy + selection,
  /// e.g. "variable+most-faults").  The GA driver stamps "ga+<selection>"
  /// so a written schedule file names the search that produced it.
  std::string schedule_label;

  scan::CaptureMode capture = scan::CaptureMode::Normal;
  /// 0 = direct scan-out; >0 = horizontal XOR with this many taps (per
  /// chain, clamped to each chain's length).
  std::size_t hxor_taps = 0;

  /// Scan fabric shape: chains shift in parallel; 1 is the degenerate
  /// single-chain fabric (byte-identical to the former single-chain flow).
  std::size_t num_chains = 1;
  /// DFF → chain partition policy.
  scan::PartitionPolicy partition = scan::PartitionPolicy::RoundRobin;
  /// Seed for PartitionPolicy::SeededRandom.
  std::uint64_t partition_seed = 0;

  SelectionPolicy selection = SelectionPolicy::MostFaults;
  /// PODEM attempts per cycle once at least one cube has been found.
  std::uint32_t max_targets_per_cycle = 48;
  /// PODEM attempts before declaring a cycle unable to catch *any* new
  /// fault (the paper's generation-failure condition nominally scans all
  /// of f_u; this caps the scan on large circuits).
  std::uint32_t max_targets_on_failure = 320;
  /// Cubes collected per cycle for the MostFaults greedy pick.
  std::uint32_t most_faults_cubes = 6;
  /// Random completions evaluated per cube (MostFaults only).
  std::uint32_t fills_per_cube = 5;

  std::uint64_t seed = 1;
  atpg::PodemOptions podem{.max_backtracks = 128};
  /// SAT backend conflict budget (Sat and Race engines).
  atpg::SatOptions sat{};
  /// Constrained-ATPG engine answering per-cycle cube queries.  Auto
  /// resolves through VCOMP_ATPG (unset = podem).  Race runs PODEM under
  /// its backtrack budget and falls through to SAT on Aborted — routing by
  /// status, never wall-clock, so determinism is preserved.
  atpg::EngineKind atpg_engine = atpg::EngineKind::Auto;
  tmeas::HardnessOptions hardness{};
  /// Hard cap on stitched cycles (0 = 6·aTV + 64).
  std::size_t max_cycles = 0;
  /// When the shift policy is out of escalations, up to this many
  /// consecutive "bridge" cycles (random free bits, no ATPG target) churn
  /// the retained chain state before the run gives up — the generation
  /// failure is relative to the *current* response, so new state often
  /// unlocks new targets.  Mostly relevant to fixed shifts.
  std::size_t max_bridge_cycles = 6;
  /// Break-even guard: over a sliding window of this many applied cycles,
  /// if the faults caught fall below the window's cost measured in
  /// full-shift-vector equivalents, the stitched phase is losing to the
  /// traditional scheme and terminates (0 disables the guard).
  std::size_t marginal_window = 12;

  /// Observation-only progress hook, invoked after every applied cycle
  /// with (cycles applied so far, that cycle's stats).  Runs on the thread
  /// executing run(); it must not mutate engine state and its cost is not
  /// part of any determinism contract (results are identical with or
  /// without it).  The serve daemon streams these as per-job progress
  /// events; empty (the default) disables the callbacks entirely.
  std::function<void(std::size_t, const CycleStats&)> on_cycle;
};

/// The deliverable test program of a stitched run: what the ATE applies.
struct StitchedSchedule {
  /// Applied vectors; vectors[0] is the full initial load.
  std::vector<atpg::TestVector> vectors;
  /// Master shift sizes (bits summed over all chains); shifts[0] = L (full
  /// load), shifts[c] = s of vector c+1.
  std::vector<std::size_t> shifts;
  /// Per-chain shift budgets, one plan per vector — the apportionment of
  /// shifts[c] over the chains.  Populated only when num_chains > 1; the
  /// single-chain schedule is fully described by shifts.
  std::vector<scan::ShiftPlan> plans;
  /// Trailing observation of the last response (bits shifted out, summed
  /// over all chains).
  std::size_t terminal_observe = 0;
  /// Traditional full-shift vectors appended after the stitched phase.
  std::vector<atpg::TestVector> extra;
  /// Fabric shape the schedule was generated for (enough to rebuild the
  /// exact DFF → (chain, position) partition on the same netlist).
  std::size_t num_chains = 1;
  scan::PartitionPolicy partition = scan::PartitionPolicy::RoundRobin;
  std::uint64_t partition_seed = 0;
  /// Schedule-kind token: "<shift-policy>+<selection>" as produced by the
  /// engine (e.g. "fixed+most-faults", "ga+adi" via
  /// StitchOptions::schedule_label).  Serialized by schedule_io as the
  /// optional `kind` header line; empty (the legacy default) writes no
  /// line, so hand-built and historical schedules round-trip byte-
  /// identically.  Descriptive only: replay never branches on it.
  std::string kind;
};

struct StitchResult {
  std::size_t vectors_applied = 0;      ///< TV
  std::size_t extra_full_vectors = 0;   ///< ex
  std::size_t baseline_vectors = 0;     ///< aTV

  StitchedSchedule schedule;            ///< the applied test program

  scan::Cost cost;                      ///< stitched schedule
  scan::Cost baseline_cost;             ///< (aTV+1)·L etc.
  double time_ratio = 0.0;              ///< t
  double memory_ratio = 0.0;            ///< m

  std::size_t targets = 0;              ///< detectable faults to cover
  std::size_t caught_stitched = 0;      ///< caught during stitched phase
  std::size_t caught_flush = 0;         ///< caught by terminal observation
  std::size_t caught_extra = 0;         ///< caught by appended full vectors
  std::size_t uncovered = 0;            ///< must be 0: coverage preserved

  std::size_t hidden_peak = 0;
  std::vector<CycleStats> cycles;

  PhaseProfile profile;                 ///< per-phase wall-clock breakdown
};

/// One-shot stitched-test-generation engine.
class StitchEngine {
 public:
  /// \p baseline classifies every collapsed fault (the detectable ones are
  /// the coverage target) and provides the aTV vector set used both for
  /// cost normalization and as the extra-vector pool.
  StitchEngine(const netlist::Netlist& nl,
               const fault::CollapsedFaults& faults,
               const atpg::TestSetResult& baseline,
               const StitchOptions& options = {});

  /// Same flow over pre-built shared artifacts (graph / SCOAP / compact
  /// model for exactly this nl + faults pair): skips the per-run setup
  /// cost and lets concurrent runs alias one copy.  Results are
  /// byte-identical to the compiling constructor.
  StitchEngine(const netlist::Netlist& nl,
               const fault::CollapsedFaults& faults,
               const atpg::TestSetResult& baseline,
               const CircuitArtifacts& artifacts,
               const StitchOptions& options = {});

  /// Runs the full flow and returns the result summary.
  StitchResult run();

 private:
  struct Candidate {
    atpg::TestVector vector;
    std::size_t target = 0;
  };

  std::unique_ptr<ShiftPolicy> make_policy() const;
  atpg::PpiConstraints constraints_for(const scan::FabricState& state,
                                       const scan::ShiftPlan& plan) const;
  /// Writes the phases it times (PODEM, scoring) and their work
  /// counters into \p prof.
  std::optional<Candidate> generate(const FaultSets& sets,
                                    const scan::FabricState& state,
                                    const scan::ShiftPlan& plan,
                                    bool first_vector, PhaseProfile& prof);
  /// The body of run(), under its stitch.run span.
  void run_into(StitchResult& res);

  const netlist::Netlist* nl_;
  const fault::CollapsedFaults* faults_;
  const atpg::TestSetResult* baseline_;
  StitchOptions opts_;

  scan::Fabric fabric_;
  scan::FabricOut out_model_;
  sim::EvalGraph::Ref eg_;     // one compiled graph under every engine below
  std::shared_ptr<const tmeas::Scoap> scoap_;      // shared, immutable
  std::shared_ptr<const fault::CompactModel> compact_;  // handed to tracker
  std::unique_ptr<atpg::Engine> engine_;  // constrained-ATPG backend
  fault::DiffSimShards ssims_; // per-shard clones: candidate scoring + the
                               // ex-phase fault-dropping scans
  Rng rng_;

  // Per-cycle scratch reused across generate() calls (hot path: one call
  // per stitched cycle; these would otherwise allocate every cycle).
  std::vector<sim::Word> pi_w_, ppi_w_;           // candidate stimulus words
  std::vector<std::uint8_t> observed_pos_;        // flat-position visibility
  std::vector<std::size_t> scored_;               // sampled uncaught faults
  std::vector<std::vector<std::uint32_t>> shard_scores_;

  std::vector<std::size_t> order_;       // target walk order
  std::vector<std::uint8_t> targetable_; // baseline-detected faults
  // Per-fault Aborted stamps (distinct-fault counter for the profile).
  std::vector<std::uint8_t> aborted_fault_;
  // Cached unconstrained Untestable verdicts: combinational redundancy is
  // schedule-independent, so a fault proven redundant with no pinned scan
  // cells can be skipped in every later cycle.  Never invalidated.
  std::vector<std::uint8_t> redundant_;
  std::size_t cursor_ = 0;               // rotating start for MostFaults
  // Per-generation-call failure stamps: lets the wide failure scan skip
  // targets the greedy phase already tried under the same constraints.
  std::vector<std::uint64_t> tried_this_cycle_;
  std::uint64_t cycle_stamp_ = 0;
};

}  // namespace vcomp::core
