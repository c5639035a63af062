#pragma once

/// \file oracles.hpp
/// Differential oracles of the check harness.
///
/// The families:
///  * simulator oracles — WordSim, TernarySim, DiffSim and BlockLaneSim are
///    run on identical stimuli and compared against the naive reference
///    evaluators of reference.hpp; BlockLaneSim gets a different PI and
///    state pattern and its own fault in every lane;
///  * compaction / dispatch oracles — the same scenario is evaluated on
///    the compacted and uncompacted EvalGraph (WordSim values through the
///    id remap, DiffSim::simulate vs simulate_mapped, DiffSim's 64-fault
///    lane pass vs each fault's simulate_mapped under a broadcast and a
///    per-lane stimulus, BlockLaneSim with plain vs mapped faults) and
///    through every available SIMD dispatch width (a fault-free
///    BlockLaneSim, scalar vs AVX2 vs AVX-512); on top,
///    the full stitched tracker is driven twice — on the compacted model
///    and on the identity model (CompactModel with enable = false) — and
///    the two digests (CycleStats, fault states, work counters) must be
///    byte-identical;
///  * the flush oracle — scan fabrics are linear networks over GF(2), so
///    the post-flush contents of (state, flush) must equal those of
///    (state, 0) xor (0, flush); partially-shifted fabrics must slide —
///    never corrupt — each chain's retained region (the 2-D stitching
///    invariant); every chain's closed-form ChainState::shift observations
///    must equal the per-bit reference's; and scan::observes_difference
///    must hold exactly when two fabrics' reference streams under one
///    shared scan-in stream differ (superposition again: the catch rule
///    ignores the scan-in bits);
///  * the ATPG engine oracle — PODEM and the built-in CDCL SAT backend are
///    asked for a cube for the same fault under the same random PPI
///    constraints; any Success cube must honour the pins and detect the
///    fault under the reference fault simulator for random completions of
///    its X positions, and an Untestable proof from one engine must never
///    coexist with a verified cube from the other (Aborted claims
///    nothing); and whenever the pin frame proves a query untestable
///    without a search, the plain CNF of that query must not be
///    satisfiable;
///  * the tracker oracle — a StitchTracker is driven through the case's
///    stitched schedule and its per-cycle CycleStats, final fault states,
///    catch cycles and surviving hidden-fabric contents are compared
///    against a brute-force full-shift fault simulation of the same
///    schedule that keeps one private fabric per fault and evaluates every
///    machine with the naive reference.
///
/// All entry points return std::nullopt on agreement and a Failure naming
/// the first diverging oracle otherwise.

#include <cstdint>
#include <optional>
#include <string>

#include "vcomp/check/scenario.hpp"

namespace vcomp::check {

struct Failure {
  std::string oracle;  ///< "word-sim", "ternary-sim", "diff-sim",
                       ///< "block-lane-sim", "compact", "simd-dispatch",
                       ///< "flush", "atpg", "adi", "tracker",
                       ///< "thread-identity", "exception"
  std::string detail;  ///< human-readable mismatch description
};

/// Simulator oracles on \p rounds random stimuli (seeded by
/// \p stimulus_seed, independent of the schedule).
std::optional<Failure> check_simulators(const Case& c,
                                        std::uint64_t stimulus_seed,
                                        std::size_t rounds);

/// Compaction / dispatch oracles on \p rounds random stimuli: compacted
/// vs uncompacted graph equivalence, scalar vs vector dispatch equality,
/// and a compact-on/off A-B of the full stitched tracker digest.
std::optional<Failure> check_compaction(const Case& c,
                                        std::uint64_t stimulus_seed,
                                        std::size_t rounds);

/// GF(2) flush oracle on \p rounds random states and flush streams: the
/// compiled FabricState shift vs the naive per-chain reference under the
/// superposition identity, the retained-region slide check and every
/// chain's closed-form observations on a random partial plan, and the
/// catch rule (scan::observes_difference) against the reference streams.
std::optional<Failure> check_flush(const Case& c, std::uint64_t flush_seed,
                                   std::size_t rounds);

/// ATPG engine oracle on \p rounds rounds: PODEM vs the CDCL SAT backend
/// on sampled faults under shared random PPI constraints.  Success cubes
/// are re-verified against the reference fault simulator; definitive
/// verdicts must never contradict.  The PODEM and SAT engines serve every
/// round, so their pin frames outlive pin changes; each of their results
/// must equal (status, cube, backtracks, conflicts) a freshly built
/// engine's.  Every query atpg::PinFrame::proves_untestable accepts is
/// re-solved as a plain CnfEncoder + CdclSolver formula with no frame,
/// which must not be Sat.
std::optional<Failure> check_atpg(const Case& c, std::uint64_t seed,
                                  std::size_t rounds);

/// ADI oracle: the word-parallel Accidental Detection Index computation
/// (core::adi_counts, 64 vectors per pattern-parallel pass, sharded over
/// the thread pool) vs a naive O(vectors × faults) reference that runs one
/// ref_word_eval / ref_faulty_eval pass per (vector, fault) pair.  The
/// vector pool is the case's schedule (full load, stitched vectors, extra
/// full vectors) plus \p rounds random vectors drawn from \p seed; every
/// tracked fault's count must match exactly.
std::optional<Failure> check_adi(const Case& c, std::uint64_t seed,
                                 std::size_t rounds);

/// Tracker oracle: stitched tracker vs brute-force reference over the
/// case's schedule (including the terminal observation).
std::optional<Failure> check_tracker(const Case& c);

/// Canonical byte string of a tracker run over the case's schedule
/// (per-cycle stats, final fault states, catch cycles, hidden chains,
/// terminal catches).  Equal digests <=> byte-identical tracker behaviour;
/// the runner compares digests across thread counts.
std::string tracker_digest(const Case& c);

/// Every oracle in sequence; first failure wins.  Exceptions out of the
/// checked code are converted into Failure{"exception", what()}.
std::optional<Failure> run_oracles(const Case& c, const Scenario& sc);

}  // namespace vcomp::check
