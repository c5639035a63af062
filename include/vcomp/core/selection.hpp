#pragma once

/// \file selection.hpp
/// Test-vector selection policies (Section 6.3 of the paper).
///
/// The stitching engine walks an ordered list of uncaught faults, asking
/// constrained PODEM for a cube per target:
///  * Random     — one fixed random order; first solvable target wins;
///  * Hardness   — hardest-first order (random-sim detection counts with
///                 SCOAP tie-breaks); first solvable target wins;
///  * MostFaults — collect several cubes, complete each with several fills,
///                 fault-simulate all candidates in one pattern-parallel
///                 pass, and keep the candidate catching the most new
///                 faults (observably caught weighted above newly hidden);
///  * Adi        — Accidental Detection Index order (Pomeranz & Reddy):
///                 each fault's ADI is the number of baseline test vectors
///                 that detect it, counted word-parallel from the existing
///                 pattern-parallel fault simulator (64 vectors per pass,
///                 no extra simulation passes beyond one sweep of the
///                 baseline set).  Rarely-accidentally-detected faults are
///                 targeted first — the high-ADI ones fall out of f_u as a
///                 side effect of almost any applied vector.

#include <cstdint>
#include <string>
#include <vector>

#include "vcomp/atpg/fill.hpp"
#include "vcomp/fault/fault.hpp"
#include "vcomp/tmeas/hardness.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::core {

enum class SelectionPolicy : std::uint8_t { Random, Hardness, MostFaults, Adi };

std::string to_string(SelectionPolicy p);

/// Per-fault Accidental Detection Index over \p vectors: adi[i] = number of
/// vectors whose response differs from the fault-free one under fault i (at
/// a primary output or a captured next-state).  Computed 64 vectors at a
/// time in pattern lanes, one DiffSim region call over every fault per 64
/// vectors; counts are a pure function of (graph, faults, vectors),
/// byte-identical for every VCOMP_THREADS value.
std::vector<std::uint32_t> adi_counts(
    const sim::EvalGraph::Ref& graph, const std::vector<fault::Fault>& faults,
    const std::vector<atpg::TestVector>& vectors);

/// Ascending-ADI target order (rarely-accidentally-detected faults first);
/// equal counts keep ascending fault-index order.  Every adjacent pair in
/// the returned order resolved by the index tie-break bumps the
/// `adi.ties_broken` obs counter (also returned through \p ties_broken when
/// non-null).
std::vector<std::size_t> adi_order(const std::vector<std::uint32_t>& counts,
                                   std::size_t* ties_broken = nullptr);

/// Builds the target-walk order over fault indices for a policy, reusing a
/// pre-compiled evaluation graph for the hardness/ADI estimation.
/// \p faults is the collapsed representative list.  \p baseline_vectors is
/// the full-scan baseline test set; required (non-null, may be empty) for
/// SelectionPolicy::Adi and ignored by every other policy.
std::vector<std::size_t> target_order(
    SelectionPolicy policy, const sim::EvalGraph::Ref& graph,
    const std::vector<fault::Fault>& faults,
    const tmeas::HardnessOptions& hardness, Rng& rng,
    const std::vector<atpg::TestVector>* baseline_vectors = nullptr);

/// Convenience: compiles a transient evaluation graph when one is needed.
std::vector<std::size_t> target_order(
    SelectionPolicy policy, const netlist::Netlist& nl,
    const std::vector<fault::Fault>& faults,
    const tmeas::HardnessOptions& hardness, Rng& rng,
    const std::vector<atpg::TestVector>* baseline_vectors = nullptr);

}  // namespace vcomp::core
