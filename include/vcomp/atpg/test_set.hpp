#pragma once

/// \file test_set.hpp
/// Full-scan deterministic test-set generation — the paper's "aTV" baseline
/// (the role ATALANTA played in the original flow).
///
/// Flow: random-pattern phase with fault dropping, deterministic PODEM for
/// the survivors, then reverse-order static compaction.  The result also
/// classifies every collapsed fault as detected / redundant / aborted, which
/// downstream stitching experiments use as the ground-truth detectable set.
///
/// Every fault simulation of the flow — the random blocks, the drop after
/// each PODEM vector (a broadcast stimulus) and first_detections() — is
/// one DiffSim region call over the open faults (fault_sim.hpp): faults
/// are carried to their fanout-free regions' roots with the good values,
/// and only the reached roots are propagated.

#include <cstdint>
#include <span>
#include <vector>

#include "vcomp/atpg/fill.hpp"
#include "vcomp/atpg/podem.hpp"
#include "vcomp/fault/collapse.hpp"
#include "vcomp/fault/fault_sim.hpp"

namespace vcomp::atpg {

enum class FaultClass : std::uint8_t { Detected, Redundant, Aborted };

struct TestSetOptions {
  std::uint64_t seed = 1;
  /// Random phase stops after this many consecutive useless 64-pattern
  /// blocks (0 disables the random phase).
  std::size_t random_idle_blocks = 2;
  std::size_t max_random_blocks = 64;
  PodemOptions podem;
  bool reverse_compaction = true;
};

struct TestSetResult {
  std::vector<TestVector> vectors;
  std::vector<FaultClass> classes;  ///< per collapsed fault
  std::size_t num_detected = 0;
  std::size_t num_redundant = 0;
  std::size_t num_aborted = 0;

  /// Fault coverage over detectable faults (detected / (all - redundant)).
  double coverage() const {
    const std::size_t det = classes.size() - num_redundant;
    return det == 0 ? 1.0 : double(num_detected) / double(det);
  }
};

/// first_detections() entry of a fault no vector of the walk detects.
inline constexpr std::size_t kNoDetection = ~std::size_t{0};

/// Fault dropping over an ordered vector list under full observation:
/// entry n is the position in \p walk of the first vector that detects
/// \p faults[n] (kNoDetection if none does).  Loads 64 vectors at a time
/// into pattern lanes, runs one DiffSim region call over the faults still
/// open, and stops once every fault is detected, so a fault is simulated
/// once per 64 vectors it is still open in.  Keeping the vectors that are
/// some fault's first detector is the one-vector-at-a-time dropping
/// loop's result: reverse-order compaction and the stitch engine's ex
/// phase both do.  The faults and vectors are those of the graph \p sim
/// runs on.
std::vector<std::size_t> first_detections(
    fault::DiffSim& sim, std::span<const TestVector* const> walk,
    std::span<const fault::Fault> faults);

/// Generates a compacted full-scan test set for the collapsed faults.
TestSetResult generate_full_scan_tests(const netlist::Netlist& nl,
                                       const std::vector<fault::Fault>& faults,
                                       const TestSetOptions& options = {});

}  // namespace vcomp::atpg
