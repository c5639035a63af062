#pragma once

/// \file profiles.hpp
/// ISCAS89 circuit profiles used throughout the paper's evaluation.
///
/// The real ISCAS89 netlists are not redistributable here, so experiments
/// run on seeded synthetic circuits with the *exact* PI / PO / flip-flop
/// counts of the originals (the quantities the paper's compression
/// arithmetic depends on) and a realistic gate budget.  Gate counts of the
/// three largest profiles are scaled down (~6 gates per flip-flop) to keep
/// benchmark wall-time reasonable; see DESIGN.md for the substitution
/// rationale.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace vcomp::netgen {

struct CircuitProfile {
  std::string name;
  std::size_t num_pi = 0;
  std::size_t num_po = 0;
  std::size_t num_ff = 0;     ///< scan chain length L
  std::size_t num_gates = 0;  ///< combinational gate budget
  /// Fraction [0,1] biasing the generator toward shallow, easily testable
  /// logic (s35932's hallmark in the paper: "most faults are easy-to-test").
  double easiness = 0.0;
  /// Maximum gate arity (2..4).  Wide AND/OR gates breed random-pattern
  /// resistance; profiles modelling random-testable designs use 2.
  std::size_t max_arity = 4;
  /// Combinational depth cap (0 = unlimited).  Shallow independent cones
  /// are what make designs like s35932 almost fully random-testable.
  std::size_t depth_limit = 0;
  std::uint64_t seed = 1;     ///< generation seed (per-profile determinism)
};

/// Profile by benchmark name ("s444" ... "s38584"); throws on unknown names.
CircuitProfile profile(const std::string& name);
/// Like profile(), but nullopt for an unknown name.
std::optional<CircuitProfile> find_profile(const std::string& name);

/// Like profile(), but with the gate-budget cap lifted: s38417 and s38584
/// get their original combinational gate counts (22179 / 19253) instead of
/// the ~6-gates-per-FF budget.  FF counts are identical either way, so the
/// compression arithmetic is unchanged; only simulation cost grows.
/// Exposed behind `vcomp_stitch --full-scale`.
CircuitProfile full_scale_profile(const std::string& name);

/// The eight circuits of Tables 2–4.
std::vector<CircuitProfile> table234_profiles();

/// The seven large circuits of Table 5.
std::vector<CircuitProfile> table5_profiles();

/// All known profiles.
std::vector<CircuitProfile> all_profiles();

}  // namespace vcomp::netgen
