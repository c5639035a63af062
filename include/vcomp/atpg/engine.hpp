#pragma once

/// \file engine.hpp
/// Pluggable constrained-ATPG engine interface.
///
/// Every stitched cycle asks the same question — "find a test cube for
/// fault f whose pinned scan cells match the retained fabric bits, or
/// prove that none exists" — and more than one algorithm can answer it.
/// The Engine interface captures exactly that contract:
///
///  * generate() returns Success with a cube (every completion of which
///    detects the fault), Untestable (a *proof* of redundancy under the
///    given constraints), or Aborted (resource budget exhausted, claims
///    nothing);
///  * per-engine options (PODEM backtrack budget, SAT conflict budget) are
///    fixed at construction through EngineOptions;
///  * per-call work tallies (backtracks, SAT conflicts, SAT invocations)
///    ride back on the GenResult so callers can account them without
///    touching the obs registry on the hot path.
///
/// Three engines exist behind make_engine():
///
///  * Podem — the classical path-oriented generator (podem.hpp);
///  * Sat   — Tseitin-encode the fault's output cone (good/faulty pair +
///            constraint units) into CNF and run the built-in CDCL solver
///            (cnf.hpp / sat.hpp);
///  * Race  — PODEM first under its backtrack budget, falling through to
///            SAT only on Aborted.  Routing is by *deterministic status*,
///            never wall-clock, so the byte-identical-at-every-thread-count
///            contract holds: the same fault under the same constraints
///            always takes the same route.
///
/// EngineKind::Auto resolves through the VCOMP_ATPG environment variable
/// (podem | sat | race; unset = podem), which is how the CLI and the bench
/// drivers pick an engine without plumbing a flag through every layer.

#include <cstdint>
#include <memory>
#include <string_view>

#include "vcomp/atpg/podem.hpp"

namespace vcomp::atpg {

/// Which generator answers constrained-cube queries.
enum class EngineKind : std::uint8_t {
  Auto,   ///< resolve via VCOMP_ATPG (unset = Podem)
  Podem,  ///< classical PODEM
  Sat,    ///< CNF cone encoding + built-in CDCL solver
  Race,   ///< PODEM first, SAT on Aborted (status-routed, deterministic)
};

/// Parses "podem" / "sat" / "race" (also "auto"); false on anything else.
bool engine_kind_from_string(std::string_view s, EngineKind& out);

/// VCOMP_ATPG environment override; unset or empty yields Podem.  Throws
/// std::runtime_error on an unrecognized value (fail loudly, not quietly
/// with the wrong engine).
EngineKind engine_kind_from_env();

/// Resolves Auto through the environment; other kinds pass through.
EngineKind resolve_engine_kind(EngineKind kind);

const char* to_string(EngineKind kind);

/// SAT backend budget (the analogue of PodemOptions::max_backtracks).
struct SatOptions {
  /// CDCL conflict budget per generate() call; exceeding it -> Aborted.
  std::uint64_t max_conflicts = 50000;
};

/// Per-engine budgets, fixed at engine construction.
struct EngineOptions {
  PodemOptions podem{};
  SatOptions sat{};
};

/// Outcome of one constrained generation attempt.  Reuses the PODEM status
/// vocabulary: Success / Untestable are definitive, Aborted claims nothing.
struct GenResult {
  PodemStatus status = PodemStatus::Aborted;
  Cube cube;                      ///< valid when status == Success
  std::uint32_t backtracks = 0;   ///< PODEM backtracks spent in this call
  std::uint64_t conflicts = 0;    ///< CDCL conflicts spent in this call
  std::uint32_t sat_calls = 0;    ///< queries the SAT engine answered (0 or 1)
};

/// Abstract constrained-ATPG engine.  Implementations hold per-netlist
/// scratch and are reusable across calls; they are not thread-safe — use
/// one instance per thread, like Podem itself.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Generates a test cube for \p f honouring \p constraints (null = all
  /// free).  Untestable means redundant *under the given constraints*.
  virtual GenResult generate(const fault::Fault& f,
                             const PpiConstraints* constraints) = 0;

  /// Stable engine name ("podem", "sat", "race") for logs and metrics.
  virtual std::string_view name() const = 0;
};

/// Builds an engine over a shared evaluation graph.  \p scoap must outlive
/// the engine (PODEM's backtrace reads it); \p kind must not be Auto —
/// resolve first.
std::unique_ptr<Engine> make_engine(EngineKind kind, sim::EvalGraph::Ref graph,
                                    const tmeas::Scoap& scoap,
                                    const EngineOptions& options = {});

}  // namespace vcomp::atpg
