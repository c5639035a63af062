#pragma once

/// \file protocol.hpp
/// The serve daemon's NDJSON wire protocol.
///
/// Requests (one JSON object per line):
///
///   {"op":"submit","id":"j1","circuit":"gen:c432","config":{...}}
///   {"op":"status"}
///   {"op":"ping"}
///   {"op":"shutdown"}
///
/// `config` holds the job keys of serve/job.hpp, the same table the
/// vcomp_stitch flags come from (see DESIGN.md §11 for the full grammar).
/// Unknown keys are rejected — in `config` and at the top level of a
/// submit — so a typo never silently runs the default configuration.
///
/// Events emitted by the daemon (one per line):
///
///   {"event":"accepted","id":"j1"}
///   {"event":"progress","id":"j1","cycle":N,"caught_shift":N,
///    "caught_po":N,"hidden":N}
///   {"event":"result","id":"j1","row":{...}}        (see result_row)
///   {"event":"error","id":"j1","message":"..."}
///   {"event":"status",...}   {"event":"pong"}   {"event":"bye"}
///
/// result_row() is the canonical single-line Table-2-style row, shared
/// byte for byte with `vcomp_stitch --row`: the serve determinism
/// contract literally diffs daemon rows against CLI rows.

#include <optional>
#include <string>

#include "vcomp/core/stitch_engine.hpp"
#include "vcomp/obs/metrics.hpp"
#include "vcomp/serve/job.hpp"
#include "vcomp/serve/json.hpp"

namespace vcomp::serve {

struct Request {
  enum class Op { Submit, Status, Ping, Shutdown };
  Op op = Op::Ping;
  JobSpec job;  ///< valid when op == Submit
};

/// Why a request line was rejected, as its error event reports it.
struct RequestError {
  std::string id;       ///< the submit's id if the line has one, else empty
  std::string message;  ///< human-readable reason
};

/// Parses one request line.  On failure returns nullopt and fills \p error;
/// a submit whose id parsed carries it, so a pipelining client can tell
/// which job was rejected.
std::optional<Request> parse_request(const std::string& line,
                                     RequestError& error);

/// Applies one config object onto \p spec through set_job_key().  Returns
/// false + \p error on unknown keys or bad values.
bool apply_config(const Json& config, JobSpec& spec, std::string& error);

/// Display label of a job's circuit: the spec itself, with "#full"
/// appended when the gate-budget cap is lifted — the same label the CLI
/// computes, so rows compare byte for byte.
std::string circuit_label(const std::string& circuit, bool full_scale);

/// The canonical single-line result row: Table-2 quantities (TV / ex /
/// aTV / t / m), coverage accounting, and the job's scoped obs counters
/// (a counters_only() view: zero-valued names registered by unrelated code
/// paths are not in it, so they cannot make identical rows differ).  Keys
/// are emitted in a fixed order; doubles use the fixed %.6f format.
std::string result_row(const std::string& label, const core::StitchResult& r,
                       const obs::CounterSet& counters);

}  // namespace vcomp::serve
