#pragma once

/// \file job.hpp
/// One stitching job as `vcomp_stitch` and the `vcomp_serve` daemon both
/// take it: one key table, one circuit loader, one runner.  `--chains 4`
/// on the CLI and `"chains":4` in a submit's `config` go through the same
/// setter, so a bad value gets one message (an InputError) on both.

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "vcomp/core/experiment.hpp"
#include "vcomp/core/ga_schedule.hpp"
#include "vcomp/serve/json.hpp"
#include "vcomp/util/assert.hpp"

namespace vcomp::serve {

/// One stitching job: its circuit and the value of every job key.
struct JobSpec {
  std::string id;            ///< client-chosen job id (echoed in events)
  std::string circuit;       ///< gen:<profile> or a netlist file path
  bool full_scale = false;   ///< lift the netgen gate budget (gen: only)
  double info = 0.0;         ///< >0: fixed shift at this Table-2 info point
  bool ga_shift = false;     ///< shift "ga": evolve a schedule, then run it
  core::GaOptions ga;        ///< GA budgets; the seed is options.seed
  std::size_t progress_every = 0;  ///< progress event every N cycles (0=off)
  core::StitchOptions options;     ///< on_cycle left empty; run_spec fills it
};

/// Sets job key \p key from \p value; InputError ("unknown job key: …",
/// "<key> must be …") on an unknown key or a bad value.
void set_job_key(JobSpec& spec, std::string_view key, const Json& value);

/// The CLI spelling: if args[i] is `--<key>` ('-' for '_'), sets the key
/// from args[i+1] read as a JSON scalar (strings unquoted; no value for the
/// boolean flag), leaves \p i on the last token used and returns true.
/// Returns false for any other token; InputError on a missing value.
bool apply_job_flag(const std::vector<std::string>& args, std::size_t& i,
                    JobSpec& spec);

/// Usage text for every job key in its CLI spelling, one line per key.
std::string job_flags_usage();

/// Reads \p text, the value of a tool's own CLI flag \p flag ("--port"),
/// as a T: an integer in T's range for unsigned T, a non-negative finite
/// number for floating-point T.  InputError ("port must be an integer
/// from 0 to 65535") on anything else, e.g. "abc", "-1", "4x" or "".
/// Every tool reads its numeric flags through this one parser.
template <class T>
T parse_flag_number(std::string_view flag, std::string_view text) {
  static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>)
    ok = ok && std::isfinite(v) && v >= 0;
  if (ok) return v;
  std::string what = "a non-negative number";
  if constexpr (std::is_unsigned_v<T>)
    what = sizeof(T) >= sizeof(std::uint64_t)
               ? "a non-negative integer"
               : "an integer from 0 to " +
                     std::to_string(std::numeric_limits<T>::max());
  const std::string_view name = flag.substr(flag.rfind("--", 0) == 0 ? 2 : 0);
  throw InputError(std::string(name) + " must be " + what);
}

/// Reads "gen:<profile>" (a netgen circuit; \p full_scale lifts its gate
/// budget), a .v / .sv structural Verilog file or a .bench file;
/// InputError on a bad circuit or \p full_scale on a file.
netlist::Netlist load_circuit(const std::string& circuit, bool full_scale);

/// spec.options with the info point applied; InputError if chains or shift
/// exceed \p nl's scan cells or the info point is unattainable.  Cheap, so
/// a caller that loads the circuit itself checks the job before it builds
/// the lab (baseline ATPG can take seconds).
core::StitchOptions checked_options(const netlist::Netlist& nl,
                                    const JobSpec& spec);

struct JobRun {
  core::StitchResult result;
  std::string row;                   ///< result_row() of the run
  std::optional<core::GaResult> ga;  ///< the search, when spec.ga_shift
};

/// Runs \p spec on \p lab: checked_options, the GA search (outside the
/// counter window), the run in an obs::scoped_counters window, its
/// result_row.  \p cap bounds the pool workers it recruits; \p progress
/// gets a progress event every spec.progress_every cycles.
JobRun run_spec(const core::CircuitLab& lab, const JobSpec& spec,
                const std::function<void(const std::string&)>& progress = {},
                const std::atomic<std::size_t>* cap = nullptr);

}  // namespace vcomp::serve
