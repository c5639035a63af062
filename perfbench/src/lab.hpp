#pragma once

// What both workloads share: stitched runs under their own obs scope, the
// per-layer metrics of stitched runs, the traced run's set-up decomposition
// and its replay and ATPG-probe cross-checks.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "vcomp/core/experiment.hpp"
#include "vcomp/core/stitch_engine.hpp"
#include "vcomp/netlist/netlist.hpp"
#include "vcomp/obs/metrics.hpp"
#include "vcomp/util/parallel.hpp"

namespace perfbench {

/// Runs \p f under span \p span and adds its process-CPU seconds to
/// \p stage_cpu[\p metric] and to \p sum; returns what \p f returns.
template <class F>
auto stage(const char* span, const char* metric, Tracer& tracer,
           std::map<std::string, double>& stage_cpu, double& sum, F&& f) {
  const Tracer::Scope s(tracer, span);
  const double c0 = cpu_now();
  auto out = f();
  const double cpu = cpu_now() - c0;
  stage_cpu[metric] += cpu;
  sum += cpu;
  return out;
}

/// Repeats the work of the CircuitLab constructor on \p nl (collapse,
/// EvalGraph, SCOAP, compact model with compaction on, baseline ATPG)
/// through the same public calls, timing each stage from outside.  Adds
/// each stage's process-CPU seconds to \p stage_cpu under its per-layer
/// metric name (fault.collapse_s, sim.compile_s, tmeas.scoap_s,
/// fault.compact_s, atpg.baseline_s) and returns their sum.  Only the traced
/// run calls it: set-up itself is timed on the program's own CircuitLab,
/// and this sum over that time is the set-up coverage, so work the program
/// adds to set-up shows as lost coverage.
double decompose_setup(const vcomp::netlist::Netlist& nl, Tracer& tracer,
                       std::map<std::string, double>& stage_cpu);

/// Runs \p run (one stitched run) under its own obs scope, as the serve
/// daemon and `vcomp_stitch --row` do, and returns its result with the
/// scope's counters.
template <class F>
std::pair<vcomp::core::StitchResult, vcomp::obs::CounterSet> run_in_scope(
    F&& run) {
  vcomp::obs::Registry& reg = vcomp::obs::Registry::instance();
  const std::uint64_t token = vcomp::util::new_task_token();
  reg.begin_scope(token);
  std::pair<vcomp::core::StitchResult, vcomp::obs::CounterSet> out;
  try {
    const vcomp::util::ScopedTaskContext scope(
        vcomp::util::TaskContext{token, nullptr});
    out.first = run();
  } catch (...) {
    reg.end_scope(token);
    throw;
  }
  out.second = reg.snapshot_scope(token).counters_only();
  reg.end_scope(token);
  return out;
}

/// The atpg, scan and core per-layer metrics of stitched runs, summed run
/// by run.
class StitchLayers {
 public:
  /// Adds run \p r, counted \p weight times; \p counters is the run's
  /// scoped obs snapshot.
  void add(const vcomp::core::StitchResult& r,
           const vcomp::obs::CounterSet& counters, double weight);
  /// Writes the sums plus atpg.yield, atpg.us_per_call and
  /// obs.stitch_coverage into \p layers.
  void write(std::map<std::string, double>& layers) const;
  /// Seconds in the timed phases, and in the whole runs they decompose.
  double phase_seconds() const { return phase_s_; }
  double total_seconds() const { return total_s_; }

 private:
  std::map<std::string, double> sums_;
  double phase_s_ = 0;
  double total_s_ = 0;
  double hidden_peak_ = 0;
};

/// Outcome of replaying a stitched run's schedule through a fresh
/// StitchTracker, probing the ATPG engine before every stitched cycle.
struct ReplayStats {
  std::size_t cycles = 0;      ///< cycles replayed
  std::size_t mismatches = 0;  ///< cycles whose CycleStats differ
  double replay_s = 0;         ///< wall seconds in apply_first/apply_stitched
  std::vector<double> probe_us;  ///< wall microseconds per probe
  std::size_t probe_untestable = 0;
};

/// Replays \p r.schedule on \p lab, which produced it under \p opts, and
/// compares every cycle's CycleStats with \p r.cycles.  Before each stitched
/// cycle, probes Engine::generate on a seeded sample of uncaught targets
/// under that cycle's pinned retained bits.
ReplayStats replay_and_probe(const vcomp::core::CircuitLab& lab,
                             const vcomp::core::StitchOptions& opts,
                             const vcomp::core::StitchResult& r,
                             std::uint64_t seed, Tracer& tracer);

/// Writes the replay and probe metrics of \p rs; a replay mismatch fails
/// the run's attempt.
void add_replay_layers(const ReplayStats& rs, Result& result);

}  // namespace perfbench
