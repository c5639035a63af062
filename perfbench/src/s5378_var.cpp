// s5378-var: the ATPG-bound workload.
//
// s5378 with variable shift, most-faults selection, PODEM and one chain,
// at one thread: stitch CPU then equals wall time minus preemption, and
// wall time only adds noise.  Constrained PODEM is ~97% of the stitched
// run, so an ATPG change shows here and a scan change should not.
//
// The stitched run is the repository's own at every benchmark seed
// (StitchOptions::seed 1).  Over run seeds 0-9 its m moved 8% and t 12%,
// more than a bound on compression could allow; with the run fixed, run.py
// checks m, t, TV, ex and the work counters against BENCH_stitch.json on
// every run.  The benchmark seed varies the traced run's probe sample.

#include <algorithm>
#include <exception>
#include <memory>
#include <string>

#include "lab.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/scan/fabric.hpp"

namespace perfbench {

namespace {

using namespace vcomp;

/// Lab builds per run; setup_s is their median.
constexpr int kSetupReps = 5;

}  // namespace

void run_s5378_var(const Args& args, Tracer& tracer, Result& result) {
  util::ThreadPool::instance().configure(1);

  // Input: the repository's generated circuit (netgen is not on the user
  // path).
  const netlist::Netlist nl = netgen::generate(netgen::profile("s5378"));

  // Set-up: build the program's CircuitLab several times and keep the last.
  // The traced run decomposes one build of its own right after each, so
  // both see the same state of the host; obs.setup_coverage is the ratio of
  // their sums.
  std::map<std::string, double> stage_cpu;
  std::vector<double> setup_wall;
  double decomposed_cpu = 0;
  std::unique_ptr<const core::CircuitLab> lab;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    lab.reset();
    netlist::Netlist input = nl;
    const Interval iv = timed([&] {
      const Tracer::Scope s(tracer, "core.CircuitLab");
      lab = std::make_unique<const core::CircuitLab>("s5378", std::move(input));
    });
    result.samples["setup_s"].push_back(iv.cpu_s);
    setup_wall.push_back(iv.wall_s);
    if (args.trace) decomposed_cpu += decompose_setup(nl, tracer, stage_cpu);
  }

  core::StitchOptions opts;
  opts.num_chains = 1;
  opts.partition = scan::PartitionPolicy::RoundRobin;
  opts.selection = core::SelectionPolicy::MostFaults;
  opts.atpg_engine = atpg::EngineKind::Podem;
  opts.capture = scan::CaptureMode::Normal;
  opts.fixed_shift = 0;  // variable shift
  opts.seed = 1;

  // One stitched run: one attempt.
  ++result.attempted;
  std::pair<core::StitchResult, obs::CounterSet> run;
  Interval iv;
  try {
    const Tracer::Scope s(tracer, "core.CircuitLab::run");
    iv = timed([&] { run = run_in_scope([&] { return lab->run(opts); }); });
  } catch (const std::exception& e) {
    result.attempt_failed(std::string("stitched run threw: ") + e.what());
    return;
  }
  const auto& [r, counters] = run;
  if (r.uncovered > 0)
    result.attempt_failed("uncovered faults: " + std::to_string(r.uncovered));
  // A user waits for set-up and the stitched run, as one vcomp_stitch call.
  const double latency = median(setup_wall) + iv.wall_s;
  result.samples["stitch_cpu_s"].push_back(iv.cpu_s);
  result.samples["job_latency_s"].push_back(latency);
  result.values["peak_rss_mb"] = peak_rss_mb();
  result.values["jobs"] = 1;
  result.values["loop_wall_s"] = latency;
  result.values["m"] = r.memory_ratio;
  result.values["t"] = r.time_ratio;
  result.values["tv"] = double(r.vectors_applied);
  result.values["ex"] = double(r.extra_full_vectors);
  result.reference_counters = r.profile.counters_only().values;
  if (!args.trace) return;

  // ---- traced run: per-layer metrics and cross-checks ---------------------
  auto& L = result.layers;
  for (const auto& [name, cpu] : stage_cpu) L[name] = cpu / kSetupReps;
  double setup_cpu = 0;
  for (double v : result.samples["setup_s"]) setup_cpu += v;
  L["obs.setup_coverage"] = decomposed_cpu / setup_cpu;
  L["atpg.baseline_vectors"] = double(lab->atv());
  L["fault.collapsed"] = double(lab->faults().size());

  StitchLayers stitch;
  stitch.add(r, counters, 1.0);
  stitch.write(L);
  const double setup_s = median(result.samples["setup_s"]);
  L["obs.layer_coverage"] =
      (L["obs.setup_coverage"] * setup_s + stitch.phase_seconds()) /
      (setup_s + stitch.total_seconds());
  L["util.threads"] = double(util::parallelism());
  L["util.busy_cores"] = iv.cpu_s / std::max(iv.wall_s, 1e-9);

  add_replay_layers(replay_and_probe(*lab, opts, r, args.seed, tracer),
                    result);
}

}  // namespace perfbench
