#include "lab.hpp"

#include <algorithm>
#include <cmath>

#include "vcomp/atpg/engine.hpp"
#include "vcomp/atpg/test_set.hpp"
#include "vcomp/core/tracker.hpp"
#include "vcomp/fault/collapse.hpp"
#include "vcomp/fault/compact_model.hpp"
#include "vcomp/scan/fabric.hpp"
#include "vcomp/sim/trit.hpp"
#include "vcomp/tmeas/scoap.hpp"
#include "vcomp/util/rng.hpp"

namespace perfbench {

namespace {

using namespace vcomp;

/// Samples this many uncaught targets per replayed stitched cycle.
constexpr std::size_t kProbesPerCycle = 4;

/// Nearest-rank percentile \p q in [0,1] of \p v (0 when empty).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = std::size_t(std::ceil(q * double(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

}  // namespace

double decompose_setup(const netlist::Netlist& nl, Tracer& tracer,
                       std::map<std::string, double>& stage_cpu) {
  const Tracer::Scope s(tracer, "setup.decompose");
  double sum = 0;
  const auto faults =
      stage("fault.collapsed_fault_list", "fault.collapse_s", tracer,
            stage_cpu, sum, [&] { return fault::collapsed_fault_list(nl); });
  const auto graph = stage("sim.EvalGraph::compile", "sim.compile_s", tracer,
                           stage_cpu, sum,
                           [&] { return sim::EvalGraph::compile(nl); });
  stage("tmeas.Scoap", "tmeas.scoap_s", tracer, stage_cpu, sum,
        [&] { return std::make_shared<const tmeas::Scoap>(*graph); });
  stage("fault.CompactModel", "fault.compact_s", tracer, stage_cpu, sum, [&] {
    return std::make_shared<const fault::CompactModel>(graph, faults.faults(),
                                                       /*enable=*/true);
  });
  stage("atpg.generate_full_scan_tests", "atpg.baseline_s", tracer, stage_cpu,
        sum,
        [&] { return atpg::generate_full_scan_tests(nl, faults.faults()); });
  return sum;
}

ReplayStats replay_and_probe(const core::CircuitLab& lab,
                             const core::StitchOptions& opts,
                             const core::StitchResult& r, std::uint64_t seed,
                             Tracer& tracer) {
  const Tracer::Scope span(tracer, "check.replay");
  ReplayStats out;
  const fault::CollapsedFaults& faults = lab.faults();
  const core::CircuitArtifacts& artifacts = lab.artifacts();
  const scan::Fabric fabric(lab.netlist(), opts.num_chains, opts.partition,
                            opts.partition_seed);
  std::vector<std::uint8_t> track(faults.size(), 1);
  std::vector<std::uint8_t> targetable(faults.size(), 0);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const atpg::FaultClass c = lab.baseline().classes[i];
    if (c == atpg::FaultClass::Redundant) track[i] = 0;
    if (c == atpg::FaultClass::Detected) targetable[i] = 1;
  }
  const scan::FabricOut out_model =
      opts.hxor_taps > 0 ? scan::FabricOut::hxor(fabric, opts.hxor_taps)
                         : scan::FabricOut::direct(fabric);
  core::StitchTracker tracker(artifacts.graph, faults, opts.capture, fabric,
                              out_model, std::move(track), artifacts.compact);
  tracker.mutable_sets().set_targetable(targetable);
  const auto engine = atpg::make_engine(
      atpg::resolve_engine_kind(opts.atpg_engine), artifacts.graph,
      *artifacts.scoap, {.podem = opts.podem, .sat = opts.sat});

  const core::StitchedSchedule& sch = r.schedule;
  if (sch.vectors.size() != r.cycles.size()) ++out.mismatches;
  std::vector<std::size_t> uncaught;
  for (std::size_t k = 0; k < sch.vectors.size(); ++k) {
    core::CycleStats st;
    if (k == 0) {
      const double w0 = wall_now();
      st = tracker.apply_first(sch.vectors[0]);
      out.replay_s += wall_now() - w0;
    } else {
      const scan::ShiftPlan plan = fabric.num_chains() > 1
                                       ? sch.plans[k]
                                       : fabric.plan_for(sch.shifts[k]);
      // Probe: the same question the engine asked in this cycle, on a
      // fixed seeded sample of the targets still uncaught.
      atpg::PpiConstraints cons;
      cons.fixed.assign(fabric.total_length(), sim::Trit::X);
      for (std::size_t c = 0; c < fabric.num_chains(); ++c)
        for (std::size_t p = plan[c]; p < fabric.chain_length(c); ++p)
          cons.fixed[fabric.dff_at(c, p)] =
              tracker.state().chain(c).at(p - plan[c]) ? sim::Trit::One
                                                       : sim::Trit::Zero;
      uncaught.clear();
      for (std::size_t i = 0; i < faults.size(); ++i)
        if (targetable[i] &&
            tracker.sets().state(i) == core::FaultState::Uncaught)
          uncaught.push_back(i);
      Rng rng(derive_seed(k, seed));
      for (std::size_t n = 0; n < kProbesPerCycle && !uncaught.empty(); ++n) {
        const std::size_t idx = uncaught[rng.below(uncaught.size())];
        const double w0 = wall_now();
        const atpg::GenResult g = engine->generate(faults[idx], &cons);
        out.probe_us.push_back(1e6 * (wall_now() - w0));
        if (g.status == atpg::PodemStatus::Untestable) ++out.probe_untestable;
      }
      const double w0 = wall_now();
      st = tracker.apply_stitched(sch.vectors[k], plan);
      out.replay_s += wall_now() - w0;
    }
    if (k >= r.cycles.size() || !(st == r.cycles[k])) ++out.mismatches;
    ++out.cycles;
  }
  return out;
}

void StitchLayers::add(const core::StitchResult& r,
                       const obs::CounterSet& counters, double weight) {
  const core::PhaseProfile& p = r.profile;
  const std::pair<const char*, double> sums[] = {
      {"atpg.constrained_s", p.podem_seconds},
      {"atpg.calls", double(p.podem_calls)},
      {"atpg.cubes", double(p.cubes_found)},
      {"atpg.backtracks", double(p.podem_backtracks)},
      {"atpg.aborted", double(p.aborted)},
      {"atpg.sat_calls", double(p.sat_calls)},
      {"atpg.sat_conflicts", double(p.sat_conflicts)},
      {"podem.implications", double(counters.get("podem.implications"))},
      {"podem.constrained_untestable",
       double(counters.get("podem.constrained_untestable"))},
      {"scan.shift_s", p.shift_seconds},
      {"core.scoring_s", p.scoring_seconds},
      {"core.candidates_scored", double(p.candidates_scored)},
      {"core.classify_s", p.classify_seconds},
      {"core.faults_classified", double(p.faults_classified)},
      {"core.advance_s", p.advance_seconds},
      {"core.hidden_advanced", double(p.hidden_advanced)},
      {"core.terminal_s", p.terminal_seconds},
      {"core.cycles", double(r.cycles.size())},
  };
  for (const auto& [name, v] : sums) sums_[name] += weight * v;
  phase_s_ += weight * (p.podem_seconds + p.scoring_seconds + p.shift_seconds +
                        p.classify_seconds + p.advance_seconds +
                        p.terminal_seconds);
  total_s_ += weight * p.total_seconds;
  hidden_peak_ = std::max(hidden_peak_, double(r.hidden_peak));
}

void StitchLayers::write(std::map<std::string, double>& layers) const {
  for (const auto& [name, v] : sums_) layers[name] = v;
  const double calls = layers["atpg.calls"];
  layers["atpg.yield"] = calls > 0 ? layers["atpg.cubes"] / calls : 0;
  layers["atpg.us_per_call"] =
      calls > 0 ? 1e6 * layers["atpg.constrained_s"] / calls : 0;
  layers["core.hidden_peak"] = hidden_peak_;
  layers["obs.stitch_coverage"] = total_s_ > 0 ? phase_s_ / total_s_ : 0;
}

void add_replay_layers(const ReplayStats& rs, Result& result) {
  auto& L = result.layers;
  L["core.replay_s"] = rs.replay_s;
  L["core.replay_us_per_cycle"] =
      rs.cycles > 0 ? 1e6 * rs.replay_s / double(rs.cycles) : 0;
  L["atpg.probe_p50_us"] = percentile(rs.probe_us, 0.50);
  L["atpg.probe_p99_us"] = percentile(rs.probe_us, 0.99);
  L["atpg.probe_untestable_ratio"] =
      rs.probe_us.empty()
          ? 0
          : double(rs.probe_untestable) / double(rs.probe_us.size());
  if (rs.mismatches > 0)
    result.attempt_failed("replay: " + std::to_string(rs.mismatches) +
                          " cycles differ from the engine's CycleStats");
}

}  // namespace perfbench
