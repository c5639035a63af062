#include "vcomp/core/stitch_engine.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "vcomp/core/experiment.hpp"
#include "vcomp/core/tracker.hpp"
#include "vcomp/fault/fault_sim.hpp"
#include "vcomp/netgen/example_circuit.hpp"
#include "vcomp/obs/trace.hpp"
#include "vcomp/serve/json.hpp"

namespace vcomp::core {
namespace {

// Shared labs (baseline ATPG is the expensive part; build once).
const CircuitLab& example_lab() {
  static const CircuitLab lab("example", netgen::example_circuit());
  return lab;
}

const CircuitLab& s444_lab() {
  static const CircuitLab lab(netgen::profile("s444"));
  return lab;
}

TEST(StitchEngine, ExampleCircuitFullCoverage) {
  StitchOptions opts;
  opts.fixed_shift = 2;
  const auto res = example_lab().run(opts);
  EXPECT_EQ(res.uncovered, 0u);
  EXPECT_EQ(res.targets, 17u);
  EXPECT_GT(res.vectors_applied, 0u);
}

TEST(StitchEngine, ExampleCircuitSavesTimeAndMemory) {
  StitchOptions opts;
  opts.fixed_shift = 2;
  const auto res = example_lab().run(opts);
  if (res.extra_full_vectors == 0) {
    EXPECT_LT(res.time_ratio, 1.0);
    EXPECT_LT(res.memory_ratio, 1.0);
  }
}

TEST(StitchEngine, CoveragePreservedOnS444) {
  StitchOptions opts;
  opts.seed = 5;
  const auto res = s444_lab().run(opts);
  EXPECT_EQ(res.uncovered, 0u) << "stitching must not lose fault coverage";
  EXPECT_EQ(res.caught_stitched + res.caught_flush + res.caught_extra,
            res.targets);
}

TEST(StitchEngine, VariableShiftBeatsFullShiftOnS444) {
  StitchOptions opts;
  opts.seed = 5;
  const auto res = s444_lab().run(opts);
  EXPECT_LT(res.time_ratio, 1.0);
}

TEST(StitchEngine, CostConsistentWithCycleTrace) {
  StitchOptions opts;
  opts.seed = 5;
  const auto res = s444_lab().run(opts);
  // Recompute shift cycles from the per-cycle trace.
  const auto& nl = s444_lab().netlist();
  std::uint64_t cycles = 0;
  for (std::size_t c = 1; c < res.cycles.size(); ++c)
    cycles += res.cycles[c].shift;
  cycles += nl.num_dffs();  // initial load
  EXPECT_LE(cycles, res.cost.shift_cycles);
  EXPECT_LE(res.cost.shift_cycles,
            cycles + nl.num_dffs() * (res.extra_full_vectors + 2));
}

TEST(StitchEngine, DeterministicForSeed) {
  StitchOptions opts;
  opts.seed = 9;
  const auto a = s444_lab().run(opts);
  const auto b = s444_lab().run(opts);
  EXPECT_EQ(a.vectors_applied, b.vectors_applied);
  EXPECT_EQ(a.cost.shift_cycles, b.cost.shift_cycles);
  EXPECT_EQ(a.cost.memory_bits(), b.cost.memory_bits());
  EXPECT_EQ(a.extra_full_vectors, b.extra_full_vectors);
}

TEST(StitchEngine, SelectionPoliciesAllPreserveCoverage) {
  for (auto sel : {SelectionPolicy::Random, SelectionPolicy::Hardness,
                   SelectionPolicy::MostFaults}) {
    StitchOptions opts;
    opts.selection = sel;
    opts.seed = 13;
    const auto res = s444_lab().run(opts);
    EXPECT_EQ(res.uncovered, 0u) << to_string(sel);
  }
}

TEST(StitchEngine, CaptureAndObserveVariantsPreserveCoverage) {
  {
    StitchOptions opts;
    opts.capture = scan::CaptureMode::VXor;
    EXPECT_EQ(s444_lab().run(opts).uncovered, 0u);
  }
  {
    StitchOptions opts;
    opts.hxor_taps = 3;
    EXPECT_EQ(s444_lab().run(opts).uncovered, 0u);
  }
}

TEST(StitchEngine, SmallFixedShiftNeedsMoreExtras) {
  // The paper's Table 2 trend: tiny shifts strangle controllability, so
  // more faults fall through to the traditional phase than at larger
  // shifts.
  StitchOptions small;
  small.fixed_shift = 2;
  small.seed = 21;
  StitchOptions large;
  large.fixed_shift = 18;
  large.seed = 21;
  const auto rs = s444_lab().run(small);
  const auto rl = s444_lab().run(large);
  EXPECT_GE(rs.extra_full_vectors, rl.extra_full_vectors);
}

TEST(StitchEngine, HiddenPeakTracked) {
  StitchOptions opts;
  opts.seed = 5;
  const auto res = s444_lab().run(opts);
  EXPECT_GT(res.hidden_peak, 0u);
}

TEST(StitchEngine, MaxCyclesRespected) {
  StitchOptions opts;
  opts.max_cycles = 3;
  const auto res = s444_lab().run(opts);
  EXPECT_LE(res.vectors_applied, 3u);
  EXPECT_EQ(res.uncovered, 0u);  // leftovers covered by the ex phase
}

TEST(StitchEngine, ExPhaseKeepsTheOneVectorLoopsVectors) {
  // The ex phase drops the leftover faults with the baseline pool, 64
  // pool vectors per pass.  Replaying the stitched cycles finds the
  // leftovers; the one-vector dropping loop over the pool must keep
  // exactly the vectors the run appended.
  static const CircuitLab lab(netgen::profile("s953"));
  const fault::CollapsedFaults& faults = lab.faults();
  ASSERT_GT(lab.atv(), 64u);  // the pool spans several passes
  for (const std::size_t max_cycles : {std::size_t{2}, std::size_t{30}}) {
    StitchOptions opts;
    opts.max_cycles = max_cycles;
    const StitchResult res = lab.run(opts);

    std::vector<std::uint8_t> track(faults.size(), 1);
    std::vector<std::uint8_t> targetable(faults.size(), 0);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const atpg::FaultClass c = lab.baseline().classes[i];
      track[i] = c != atpg::FaultClass::Redundant;
      targetable[i] = c == atpg::FaultClass::Detected;
    }
    const scan::Fabric fabric(lab.netlist());
    StitchTracker tracker(lab.artifacts().graph, faults, opts.capture,
                          fabric, scan::FabricOut::direct(fabric), track,
                          lab.artifacts().compact);
    const StitchedSchedule& sch = res.schedule;
    for (std::size_t k = 0; k < sch.vectors.size(); ++k) {
      if (k == 0)
        tracker.apply_first(sch.vectors[0]);
      else
        tracker.apply_stitched(sch.vectors[k], sch.shifts[k]);
    }
    std::vector<fault::Fault> remaining;
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (targetable[i] && tracker.sets().state(i) == FaultState::Uncaught)
        remaining.push_back(faults[i]);

    fault::DiffSim sim(lab.netlist());
    std::vector<atpg::TestVector> want;
    std::size_t caught = 0;
    for (const atpg::TestVector& v : lab.baseline().vectors) {
      if (remaining.empty()) break;
      for (std::size_t i = 0; i < v.pi.size(); ++i)
        sim.good().set_input(i, v.pi[i] ? ~sim::Word{0} : sim::Word{0});
      for (std::size_t i = 0; i < v.ppi.size(); ++i)
        sim.good().set_state(i, v.ppi[i] ? ~sim::Word{0} : sim::Word{0});
      sim.commit_good();
      const std::size_t before = remaining.size();
      std::erase_if(remaining, [&](const fault::Fault& f) {
        return sim.simulate(f).any() != 0;
      });
      if (remaining.size() < before) want.push_back(v);
      caught += before - remaining.size();
    }
    EXPECT_TRUE(remaining.empty());
    EXPECT_GT(want.size(), 0u) << max_cycles;
    EXPECT_EQ(sch.extra, want) << max_cycles;
    EXPECT_EQ(res.caught_extra, caught) << max_cycles;
    EXPECT_EQ(res.extra_full_vectors, want.size()) << max_cycles;
  }
}

/// Summed duration (seconds) and count of the buffered trace's spans, by
/// name.
std::map<std::string, std::pair<double, std::size_t>> traced_spans() {
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const auto doc = serve::Json::parse(os.str());
  EXPECT_TRUE(doc.has_value()) << os.str();
  std::map<std::string, std::pair<double, std::size_t>> out;
  if (!doc) return out;
  for (const serve::Json& ev : doc->find("traceEvents")->items()) {
    auto& [seconds, count] = out[ev.find("name")->as_string()];
    seconds += ev.find("dur")->as_double() * 1e-6;
    ++count;
  }
  return out;
}

TEST(StitchEngine, ProfileEqualsTracedSpans) {
  // --profile and --trace read the same clock: every PhaseProfile seconds
  // field is the summed duration of its phase's spans (within 1 us per
  // span), and the six phases fit inside the run.  s1423 at the 3/8 point
  // ends with appended vectors (ex = 189, the stitch.drop span); s444 on
  // two chains ends with hidden faults and no ex, so it takes the partial
  // observation.
  const CircuitLab s1423(netgen::profile("s1423"));
  StitchOptions three_eighths;
  ASSERT_TRUE(apply_info_ratio(three_eighths, s1423.netlist(), 3.0 / 8));
  StitchOptions two_chains;
  two_chains.num_chains = 2;
  two_chains.seed = 3;
  const std::pair<const CircuitLab*, StitchOptions> cases[] = {
      {&s1423, three_eighths}, {&s444_lab(), two_chains}};
  std::size_t drops = 0, partials = 0;
  for (const auto& [lab, opts] : cases) {
    obs::clear_trace();
    obs::set_trace_enabled(true);
    const StitchResult r = lab->run(opts);
    obs::set_trace_enabled(false);
    const auto spans = traced_spans();
    obs::clear_trace();
    const auto expect_spans = [&](double field,
                                  std::initializer_list<const char*> names) {
      double sum = 0;
      std::size_t count = 0;
      for (const char* name : names) {
        const auto it = spans.find(name);
        if (it == spans.end()) continue;
        sum += it->second.first;
        count += it->second.second;
      }
      EXPECT_NEAR(field, sum, 1e-6 * double(count + 1)) << *names.begin();
    };
    const PhaseProfile& p = r.profile;
    expect_spans(p.podem_seconds, {"stitch.podem"});
    expect_spans(p.scoring_seconds, {"stitch.score"});
    expect_spans(p.shift_seconds, {"tracker.shift"});
    expect_spans(p.classify_seconds, {"tracker.classify"});
    expect_spans(p.advance_seconds, {"tracker.advance"});
    expect_spans(p.terminal_seconds, {"tracker.terminal_observe",
                                      "tracker.partial_observe",
                                      "stitch.drop"});
    expect_spans(p.total_seconds, {"stitch.run"});
    EXPECT_EQ(spans.count("stitch.run"), 1u);
    EXPECT_LE(p.podem_seconds + p.scoring_seconds + p.shift_seconds +
                  p.classify_seconds + p.advance_seconds + p.terminal_seconds,
              p.total_seconds);
    if (spans.count("stitch.drop")) drops += spans.at("stitch.drop").second;
    if (spans.count("tracker.partial_observe"))
      partials += spans.at("tracker.partial_observe").second;
  }
  EXPECT_GT(drops, 0u);
  EXPECT_GT(partials, 0u);
}

TEST(ApplyInfoRatio, ComputesShiftFromCircuit) {
  StitchOptions opts;
  // s444 profile: PI=3, PO=6, L=21 — the 5/8 point is shift 11.
  EXPECT_TRUE(apply_info_ratio(opts, s444_lab().netlist(), 5.0 / 8));
  EXPECT_EQ(opts.fixed_shift, 11u);
}

}  // namespace
}  // namespace vcomp::core
