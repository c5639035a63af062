// Thread-count invariance of the parallel stitched-cycle tracker, plus a
// golden regression pinning the Table-2 headline numbers.
//
// The tracker shards its per-cycle uncaught-fault classification over the
// process thread pool and merges the verdicts serially in fault-index
// order, so VCOMP_THREADS=1 (the exact serial flow) and a 4-way pool must
// produce byte-identical CycleStats sequences, FaultSets contents and
// StitchResult schedules.  The golden test freezes the s444 Table-2 rows
// recorded in EXPERIMENTS.md so a perf change that silently alters results
// fails here rather than in a bench diff.

#include <gtest/gtest.h>

#include <vector>

#include "vcomp/core/experiment.hpp"
#include "vcomp/core/tracker.hpp"
#include "vcomp/fault/collapse.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/report/table.hpp"
#include "vcomp/scan/scan_chain.hpp"
#include "vcomp/util/parallel.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::core {
namespace {

/// Everything observable about a tracker after a scripted walk.
struct WalkTrace {
  std::vector<CycleStats> cycles;
  std::vector<FaultState> states;
  std::vector<std::size_t> catch_cycles;          // caught faults only
  std::vector<std::vector<std::uint8_t>> hidden;  // hidden chains, fault order
  std::vector<std::uint8_t> chain;                // final fault-free chain
  obs::CounterSet counters;  // work counters only — never wall-clock
};

/// Runs the tracker_test-style random walk at a fixed thread count.  The
/// vectors depend on the evolving chain state, so any divergence between
/// runs compounds — which is exactly what makes the comparison sharp.
WalkTrace run_walk(const char* name, std::size_t threads,
                   scan::CaptureMode capture, int hxor_taps) {
  util::ScopedParallelism scoped(threads);
  auto nl = netgen::generate(name);
  const auto cf = fault::collapsed_fault_list(nl);
  const std::size_t L = nl.num_dffs();
  const auto out = hxor_taps > 0 ? scan::ScanOutModel::hxor(L, hxor_taps)
                                 : scan::ScanOutModel::direct(L);
  StitchTracker tracker(nl, cf, capture, out);
  Rng rng(2026);

  auto random_vector = [&](std::size_t s) {
    atpg::TestVector v;
    v.pi.resize(nl.num_inputs());
    for (auto& b : v.pi) b = rng.bit();
    v.ppi.resize(L);
    // One identity-ordered chain: position p holds flip-flop p.
    for (std::size_t p = 0; p < L; ++p)
      v.ppi[p] = (s < L && p >= s) ? tracker.chain().at(p - s)
                                   : static_cast<std::uint8_t>(rng.bit());
    return v;
  };

  WalkTrace tr;
  tr.cycles.push_back(tracker.apply_first(random_vector(L)));
  for (int c = 0; c < 40; ++c) {
    const std::size_t s = 1 + rng.below(L);
    tr.cycles.push_back(tracker.apply_stitched(random_vector(s), s));
  }
  for (std::size_t i = 0; i < cf.size(); ++i) {
    tr.states.push_back(tracker.sets().state(i));
    if (tracker.sets().state(i) == FaultState::Caught)
      tr.catch_cycles.push_back(tracker.catch_cycle(i));
    if (tracker.sets().state(i) == FaultState::Hidden)
      tr.hidden.push_back(tracker.hidden_state(i).chain(0).bits());
  }
  tr.chain = tracker.chain().bits();
  tr.counters = tracker.profile().counters_only();
  return tr;
}

TEST(TrackerParallel, WalkIsThreadCountInvariant) {
  struct Mode {
    const char* name;
    scan::CaptureMode capture;
    int taps;
  };
  const Mode modes[] = {
      {"s444", scan::CaptureMode::Normal, 0},
      {"s444", scan::CaptureMode::VXor, 0},
      {"s526", scan::CaptureMode::Normal, 4},  // HXOR scan-out
  };
  for (const auto& m : modes) {
    SCOPED_TRACE(m.name);
    const WalkTrace serial = run_walk(m.name, 1, m.capture, m.taps);
    const WalkTrace pooled = run_walk(m.name, 4, m.capture, m.taps);
    ASSERT_EQ(serial.cycles.size(), pooled.cycles.size());
    for (std::size_t c = 0; c < serial.cycles.size(); ++c) {
      SCOPED_TRACE(c);
      EXPECT_EQ(serial.cycles[c], pooled.cycles[c]);
    }
    EXPECT_EQ(serial.states, pooled.states);
    EXPECT_EQ(serial.catch_cycles, pooled.catch_cycles);
    EXPECT_EQ(serial.hidden, pooled.hidden);
    EXPECT_EQ(serial.chain, pooled.chain);
    // The work counters are part of the determinism contract too: the
    // classification lists and advance batches must not depend on the
    // shard layout.  Compared via the counters_only() view so the
    // wall-clock profile fields can never leak into an assertion.
    EXPECT_EQ(serial.counters, pooled.counters);
    EXPECT_EQ(serial.counters.digest(), pooled.counters.digest());
    // The walk must exercise all three phases to mean anything.
    EXPECT_GT(serial.counters.get("tracker.faults_classified"), 0u);
    EXPECT_GT(serial.counters.get("tracker.hidden_advanced"), 0u);
  }
}

TEST(TrackerParallel, EngineCycleStatsAndScheduleThreadCountInvariant) {
  const CircuitLab lab(netgen::profile("s444"));
  StitchOptions opts;  // variable shift, MostFaults

  const auto run_at = [&](std::size_t threads) {
    util::ScopedParallelism scoped(threads);
    return lab.run(opts);
  };
  const StitchResult serial = run_at(1);
  const StitchResult pooled = run_at(4);

  EXPECT_EQ(serial.cycles, pooled.cycles);  // full CycleStats sequence
  EXPECT_EQ(serial.schedule.vectors, pooled.schedule.vectors);
  EXPECT_EQ(serial.schedule.shifts, pooled.schedule.shifts);
  EXPECT_EQ(serial.schedule.terminal_observe, pooled.schedule.terminal_observe);
  EXPECT_EQ(serial.schedule.extra, pooled.schedule.extra);
  EXPECT_EQ(serial.vectors_applied, pooled.vectors_applied);
  EXPECT_EQ(serial.extra_full_vectors, pooled.extra_full_vectors);
  EXPECT_EQ(serial.time_ratio, pooled.time_ratio);
  EXPECT_EQ(serial.memory_ratio, pooled.memory_ratio);
  EXPECT_EQ(serial.uncovered, pooled.uncovered);
  // Profile *timings* differ run to run, but the work counters may not:
  // compare the counters_only() view, which carries every engine and
  // tracker work counter and none of the wall-clock fields.
  EXPECT_EQ(serial.profile.counters_only(), pooled.profile.counters_only());
}

// Golden regression: the s444 rows of EXPERIMENTS.md Table 2.  These pin
// the exact schedule-level outcome of the default flow; any change here is
// a behavior change, not a perf change, and must update EXPERIMENTS.md.
// The rows encode the PODEM engine's cubes, so the engine is pinned
// explicitly — the test must stay green under a VCOMP_ATPG=sat/race CI leg.
TEST(TrackerParallel, GoldenTable2RowsS444) {
  const CircuitLab lab(netgen::profile("s444"));
  ASSERT_EQ(lab.atv(), 60u);

  StitchOptions var;  // variable-shift policy
  var.atpg_engine = atpg::EngineKind::Podem;
  const StitchResult rv = lab.run(var);
  EXPECT_EQ(rv.vectors_applied, 87u);
  EXPECT_EQ(rv.extra_full_vectors, 0u);
  EXPECT_EQ(report::Table::ratio(rv.memory_ratio), "0.92");
  EXPECT_EQ(report::Table::ratio(rv.time_ratio), "0.81");
  EXPECT_EQ(rv.uncovered, 0u);

  StitchOptions fixed;  // the 5/8 info point (the paper's best fixed shift)
  fixed.atpg_engine = atpg::EngineKind::Podem;
  ASSERT_TRUE(apply_info_ratio(fixed, lab.netlist(), 5.0 / 8));
  const StitchResult rf = lab.run(fixed);
  EXPECT_EQ(rf.vectors_applied, 57u);
  EXPECT_EQ(rf.extra_full_vectors, 38u);
  EXPECT_EQ(report::Table::ratio(rf.memory_ratio), "1.22");
  EXPECT_EQ(report::Table::ratio(rf.time_ratio), "1.14");
  EXPECT_EQ(rf.uncovered, 0u);
}

}  // namespace
}  // namespace vcomp::core
