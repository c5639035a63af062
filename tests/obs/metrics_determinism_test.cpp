// 1-vs-4-thread determinism of the global obs registry, mirroring
// tests/core/parallel_determinism_test.cpp at the metrics level: the
// instrumented engines must perform the same multiset of counter updates
// regardless of VCOMP_THREADS, so a registry snapshot taken after the
// s444 stitched walk (and after a full CircuitLab stitched run) is
// byte-identical across thread counts.  Timings are inherently
// nondeterministic and are excluded by comparing counters_only().

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "vcomp/core/experiment.hpp"
#include "vcomp/core/tracker.hpp"
#include "vcomp/fault/collapse.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/obs/obs.hpp"
#include "vcomp/scan/scan_chain.hpp"
#include "vcomp/util/parallel.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::core {
namespace {

/// The tracker_parallel_test random walk (on s444 by default), run
/// against a clean registry; returns the deterministic slice of the global
/// snapshot.
obs::CounterSet walk_snapshot(std::size_t threads,
                              const char* profile = "s444") {
  util::ScopedParallelism scoped(threads);
  obs::Registry::instance().reset();

  const auto nl = netgen::generate(profile);
  const auto cf = fault::collapsed_fault_list(nl);
  const std::size_t L = nl.num_dffs();
  StitchTracker tracker(nl, cf, scan::CaptureMode::Normal,
                        scan::ScanOutModel::direct(L));
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

  tracker.apply_first(random_vector(L));
  for (int c = 0; c < 40; ++c) {
    const std::size_t s = 1 + rng.below(L);
    tracker.apply_stitched(random_vector(s), s);
  }
  tracker.terminal_observe(L);
  return obs::Registry::instance().snapshot().counters_only();
}

TEST(MetricsDeterminism, TrackerWalkSnapshotThreadCountInvariant) {
  obs::set_metrics_enabled(true);
  const obs::CounterSet one = walk_snapshot(1);
  const obs::CounterSet four = walk_snapshot(4);

  EXPECT_EQ(one, four);
  EXPECT_EQ(one.digest(), four.digest());

  // The walk must actually exercise the instrumented paths, otherwise
  // the identity above is vacuous.
  EXPECT_GT(one.get("tracker.cycles"), 0u);
  EXPECT_GT(one.get("tracker.faults_classified"), 0u);
  EXPECT_GT(one.get("tracker.hidden_advanced"), 0u);
  EXPECT_GT(one.get("diffsim.simulations"), 0u);
  EXPECT_GT(one.get("diffsim.events"), 0u);
  // Classify and advance are one fault-lane routine: one lane per fault.
  EXPECT_EQ(one.get("diffsim.simulations"),
            one.get("tracker.faults_classified") +
                one.get("tracker.hidden_advanced"));
  EXPECT_GT(one.get("netgen.circuits"), 0u);
}

TEST(MetricsDeterminism, DiffSimCountersThreadCountInvariantOnClassify) {
  // Classify is one region call over the uncaught list, and advance runs
  // one fault-lane pass per fixed 64-fault block of the hidden faults, so
  // the diffsim counters (events and the region counters included) cannot
  // depend on how many shards split the list.  s1423 classifies thousands
  // of faults per cycle: dozens of blocks.
  obs::set_metrics_enabled(true);
  const obs::CounterSet one = walk_snapshot(1, "s1423");
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const obs::CounterSet other = walk_snapshot(threads, "s1423");
    for (const char* name :
         {"diffsim.simulations", "diffsim.events", "diffsim.region_roots",
          "diffsim.region_blocked"})
      EXPECT_EQ(other.get(name), one.get(name))
          << name << " at " << threads << " threads";
    EXPECT_EQ(other, one) << threads << " threads";
  }
  EXPECT_GT(one.get("diffsim.region_roots"), 0u);
  EXPECT_GT(one.get("diffsim.region_blocked"), 0u);
  EXPECT_GT(one.get("tracker.faults_classified"),
            64u * 4u * one.get("tracker.cycles"));
  EXPECT_EQ(one.get("diffsim.simulations"),
            one.get("tracker.faults_classified") +
                one.get("tracker.hidden_advanced"));
}

TEST(MetricsDeterminism, FullStitchedRunSnapshotThreadCountInvariant) {
  obs::set_metrics_enabled(true);
  // End to end: netgen, baseline ATPG (PODEM + fault dropping), the
  // stitched engine and its tracker, all against a clean registry.
  const auto run = [](std::size_t threads) {
    util::ScopedParallelism scoped(threads);
    obs::Registry::instance().reset();
    const CircuitLab lab(netgen::profile("s444"));
    StitchOptions opts;  // variable shift, MostFaults
    (void)lab.run(opts);
    return obs::Registry::instance().snapshot().counters_only();
  };
  const obs::CounterSet one = run(1);
  const obs::CounterSet four = run(4);

  EXPECT_EQ(one, four);
  EXPECT_EQ(one.digest(), four.digest());

  EXPECT_GT(one.get("podem.calls"), 0u);
  EXPECT_GT(one.get("podem.decisions"), 0u);
  EXPECT_GT(one.get("podem.implications"), 0u);
  EXPECT_GT(one.get("podem.backtracks_per_call.count"), 0u);
  EXPECT_GT(one.get("stitch.runs"), 0u);
  EXPECT_GT(one.get("stitch.cubes_found"), 0u);
  EXPECT_GT(one.get("stitch.candidates_scored"), 0u);
  EXPECT_GT(one.get("tracker.cycles"), 0u);
}

}  // namespace
}  // namespace vcomp::core
