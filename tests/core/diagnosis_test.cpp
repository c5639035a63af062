#include "vcomp/core/diagnosis.hpp"

#include <gtest/gtest.h>

#include <set>

#include "vcomp/core/experiment.hpp"
#include "vcomp/netgen/example_circuit.hpp"

namespace vcomp::core {
namespace {

struct DiagSetup {
  CircuitLab lab;
  StitchResult run;
  scan::ScanOutModel out;

  explicit DiagSetup(netlist::Netlist nl, StitchOptions opts = {})
      : lab("diag", std::move(nl)),
        run(lab.run(opts)),
        out(scan::ScanOutModel::direct(lab.netlist().num_dffs())) {}
};

DiagSetup& example_setup() {
  static DiagSetup s = [] {
    StitchOptions opts;
    opts.fixed_shift = 2;
    return DiagSetup(netgen::example_circuit(), opts);
  }();
  return s;
}

TEST(Diagnosis, FaultFreeDeviceMatchesItself) {
  auto& s = example_setup();
  const auto good = simulate_device(s.lab.netlist(), s.run.schedule,
                                    scan::CaptureMode::Normal, s.out,
                                    nullptr);
  EXPECT_EQ(good.hamming(good), 0u);
  EXPECT_FALSE(good.bits.empty());
}

TEST(Diagnosis, EveryDetectableFaultProducesADistinctStream) {
  // "Detectable" means the schedule catches it, i.e. its stream differs
  // from fault-free somewhere.
  auto& s = example_setup();
  const auto& nl = s.lab.netlist();
  const auto& cf = s.lab.faults();
  const auto good = simulate_device(nl, s.run.schedule,
                                    scan::CaptureMode::Normal, s.out,
                                    nullptr);
  ASSERT_EQ(s.run.uncovered, 0u);
  for (std::size_t i = 0; i < cf.size(); ++i) {
    const auto stream = simulate_device(nl, s.run.schedule,
                                        scan::CaptureMode::Normal, s.out,
                                        &cf[i]);
    if (fault_name(nl, cf[i]) == "E-F/1") {
      EXPECT_EQ(stream.hamming(good), 0u) << "redundant fault must alias";
    } else {
      EXPECT_GT(stream.hamming(good), 0u) << fault_name(nl, cf[i]);
    }
  }
}

TEST(Diagnosis, InjectedFaultRankedFirst) {
  auto& s = example_setup();
  const auto& nl = s.lab.netlist();
  const auto& cf = s.lab.faults();
  // Inject a few different defects and diagnose each.
  for (const char* name : {"F/0", "D/1", "a/1", "E-b/0"}) {
    std::size_t injected = cf.size();
    for (std::size_t i = 0; i < cf.size(); ++i)
      if (fault_name(nl, cf[i]) == name) injected = i;
    ASSERT_LT(injected, cf.size());

    const auto device = simulate_device(nl, s.run.schedule,
                                        scan::CaptureMode::Normal, s.out,
                                        &cf[injected]);
    const auto verdicts =
        diagnose(nl, cf, s.run.schedule, scan::CaptureMode::Normal, s.out,
                 device);
    ASSERT_FALSE(verdicts.empty());
    // The injected fault must be among the zero-distance candidates.
    std::set<std::size_t> perfect;
    for (const auto& v : verdicts)
      if (v.mismatch == 0) perfect.insert(v.fault_index);
    EXPECT_TRUE(perfect.count(injected)) << name;
    // The ambiguity class should be small.  (A detection-oriented test set
    // does not guarantee pairwise distinguishing, so a few functionally
    // close faults may share the stream.)
    EXPECT_LE(perfect.size(), 4u) << name;
  }
}

TEST(Diagnosis, WorksOnSyntheticCircuitWithVariableShift) {
  static DiagSetup s{netgen::generate("s444")};
  const auto& nl = s.lab.netlist();
  const auto& cf = s.lab.faults();
  // Sample a handful of detectable faults.
  std::size_t checked = 0;
  for (std::size_t i = 0; i < cf.size() && checked < 6; i += 97) {
    if (s.lab.baseline().classes[i] != atpg::FaultClass::Detected) continue;
    ++checked;
    const auto device = simulate_device(nl, s.run.schedule,
                                        scan::CaptureMode::Normal, s.out,
                                        &cf[i]);
    const auto verdicts =
        diagnose(nl, cf, s.run.schedule, scan::CaptureMode::Normal, s.out,
                 device);
    std::set<std::size_t> perfect;
    for (const auto& v : verdicts)
      if (v.mismatch == 0) perfect.insert(v.fault_index);
    EXPECT_TRUE(perfect.count(i)) << fault_name(nl, cf[i]);
    EXPECT_LE(perfect.size(), 8u) << fault_name(nl, cf[i]);
  }
  EXPECT_GT(checked, 0u);
}

TEST(Diagnosis, BatchedVerdictsMatchOneDeviceAtATime) {
  // diagnose() simulates 512 candidate devices per sweep; each lane must
  // give its candidate the distance of that device simulated alone.
  // s444's fault list spans two batches, the second one partial.
  static DiagSetup s{netgen::generate("s444")};
  const auto& nl = s.lab.netlist();
  const auto& cf = s.lab.faults();
  ASSERT_GT(cf.size(), 512u);
  const auto device = simulate_device(nl, s.run.schedule,
                                      scan::CaptureMode::Normal, s.out,
                                      &cf[cf.size() / 2]);
  const auto verdicts = diagnose(nl, cf, s.run.schedule,
                                 scan::CaptureMode::Normal, s.out, device);
  ASSERT_EQ(verdicts.size(), cf.size());
  std::vector<std::size_t> mismatch(cf.size());
  for (const auto& v : verdicts) mismatch[v.fault_index] = v.mismatch;
  for (std::size_t i = 0; i < cf.size(); i += 7)
    EXPECT_EQ(mismatch[i], simulate_device(nl, s.run.schedule,
                                           scan::CaptureMode::Normal, s.out,
                                           &cf[i])
                               .hamming(device))
        << fault_name(nl, cf[i]);
}

TEST(Diagnosis, StreamShapeConsistent) {
  auto& s = example_setup();
  const auto& sched = s.run.schedule;
  const auto good = simulate_device(s.lab.netlist(), sched,
                                    scan::CaptureMode::Normal, s.out,
                                    nullptr);
  // Expected length: per stitched cycle (c>=1) its shift bits, + POs per
  // capture (0 here), + terminal observe, + extras (none expected).
  std::size_t expect = 0;
  for (std::size_t c = 1; c < sched.shifts.size(); ++c)
    expect += sched.shifts[c];
  expect += sched.terminal_observe;
  expect += sched.extra.size() * 3 + (sched.extra.empty() ? 0 : 3);
  EXPECT_EQ(good.bits.size(), expect);
}

}  // namespace
}  // namespace vcomp::core
