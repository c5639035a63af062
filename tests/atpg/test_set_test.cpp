#include "vcomp/atpg/test_set.hpp"

#include <gtest/gtest.h>

#include "vcomp/fault/fault_sim.hpp"
#include "vcomp/netgen/example_circuit.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/util/parallel.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::atpg {
namespace {

using fault::DiffSim;
using sim::Word;

/// The one-vector-at-a-time dropping loop that first_detections replaces:
/// every vector of \p walk in turn, broadcast to all lanes, against every
/// fault no earlier vector detected.
std::vector<std::size_t> one_vector_first_detections(
    const netlist::Netlist& nl, const std::vector<const TestVector*>& walk,
    const std::vector<fault::Fault>& faults) {
  DiffSim sim(nl);
  std::vector<std::size_t> first(faults.size(), kNoDetection);
  for (std::size_t w = 0; w < walk.size(); ++w) {
    for (std::size_t i = 0; i < nl.num_inputs(); ++i)
      sim.good().set_input(i, walk[w]->pi[i] ? ~Word{0} : Word{0});
    for (std::size_t i = 0; i < nl.num_dffs(); ++i)
      sim.good().set_state(i, walk[w]->ppi[i] ? ~Word{0} : Word{0});
    sim.commit_good();
    for (std::size_t n = 0; n < faults.size(); ++n)
      if (first[n] == kNoDetection && sim.simulate(faults[n]).any() != 0)
        first[n] = w;
  }
  return first;
}

TEST(TestSet, ExampleCircuitFullCoverage) {
  auto nl = netgen::example_circuit();
  auto cf = fault::collapsed_fault_list(nl);
  const auto res = generate_full_scan_tests(nl, cf.faults());
  EXPECT_EQ(res.num_redundant, 1u);  // E-F/1
  EXPECT_EQ(res.num_aborted, 0u);
  EXPECT_EQ(res.num_detected, cf.size() - 1);
  EXPECT_DOUBLE_EQ(res.coverage(), 1.0);
  // The paper needs 4 vectors; a compacted set should be close.
  EXPECT_LE(res.vectors.size(), 6u);
  EXPECT_GE(res.vectors.size(), 3u);
}

TEST(TestSet, VectorsActuallyCoverDetectedFaults) {
  // Re-simulate the final vector set: every Detected fault must be caught.
  auto nl = netgen::generate("s444");
  auto cf = fault::collapsed_fault_list(nl);
  const auto res = generate_full_scan_tests(nl, cf.faults());

  DiffSim sim(nl);
  std::vector<std::uint8_t> caught(cf.size(), 0);
  for (const auto& v : res.vectors) {
    for (std::size_t i = 0; i < nl.num_inputs(); ++i)
      sim.good().set_input(i, v.pi[i] ? ~Word{0} : Word{0});
    for (std::size_t i = 0; i < nl.num_dffs(); ++i)
      sim.good().set_state(i, v.ppi[i] ? ~Word{0} : Word{0});
    sim.commit_good();
    for (std::size_t fi = 0; fi < cf.size(); ++fi)
      if (!caught[fi] && sim.simulate(cf[fi]).any() != 0) caught[fi] = 1;
  }
  for (std::size_t fi = 0; fi < cf.size(); ++fi) {
    if (res.classes[fi] == FaultClass::Detected) {
      EXPECT_TRUE(caught[fi]) << fault_name(nl, cf[fi]);
    }
  }
}

TEST(TestSet, CompactionDoesNotIncreaseCount) {
  auto nl = netgen::generate("s526");
  auto cf = fault::collapsed_fault_list(nl);
  TestSetOptions with;
  with.seed = 3;
  with.reverse_compaction = true;
  TestSetOptions without;
  without.seed = 3;
  without.reverse_compaction = false;
  const auto a = generate_full_scan_tests(nl, cf.faults(), with);
  const auto b = generate_full_scan_tests(nl, cf.faults(), without);
  EXPECT_LE(a.vectors.size(), b.vectors.size());
  EXPECT_EQ(a.num_detected, b.num_detected);
}

TEST(TestSet, DeterministicForSeed) {
  auto nl = netgen::generate("s444");
  auto cf = fault::collapsed_fault_list(nl);
  TestSetOptions opts;
  opts.seed = 11;
  const auto a = generate_full_scan_tests(nl, cf.faults(), opts);
  const auto b = generate_full_scan_tests(nl, cf.faults(), opts);
  EXPECT_EQ(a.vectors.size(), b.vectors.size());
  for (std::size_t i = 0; i < a.vectors.size(); ++i)
    EXPECT_EQ(a.vectors[i], b.vectors[i]);
}

TEST(TestSet, HighCoverageOnSyntheticBenchmark) {
  auto nl = netgen::generate("s953");
  auto cf = fault::collapsed_fault_list(nl);
  const auto res = generate_full_scan_tests(nl, cf.faults());
  EXPECT_GT(res.coverage(), 0.95);
}

TEST(TestSet, DeterministicOnlyFlow) {
  // Disabling the random phase must still reach the same coverage.
  auto nl = netgen::generate("s444");
  auto cf = fault::collapsed_fault_list(nl);
  TestSetOptions opts;
  opts.random_idle_blocks = 0;
  const auto det = generate_full_scan_tests(nl, cf.faults(), opts);
  const auto mixed = generate_full_scan_tests(nl, cf.faults());
  EXPECT_EQ(det.num_detected + det.num_aborted,
            mixed.num_detected + mixed.num_aborted);
  EXPECT_GE(det.coverage(), mixed.coverage() - 0.02);
}

TEST(TestSet, CompactionKeepsTheOneVectorLoopsVectors) {
  // Reverse-order compaction keeps, walking last to first, each vector
  // that detects a fault no later vector detects.  The 64-vector passes
  // must keep exactly the vectors the one-vector loop keeps.
  for (const char* profile : {"s444", "s526", "s953"}) {
    const auto nl = netgen::generate(profile);
    const auto cf = fault::collapsed_fault_list(nl);
    TestSetOptions opts;
    opts.reverse_compaction = false;
    const auto full = generate_full_scan_tests(nl, cf.faults(), opts);
    opts.reverse_compaction = true;
    const auto compacted = generate_full_scan_tests(nl, cf.faults(), opts);

    std::vector<const TestVector*> walk;
    for (auto it = full.vectors.rbegin(); it != full.vectors.rend(); ++it)
      walk.push_back(&*it);
    std::vector<fault::Fault> detected;
    for (std::size_t fi = 0; fi < cf.size(); ++fi)
      if (full.classes[fi] == FaultClass::Detected) detected.push_back(cf[fi]);
    std::vector<std::uint8_t> keep(walk.size(), 0);
    for (std::size_t w : one_vector_first_detections(nl, walk, detected)) {
      ASSERT_NE(w, kNoDetection) << profile;
      keep[w] = 1;
    }
    std::vector<TestVector> want;
    for (std::size_t i = 0; i < full.vectors.size(); ++i)
      if (keep[walk.size() - 1 - i]) want.push_back(full.vectors[i]);
    EXPECT_GT(full.vectors.size(), 64u) << profile;  // several passes
    EXPECT_EQ(compacted.vectors, want) << profile;
    EXPECT_EQ(compacted.classes, full.classes) << profile;
  }
}

TEST(TestSet, FirstDetectionsMatchesOneVectorLoop) {
  // 150 vectors: two full 64-lane passes and a partial one of 22, against
  // every collapsed fault (some never detected), at 1 and 4 threads.  The
  // first 128 vectors repeat one random vector, so ties go to the lowest
  // lane and the partial pass still detects new faults.
  const auto nl = netgen::generate("s526");
  const auto cf = fault::collapsed_fault_list(nl);
  Rng rng(17);
  std::vector<TestVector> vectors(150);
  for (std::size_t k = 0; k < vectors.size(); ++k) {
    if (k > 0 && k < 128) {
      vectors[k] = vectors[0];
      continue;
    }
    for (std::size_t i = 0; i < nl.num_inputs(); ++i)
      vectors[k].pi.push_back(static_cast<std::uint8_t>(rng.bit()));
    for (std::size_t i = 0; i < nl.num_dffs(); ++i)
      vectors[k].ppi.push_back(static_cast<std::uint8_t>(rng.bit()));
  }
  std::vector<const TestVector*> walk;
  for (const auto& v : vectors) walk.push_back(&v);
  const auto want = one_vector_first_detections(nl, walk, cf.faults());
  std::size_t undetected = 0, in_last_pass = 0;
  for (std::size_t w : want) {
    EXPECT_TRUE(w == kNoDetection || w == 0 || w >= 128) << w;
    undetected += w == kNoDetection;
    in_last_pass += w != kNoDetection && w >= 128;
  }
  EXPECT_GT(undetected, 0u);
  EXPECT_GT(in_last_pass, 0u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const util::ScopedParallelism scoped(threads);
    fault::DiffSim sim(sim::EvalGraph::compile(nl));
    EXPECT_EQ(first_detections(sim, walk, cf.faults()), want)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace vcomp::atpg
