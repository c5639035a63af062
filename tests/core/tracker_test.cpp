#include "vcomp/core/tracker.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "vcomp/netgen/example_circuit.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::core {
namespace {

using atpg::TestVector;
using Bits = std::vector<std::uint8_t>;

TestVector example_tv(std::initializer_list<int> abc) {
  TestVector v;
  for (int b : abc) v.ppi.push_back(static_cast<std::uint8_t>(b));
  return v;
}

// Horizontal XOR observes differences far from the tail: the paper's first
// hidden fault F/0 (difference confined to head cell a after cycle 1) is
// caught one full cycle earlier than under direct observation.
TEST(Tracker, HxorCatchesHeadDifferenceEarlier) {
  auto nl = netgen::example_circuit();
  auto cf = fault::collapsed_fault_list(nl);
  std::size_t f0 = cf.size();
  for (std::size_t i = 0; i < cf.size(); ++i)
    if (fault_name(nl, cf[i]) == "F/0") f0 = i;
  ASSERT_LT(f0, cf.size());

  StitchTracker direct(nl, cf, scan::CaptureMode::Normal,
                       scan::ScanOutModel::direct(3));
  StitchTracker hxor(nl, cf, scan::CaptureMode::Normal,
                     scan::ScanOutModel::hxor(3, 3));
  for (auto* t : {&direct, &hxor}) {
    t->apply_first(example_tv({1, 1, 0}));
    t->apply_stitched(example_tv({0, 0, 1}), 2);
  }
  // Direct: F/0's difference sat in cell a, unobserved — still hidden.
  EXPECT_EQ(direct.sets().state(f0), FaultState::Hidden);
  // HXOR with a tap on every cell: observed during the cycle-2 shift.
  EXPECT_EQ(hxor.sets().state(f0), FaultState::Caught);
  EXPECT_EQ(hxor.sets().catch_cycle(f0), 2u);
}

// Property walk: drive the tracker with random stitched vectors and check
// the structural invariants of the paper's fault-set machine every cycle.
// std::string, not const char*, so the printed parameter (and with it the
// test's name) carries no per-process pointer address.
class TrackerWalk
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

TEST_P(TrackerWalk, InvariantsHoldEveryCycle) {
  const auto [name, capture_int, taps] = GetParam();
  const auto capture = static_cast<scan::CaptureMode>(capture_int);
  auto nl = netgen::generate(name);
  auto cf = fault::collapsed_fault_list(nl);
  const std::size_t L = nl.num_dffs();
  const auto out = taps > 0 ? scan::ScanOutModel::hxor(L, taps)
                            : scan::ScanOutModel::direct(L);
  StitchTracker tracker(nl, cf, capture, out);
  Rng rng(static_cast<std::uint64_t>(capture_int * 131 + taps));

  auto random_vector = [&](std::size_t s) {
    TestVector v;
    v.pi.resize(nl.num_inputs());
    for (auto& b : v.pi) b = rng.bit();
    v.ppi.resize(L);
    // One identity-ordered chain: position p holds flip-flop p.
    for (std::size_t p = 0; p < L; ++p)
      v.ppi[p] = (s < L && p >= s) ? tracker.chain().at(p - s)
                                   : static_cast<std::uint8_t>(rng.bit());
    return v;
  };

  std::size_t prev_caught = 0;
  std::size_t total_shift_catches = 0, total_po_catches = 0;
  tracker.apply_first(random_vector(L));
  for (int c = 0; c < 30; ++c) {
    const std::size_t s = 1 + rng.below(L);
    const auto st = tracker.apply_stitched(random_vector(s), s);
    total_shift_catches += st.caught_at_shift;
    total_po_catches += st.caught_at_po;

    // f_c grows monotonically.
    ASSERT_GE(tracker.sets().num_caught(), prev_caught);
    prev_caught = tracker.sets().num_caught();

    // Every hidden fault's private fabric genuinely differs from the
    // fault-free fabric — otherwise it should have reverted to f_u.
    for (const auto& [i, diff] : tracker.sets().hidden()) {
      ASSERT_EQ(tracker.sets().state(i), FaultState::Hidden);
      ASSERT_NE(tracker.hidden_state(i), tracker.state())
          << fault_name(nl, cf[i]);
    }
    std::size_t hidden = 0;
    for (std::size_t i = 0; i < cf.size(); ++i)
      hidden += tracker.sets().state(i) == FaultState::Hidden;
    ASSERT_EQ(tracker.sets().num_hidden(), hidden);
  }
  // The walk must have exercised real catching.
  EXPECT_GT(total_shift_catches + total_po_catches, 0u);
  EXPECT_EQ(tracker.sets().num_caught(), prev_caught);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, TrackerWalk,
    ::testing::Values(
        std::make_tuple("s444", 0, 0),   // Normal capture, direct out
        std::make_tuple("s444", 1, 0),   // VXor capture
        std::make_tuple("s444", 0, 4),   // HXOR out
        std::make_tuple("s526", 0, 0),
        std::make_tuple("s526", 1, 3)));  // VXor + HXOR combined

TEST(Tracker, TerminalFullObserveCatchesAllHidden) {
  auto nl = netgen::generate("s444");
  auto cf = fault::collapsed_fault_list(nl);
  const std::size_t L = nl.num_dffs();
  StitchTracker tracker(nl, cf, scan::CaptureMode::Normal,
                        scan::ScanOutModel::direct(L));
  Rng rng(77);

  TestVector v;
  v.pi.resize(nl.num_inputs());
  for (auto& b : v.pi) b = rng.bit();
  v.ppi.resize(L);
  for (auto& b : v.ppi) b = rng.bit();
  tracker.apply_first(v);
  ASSERT_GT(tracker.sets().num_hidden(), 0u);

  const std::size_t hidden = tracker.sets().num_hidden();
  EXPECT_TRUE(tracker.partial_observe_suffices(L));
  EXPECT_EQ(tracker.terminal_observe(L), hidden);
  EXPECT_EQ(tracker.sets().num_hidden(), 0u);
}

TEST(Tracker, PartialObserveMayMissHeadDifferences) {
  // After one vector on the example circuit, F/0 hides in cell a; a 1-cell
  // observation cannot see it, the full chain can.
  auto nl = netgen::example_circuit();
  auto cf = fault::collapsed_fault_list(nl);
  StitchTracker tracker(nl, cf, scan::CaptureMode::Normal,
                        scan::ScanOutModel::direct(3));
  tracker.apply_first(example_tv({1, 1, 0}));
  EXPECT_FALSE(tracker.partial_observe_suffices(1));
  EXPECT_TRUE(tracker.partial_observe_suffices(3));
}

TEST(Tracker, CatchExternallyMovesUncaughtToCaught) {
  auto nl = netgen::example_circuit();
  auto cf = fault::collapsed_fault_list(nl);
  StitchTracker tracker(nl, cf, scan::CaptureMode::Normal,
                        scan::ScanOutModel::direct(3));
  tracker.apply_first(example_tv({1, 1, 0}));
  // Pick some still-uncaught fault.
  for (std::size_t i = 0; i < cf.size(); ++i) {
    if (tracker.sets().state(i) == FaultState::Uncaught) {
      tracker.catch_externally(i);
      EXPECT_EQ(tracker.sets().state(i), FaultState::Caught);
      return;
    }
  }
  FAIL() << "no uncaught fault to exercise";
}

TEST(Tracker, RejectsOutOfOrderUse) {
  auto nl = netgen::example_circuit();
  auto cf = fault::collapsed_fault_list(nl);
  StitchTracker tracker(nl, cf, scan::CaptureMode::Normal,
                        scan::ScanOutModel::direct(3));
  // Stitched before first is a contract violation.
  EXPECT_THROW(tracker.apply_stitched(example_tv({1, 1, 0}), 2),
               vcomp::ContractError);
  tracker.apply_first(example_tv({1, 1, 0}));
  EXPECT_THROW(tracker.apply_first(example_tv({1, 1, 0})),
               vcomp::ContractError);
}

}  // namespace
}  // namespace vcomp::core
