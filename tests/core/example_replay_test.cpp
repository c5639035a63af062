// Bit-for-bit replay of the paper's worked example (Section 3, Table 1):
// the Figure-1 circuit, the four test vectors 110 / 001 / 100 / 010, shift
// size 2.  Every fault's trajectory through f_u / f_h / f_c is asserted.
//
// One attribution convention differs from the paper's prose: the paper says
// a fault is "caught in cycle k" when its differentiating response is
// *produced* in cycle k; this library records the catch when the difference
// is *observed* (during the next cycle's shift-out), which is one cycle
// later for chain-borne differences.  The fault-set trajectories themselves
// are identical.
//
// One row of the paper's Table 1 appears to carry a typo: under D-c/1 the
// cycle-2 response to test vector 001 is printed as 010, but D = AND(A,B)
// evaluates to 0 under 001, so the stuck-1 branch into cell c must flip the
// captured bit, giving 011 — which is also what makes the printed cycle-3
// mutated vector (100 with RP 001) reachable.  This replay asserts the
// self-consistent behaviour.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "vcomp/core/tracker.hpp"
#include "vcomp/netgen/example_circuit.hpp"

namespace vcomp::core {
namespace {

using atpg::TestVector;
using Bits = std::vector<std::uint8_t>;

class ExampleReplay : public ::testing::Test {
 protected:
  ExampleReplay()
      : nl_(netgen::example_circuit()),
        cf_(fault::collapsed_fault_list(nl_)),
        tracker_(nl_, cf_, scan::CaptureMode::Normal,
                 scan::ScanOutModel::direct(3)) {
    for (std::size_t i = 0; i < cf_.size(); ++i)
      index_[fault_name(nl_, cf_[i])] = i;
  }

  TestVector tv(std::initializer_list<int> abc) {
    TestVector v;
    for (int b : abc) v.ppi.push_back(static_cast<std::uint8_t>(b));
    return v;
  }

  FaultState state(const std::string& name) const {
    return tracker_.sets().state(index_.at(name));
  }
  Bits hidden_bits(const std::string& name) const {
    return tracker_.hidden_state(index_.at(name)).chain(0).bits();
  }
  std::size_t caught_cycle(const std::string& name) const {
    return tracker_.sets().catch_cycle(index_.at(name));
  }

  netlist::Netlist nl_;
  fault::CollapsedFaults cf_;
  StitchTracker tracker_;
  std::map<std::string, std::size_t> index_;
};

TEST_F(ExampleReplay, FullFourCycleScenario) {
  // ---- Cycle 1: full load of 110, response 111 --------------------------
  auto st1 = tracker_.apply_first(tv({1, 1, 0}));
  EXPECT_EQ(tracker_.chain().bits(), (Bits{1, 1, 1}));
  // Seven faults differentiate (Table 1 cycle 1); none is caught yet —
  // catches happen at the next shift-out.
  EXPECT_EQ(st1.new_hidden, 7u);
  EXPECT_EQ(st1.caught_at_po, 0u);  // the circuit has no POs
  for (const char* f : {"F/0", "D/0", "b/0", "E/0", "b-E/0", "E-b/0",
                        "D-c/0"})
    EXPECT_EQ(state(f), FaultState::Hidden) << f;
  // F/0's private chain: response 011.
  EXPECT_EQ(hidden_bits("F/0"), (Bits{0, 1, 1}));
  // Undifferentiated faults stay uncaught.
  for (const char* f : {"F/1", "D-F/1", "a/1", "E-F/1", "D/1", "c/0"})
    EXPECT_EQ(state(f), FaultState::Uncaught) << f;

  // ---- Cycle 2: shift 00, vector 001, response 010 ----------------------
  auto st2 = tracker_.apply_stitched(tv({0, 0, 1}), 2);
  EXPECT_EQ(tracker_.chain().bits(), (Bits{0, 1, 0}));
  // Six of the seven differ in the shifted-out tail and are caught; F/0's
  // difference sat in cell a (the retained bit) — it survives as the
  // paper's first hidden fault.
  EXPECT_EQ(st2.caught_at_shift, 6u);
  for (const char* f : {"D/0", "b/0", "E/0", "b-E/0", "E-b/0", "D-c/0"}) {
    EXPECT_EQ(state(f), FaultState::Caught) << f;
    EXPECT_EQ(caught_cycle(f), 2u) << f;
  }
  EXPECT_EQ(state("F/0"), FaultState::Hidden);
  // F/0's machine applied the mutated vector 000 and responded 000.
  EXPECT_EQ(hidden_bits("F/0"), (Bits{0, 0, 0}));
  // Fresh differentiations under 001: F/1 and D-F/1 hide (response 110,
  // differing only in retained cell a); D/1, c/0 and D-c/1 differ in the
  // tail and will be caught at the next shift.
  for (const char* f : {"F/1", "D-F/1", "D/1", "c/0", "D-c/1"})
    EXPECT_EQ(state(f), FaultState::Hidden) << f;
  EXPECT_EQ(hidden_bits("F/1"), (Bits{1, 1, 0}));
  EXPECT_EQ(hidden_bits("D-F/1"), (Bits{1, 1, 0}));

  // ---- Cycle 3: shift 10, vector 100, response 000 ----------------------
  auto st3 = tracker_.apply_stitched(tv({1, 0, 0}), 2);
  EXPECT_EQ(tracker_.chain().bits(), (Bits{0, 0, 0}));
  // Caught at this shift: D/1, c/0, D-c/1 (tail differences from cycle 2)
  // and F/0, whose mutated response 000 differed from 010 in cell b.
  for (const char* f : {"F/0", "D/1", "c/0", "D-c/1"}) {
    EXPECT_EQ(state(f), FaultState::Caught) << f;
    EXPECT_EQ(caught_cycle(f), 3u) << f;
  }
  // F/1 and D-F/1 emitted the same two tail bits, mutated the vector to
  // 101, and responded 110 — still hidden (the paper's second hidden pair).
  for (const char* f : {"F/1", "D-F/1"}) {
    EXPECT_EQ(state(f), FaultState::Hidden) << f;
    EXPECT_EQ(hidden_bits(f), (Bits{1, 1, 0})) << f;
  }
  // New differentiations under 100: b-D/1, b/1, E/1, E-b/1.
  for (const char* f : {"b-D/1", "b/1", "E/1", "E-b/1"})
    EXPECT_EQ(state(f), FaultState::Hidden) << f;

  // ---- Cycle 4: shift 01, vector 010, response 010 ----------------------
  auto st4 = tracker_.apply_stitched(tv({0, 1, 0}), 2);
  EXPECT_EQ(tracker_.chain().bits(), (Bits{0, 1, 0}));
  // Everything pending from cycle 3 surfaces in this shift-out.
  for (const char* f : {"F/1", "D-F/1", "b-D/1", "b/1", "E/1", "E-b/1"}) {
    EXPECT_EQ(state(f), FaultState::Caught) << f;
    EXPECT_EQ(caught_cycle(f), 4u) << f;
  }
  // a/1 finally differentiates under 010 (response 111 vs 010).
  EXPECT_EQ(state("a/1"), FaultState::Hidden);

  // ---- Terminal observation of the last response ------------------------
  // a/1's difference (cells a and c) is visible in the 2-bit tail window.
  EXPECT_TRUE(tracker_.partial_observe_suffices(2));
  EXPECT_EQ(tracker_.terminal_observe(2), 1u);
  EXPECT_EQ(state("a/1"), FaultState::Caught);

  // Final census: all 17 detectable faults caught, only E-F/1 open.
  EXPECT_EQ(tracker_.sets().num_caught(), 17u);
  EXPECT_EQ(state("E-F/1"), FaultState::Uncaught);
  EXPECT_EQ(st3.hidden_after, 6u);  // F/1, D-F/1 + four fresh ones
  EXPECT_EQ(st4.hidden_after, 1u);  // only a/1 left pending
}

TEST_F(ExampleReplay, StitchingInvariantEnforced) {
  tracker_.apply_first(tv({1, 1, 0}));  // response 111
  // Vector 011 does not embed the retained bit (cell c must be 1).
  EXPECT_THROW(tracker_.apply_stitched(tv({0, 1, 0}), 2),
               vcomp::ContractError);
}

TEST_F(ExampleReplay, VXorCaptureChangesChainAlgebra) {
  StitchTracker vx(nl_, cf_, scan::CaptureMode::VXor,
                   scan::ScanOutModel::direct(3));
  vx.apply_first(tv({1, 1, 0}));
  // VXor capture: chain = T ⊕ R = 110 ⊕ 111 = 001.
  EXPECT_EQ(vx.chain().bits(), (Bits{0, 0, 1}));
}

}  // namespace
}  // namespace vcomp::core
