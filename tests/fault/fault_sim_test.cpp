#include "vcomp/fault/fault_sim.hpp"

#include <gtest/gtest.h>

#include "vcomp/util/assert.hpp"

#include "vcomp/fault/block_lane_sim.hpp"
#include "vcomp/fault/collapse.hpp"
#include "vcomp/netgen/example_circuit.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::fault {
namespace {

using sim::Word;

Fault by_name(const netlist::Netlist& nl, const CollapsedFaults& cf,
              const std::string& name) {
  for (const auto& f : cf.faults())
    if (fault_name(nl, f) == name) return f;
  ADD_FAILURE() << "fault not found: " << name;
  return {};
}

/// Faulty next-state of the example circuit under one vector and one fault.
std::vector<int> faulty_capture(const netlist::Netlist& nl, const Fault& f,
                                const std::vector<std::uint8_t>& tv) {
  DiffSim sim(nl);
  for (std::size_t i = 0; i < 3; ++i)
    sim.good().set_state(i, tv[i] ? ~Word{0} : Word{0});
  sim.commit_good();
  std::vector<int> bits(3);
  for (std::size_t i = 0; i < 3; ++i)
    bits[i] = static_cast<int>(sim.good_sim().next_state(i) & 1);
  const auto eff = sim.simulate(f);
  for (const auto& d : eff.ppo_diffs)
    if (d.diff & 1) bits[d.dff_index] ^= 1;
  return bits;
}

// Table 1, cycle 1: the faulty responses to test vector 110 for every fault
// the paper lists as differentiated in that cycle.
TEST(DiffSim, Table1Cycle1Responses) {
  auto nl = netgen::example_circuit();
  auto cf = collapsed_fault_list(nl);
  const std::vector<std::uint8_t> tv{1, 1, 0};

  // Paper rows (response as cells a,b,c = F,E,D).
  EXPECT_EQ(faulty_capture(nl, by_name(nl, cf, "F/0"), tv),
            (std::vector<int>{0, 1, 1}));
  EXPECT_EQ(faulty_capture(nl, by_name(nl, cf, "D/0"), tv),
            (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(faulty_capture(nl, by_name(nl, cf, "b/0"), tv),
            (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(faulty_capture(nl, by_name(nl, cf, "E/0"), tv),
            (std::vector<int>{0, 0, 1}));
  EXPECT_EQ(faulty_capture(nl, by_name(nl, cf, "b-E/0"), tv),
            (std::vector<int>{0, 0, 1}));
  EXPECT_EQ(faulty_capture(nl, by_name(nl, cf, "E-b/0"), tv),
            (std::vector<int>{1, 0, 1}));
  EXPECT_EQ(faulty_capture(nl, by_name(nl, cf, "D-c/0"), tv),
            (std::vector<int>{1, 1, 0}));
  // Faults the paper shows as NOT differentiated by 110:
  EXPECT_EQ(faulty_capture(nl, by_name(nl, cf, "F/1"), tv),
            (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(faulty_capture(nl, by_name(nl, cf, "a/1"), tv),
            (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(faulty_capture(nl, by_name(nl, cf, "E-F/1"), tv),
            (std::vector<int>{1, 1, 1}));
}

// Table 1, cycle 2 under the mutated vector: fault F/0 turns test vector
// 001 into 000 and responds 000.
TEST(DiffSim, HiddenFaultMutatedVector) {
  auto nl = netgen::example_circuit();
  auto cf = collapsed_fault_list(nl);
  EXPECT_EQ(faulty_capture(nl, by_name(nl, cf, "F/0"), {0, 0, 0}),
            (std::vector<int>{0, 0, 0}));
}

TEST(DiffSim, NoEffectWhenNotActivated) {
  auto nl = netgen::example_circuit();
  DiffSim sim(nl);
  // A = 1, so a/1 produces no difference at all.
  sim.good().set_state(0, ~Word{0});
  sim.good().set_state(1, ~Word{0});
  sim.good().set_state(2, 0);
  sim.commit_good();
  const Fault a_sa1{nl.find("a"), -1, 1};
  EXPECT_EQ(sim.simulate(a_sa1).any(), Word{0});
}

TEST(DiffSim, RedundantFaultNeverDetected) {
  auto nl = netgen::example_circuit();
  auto cf = collapsed_fault_list(nl);
  const Fault ef1 = by_name(nl, cf, "E-F/1");
  DiffSim sim(nl);
  // Exhaustive: all 8 states.
  for (int v = 0; v < 8; ++v) {
    for (std::size_t i = 0; i < 3; ++i)
      sim.good().set_state(i, ((v >> i) & 1) ? ~Word{0} : Word{0});
    sim.commit_good();
    EXPECT_EQ(sim.simulate(ef1).any(), Word{0}) << "state " << v;
  }
}

// Differential test: the event-driven DiffSim against the independent
// full-pass BlockLaneSim, over random stimuli and every collapsed fault.
TEST(DiffSim, AgreesWithBlockLaneSim) {
  auto nl = netgen::generate("s444");
  auto cf = collapsed_fault_list(nl);
  DiffSim dsim(nl);
  BlockLaneSim lanes(sim::EvalGraph::compile(nl));
  Rng rng(1234);
  const std::size_t fault_lanes = sim::kBlockLanes - 1;  // plus a good lane

  for (int trial = 0; trial < 4; ++trial) {
    std::vector<std::uint8_t> pi(nl.num_inputs()), st(nl.num_dffs());
    for (auto& b : pi) b = rng.bit();
    for (auto& b : st) b = rng.bit();

    for (std::size_t i = 0; i < pi.size(); ++i)
      dsim.good().set_input(i, pi[i] ? ~Word{0} : Word{0});
    for (std::size_t i = 0; i < st.size(); ++i)
      dsim.good().set_state(i, st[i] ? ~Word{0} : Word{0});
    dsim.commit_good();

    for (std::size_t base = 0; base < cf.size(); base += fault_lanes) {
      const std::size_t count = std::min(fault_lanes, cf.size() - base);
      lanes.clear();
      const std::size_t good_lane = lanes.add_lane();
      for (std::size_t k = 0; k < count; ++k)
        lanes.inject(lanes.add_lane(), cf[base + k]);
      for (std::size_t i = 0; i < pi.size(); ++i)
        lanes.set_pi_all(i, pi[i] != 0);
      for (std::size_t i = 0; i < st.size(); ++i)
        lanes.set_state_block(i, sim::Block::fill(st[i] != 0));
      lanes.eval();
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t lane = 1 + k;
        const auto eff = dsim.simulate(cf[base + k]);
        // Compare PO difference.
        bool lane_po_diff = false;
        for (std::size_t o = 0; o < nl.num_outputs(); ++o) {
          const sim::Block& out = lanes.output_block(o);
          lane_po_diff |= out.lane(lane) != out.lane(good_lane);
        }
        EXPECT_EQ(lane_po_diff, (eff.po_any & 1) != 0)
            << fault_name(nl, cf[base + k]);
        // Compare every captured bit.
        std::vector<int> dsim_diff(nl.num_dffs(), 0);
        for (const auto& d : eff.ppo_diffs)
          if (d.diff & 1) dsim_diff[d.dff_index] = 1;
        for (std::size_t dff = 0; dff < nl.num_dffs(); ++dff) {
          const sim::Block ns = lanes.next_state_block(dff);
          ASSERT_EQ(ns.lane(lane) != ns.lane(good_lane), dsim_diff[dff] != 0)
              << fault_name(nl, cf[base + k]) << " dff " << dff;
        }
      }
    }
  }
}

TEST(DiffSim, SparseEffectsResetBetweenFaults) {
  auto nl = netgen::example_circuit();
  auto cf = collapsed_fault_list(nl);
  DiffSim sim(nl);
  for (std::size_t i = 0; i < 3; ++i)
    sim.good().set_state(i, i == 2 ? Word{0} : ~Word{0});  // 110
  sim.commit_good();
  // Simulate a fault with a big effect, then one with no effect.
  (void)sim.simulate(by_name(nl, cf, "b/0"));
  EXPECT_EQ(sim.simulate(by_name(nl, cf, "F/1")).any(), Word{0});
  // And the big one again, unchanged.
  EXPECT_NE(sim.simulate(by_name(nl, cf, "b/0")).any(), Word{0});
}

TEST(BlockLaneSim, RejectsTooManyLanes) {
  auto nl = netgen::example_circuit();
  BlockLaneSim lanes(sim::EvalGraph::compile(nl));
  for (std::size_t i = 0; i < sim::kBlockLanes; ++i) lanes.add_lane();
  EXPECT_THROW(lanes.add_lane(), vcomp::ContractError);
}

TEST(BlockLaneSim, DffPinFaultOnlyPerturbsCapture) {
  auto nl = netgen::example_circuit();
  BlockLaneSim lanes(sim::EvalGraph::compile(nl));
  const int good = lanes.add_lane();
  const int bad = lanes.add_lane();
  // TV 110: D-c/0 flips only the bit captured into cell c.
  for (int lane : {good, bad}) {
    lanes.set_state(lane, 0, true);
    lanes.set_state(lane, 1, true);
    lanes.set_state(lane, 2, false);
  }
  lanes.inject(bad, Fault{nl.find("c"), 0, 0});
  lanes.eval();
  EXPECT_EQ(lanes.next_state_block(2).lane(good), true);
  EXPECT_EQ(lanes.next_state_block(2).lane(bad), false);
  EXPECT_EQ(lanes.next_state_block(0).lane(bad),
            lanes.next_state_block(0).lane(good));
  EXPECT_EQ(lanes.next_state_block(1).lane(bad),
            lanes.next_state_block(1).lane(good));
}

}  // namespace
}  // namespace vcomp::fault
