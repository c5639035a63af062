// DiffSim's fault-lane pass (fault k in lane k) against the independent
// full-pass BlockLaneSim, which carries the same (stimulus, fault) pair in
// each of its lanes: every lane must report exactly its own fault's PO
// difference and captured-state differences.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "vcomp/fault/block_lane_sim.hpp"
#include "vcomp/fault/collapse.hpp"
#include "vcomp/fault/compact_model.hpp"
#include "vcomp/fault/fault_sim.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/obs/metrics.hpp"
#include "vcomp/util/assert.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::fault {
namespace {

using netlist::GateId;
using netlist::GateType;
using sim::EvalGraph;
using sim::Word;

/// Stimulus words of one pass: bit k of every word is lane k's pattern.
struct Stimulus {
  std::vector<Word> pi, state;
};

Stimulus random_stimulus(const EvalGraph& eg, Rng& rng, bool broadcast) {
  auto draw = [&] {
    return broadcast ? (rng.bit() ? ~Word{0} : Word{0}) : rng.next();
  };
  Stimulus s;
  for (std::size_t i = 0; i < eg.num_inputs(); ++i) s.pi.push_back(draw());
  for (std::size_t i = 0; i < eg.num_dffs(); ++i) s.state.push_back(draw());
  return s;
}

void load(DiffSim& ds, const Stimulus& s) {
  for (std::size_t i = 0; i < s.pi.size(); ++i) ds.good().set_input(i, s.pi[i]);
  for (std::size_t i = 0; i < s.state.size(); ++i)
    ds.good().set_state(i, s.state[i]);
  ds.commit_good();
}

/// One lane's expected effect: PO difference and the set of flip-flops
/// whose captured bit differs.
struct LaneEffect {
  bool po = false;
  std::vector<std::uint8_t> ppo;

  friend bool operator==(const LaneEffect&, const LaneEffect&) = default;
};

LaneEffect lane_of(const DiffSim::Effect& eff, std::size_t k,
                   std::size_t num_dffs) {
  LaneEffect e;
  e.po = (eff.po_any >> k) & 1;
  e.ppo.assign(num_dffs, 0);
  for (const auto& d : eff.ppo_diffs) {
    EXPECT_EQ(e.ppo[d.dff_index] & 2, 0) << "dff reported twice";
    e.ppo[d.dff_index] |= static_cast<std::uint8_t>(2 | ((d.diff >> k) & 1));
  }
  for (auto& b : e.ppo) b &= 1;
  return e;
}

/// The reference: lane k of a BlockLaneSim carrying pattern k of \p s and
/// faults[k], compared with the fault-free lane values of the same pass.
std::vector<LaneEffect> reference(const EvalGraph::Ref& eg, const Stimulus& s,
                                  const std::vector<const MappedFault*>& faults,
                                  const DiffSim& good) {
  BlockLaneSim bsim(eg);
  for (const MappedFault* mf : faults) bsim.inject_mapped(bsim.add_lane(), *mf);
  for (std::size_t i = 0; i < s.pi.size(); ++i) {
    sim::Block b = sim::Block::zero();
    b.w[0] = s.pi[i];
    bsim.set_pi_block(i, b);
  }
  for (std::size_t i = 0; i < s.state.size(); ++i)
    bsim.set_state_word(i, 0, s.state[i]);
  bsim.eval();
  std::vector<LaneEffect> out(faults.size());
  for (std::size_t k = 0; k < faults.size(); ++k) {
    for (std::size_t o = 0; o < eg->num_outputs(); ++o)
      out[k].po |= bsim.output_block(o).lane(k) !=
                   static_cast<bool>((good.good_sim().output(o) >> k) & 1);
    for (std::size_t i = 0; i < eg->num_dffs(); ++i)
      out[k].ppo.push_back(
          bsim.next_state_block(i).lane(k) !=
          static_cast<bool>((good.good_sim().next_state(i) >> k) & 1));
  }
  return out;
}

void expect_lanes_match(const EvalGraph::Ref& eg, DiffSim& ds,
                        const Stimulus& s,
                        const std::vector<const MappedFault*>& faults) {
  load(ds, s);
  const auto want = reference(eg, s, faults, ds);
  const auto eff = ds.simulate_lanes(faults);
  for (std::size_t k = 0; k < faults.size(); ++k)
    EXPECT_EQ(lane_of(eff, k, eg->num_dffs()), want[k]) << "lane " << k;
  // Lanes past the block carry no fault and report nothing.
  const Word outside =
      faults.size() == 64 ? Word{0} : ~((Word{1} << faults.size()) - 1);
  EXPECT_EQ(eff.any() & outside, Word{0});
}

/// a, b, c inputs; q0, q1 flip-flops.
///   g1 = AND(a, b)      g2 = OR(g1, c)      g3 = NAND(q0, g1)
///   g4 = XOR(g2, g3)    q0 <- g4            q1 <- g1
///   outputs g2, g4
struct SmallCircuit {
  netlist::Netlist nl;
  GateId a, b, c, q0, q1, g1, g2, g3, g4;

  SmallCircuit() {
    a = nl.add_input("a");
    b = nl.add_input("b");
    c = nl.add_input("c");
    q0 = nl.add_dff("q0");
    q1 = nl.add_dff("q1");
    g1 = nl.add_gate(GateType::And, "g1", {a, b});
    g2 = nl.add_gate(GateType::Or, "g2", {g1, c});
    g3 = nl.add_gate(GateType::Nand, "g3", {q0, g1});
    g4 = nl.add_gate(GateType::Xor, "g4", {g2, g3});
    nl.set_dff_input(q0, g4);
    nl.set_dff_input(q1, g1);
    nl.mark_output(g2);
    nl.mark_output(g4);
    nl.finalize();
  }
};

TEST(DiffSimLanes, MultiSiteMappedFaultsMatchBlockLaneSim) {
  const SmallCircuit sc;
  const auto eg = EvalGraph::compile(sc.nl);
  DiffSim ds(eg);
  // Site kinds a fault-lane pass must keep apart per lane.
  std::vector<MappedFault> kinds = {
      {{{sc.g3, 0}, {sc.g3, 1}}, 0},   // two forced pins on one gate
      {{{sc.g3, 0}, {sc.g3, 1}}, 1},
      {{{sc.q1, 0}}, 0},               // a flip-flop data-pin site
      {{{sc.q1, 0}}, 1},
      {{{sc.q0, 0}, {sc.g2, 0}}, 1},   // data pin plus a pin elsewhere
      {{{sc.g1, -1}, {sc.g3, 1}}, 0},  // stem plus a pin of one fault
      {{{sc.g1, -1}, {sc.g2, 0}}, 1},
      {{{sc.g4, -1}}, 1},              // a stem downstream of other sites
      {{{sc.a, -1}}, 0},               // source stems
      {{{sc.q0, -1}}, 1},
      {{}, 0},                         // unobservable: no sites
  };
  std::vector<const MappedFault*> faults;
  for (std::size_t k = 0; k < 64; ++k)
    faults.push_back(&kinds[k % kinds.size()]);
  Rng rng(11);
  for (int trial = 0; trial < 8; ++trial)
    for (const bool broadcast : {true, false})
      expect_lanes_match(eg, ds, random_stimulus(*eg, rng, broadcast),
                         faults);
}

TEST(DiffSimLanes, NonActivatedLanesReportNothing) {
  const SmallCircuit sc;
  const auto eg = EvalGraph::compile(sc.nl);
  DiffSim ds(eg);
  // a = b = c = 1, q0 = 0: g1 = 1, so g1/1 and a/1 are not activated,
  // while g1/0 is.
  Stimulus s{{~Word{0}, ~Word{0}, ~Word{0}}, {0, 0}};
  load(ds, s);
  const std::vector<MappedFault> kinds = {
      {{{sc.g1, -1}}, 1}, {{{sc.a, -1}}, 1}, {{{sc.g1, -1}}, 0}};
  const std::vector<const MappedFault*> faults = {&kinds[0], &kinds[1],
                                                  &kinds[2]};
  const auto eff = ds.simulate_lanes(faults);
  EXPECT_EQ(eff.any() & Word{3}, Word{0});
  EXPECT_NE(eff.any() & Word{4}, Word{0});
  // An all-quiet pass reports nothing at all.
  const std::vector<const MappedFault*> quiet = {&kinds[0], &kinds[1]};
  const auto none = ds.simulate_lanes(quiet);
  EXPECT_EQ(none.po_any, Word{0});
  EXPECT_TRUE(none.ppo_diffs.empty());
}

TEST(DiffSimLanes, PartialBlocksMatchPatternLanes) {
  // Real mapped faults of a compacted synthetic circuit, in blocks of 1,
  // 63 and 64: under a broadcast stimulus lane k must report fault k's own
  // pattern-lane verdict, and the lanes past the block nothing.
  const auto nl = netgen::generate("s444");
  const auto cf = collapsed_fault_list(nl);
  const CompactModel model(EvalGraph::compile(nl), cf.faults(), true);
  DiffSim ds(model.graph());
  Rng rng(5);
  for (const std::size_t count : {std::size_t{1}, std::size_t{63},
                                  std::size_t{64}}) {
    for (int trial = 0; trial < 4; ++trial) {
      const Stimulus s = random_stimulus(*model.graph(), rng, true);
      load(ds, s);
      std::vector<const MappedFault*> faults;
      std::vector<LaneEffect> want;
      for (std::size_t k = 0; k < count; ++k) {
        const MappedFault& mf =
            model.mapped(rng.below(static_cast<std::uint64_t>(cf.size())));
        faults.push_back(&mf);
        // Broadcast: every lane of the pattern-lane pass is lane k's answer.
        want.push_back(lane_of(ds.simulate_mapped(mf), k, nl.num_dffs()));
      }
      const auto eff = ds.simulate_lanes(faults);
      for (std::size_t k = 0; k < count; ++k)
        EXPECT_EQ(lane_of(eff, k, nl.num_dffs()), want[k]) << "lane " << k;
      if (count < 64) {
        EXPECT_EQ(eff.any() >> count, Word{0});
      }
      // The per-lane reference agrees too.
      expect_lanes_match(model.graph(), ds,
                         random_stimulus(*model.graph(), rng, false), faults);
    }
  }
}

TEST(DiffSimLanes, PlainFaultsMatchTheirPatternLanes) {
  const auto nl = netgen::generate("s526");
  const auto cf = collapsed_fault_list(nl);
  DiffSim ds(nl);
  Rng rng(9);
  const Stimulus s = random_stimulus(*ds.graph(), rng, true);
  load(ds, s);
  // A plain fault rides a lane as its single-site mapped form.
  std::array<MappedFault, 64> block;
  std::array<const MappedFault*, 64> lanes;
  for (std::size_t base = 0; base < cf.size(); base += 64) {
    const std::size_t count = std::min<std::size_t>(64, cf.size() - base);
    std::vector<LaneEffect> want;
    for (std::size_t k = 0; k < count; ++k) {
      const Fault& f = cf[base + k];
      block[k] = {{{f.gate, f.pin}}, f.stuck};
      lanes[k] = &block[k];
      want.push_back(lane_of(ds.simulate(f), k, nl.num_dffs()));
    }
    const auto eff = ds.simulate_lanes({lanes.data(), count});
    for (std::size_t k = 0; k < count; ++k)
      EXPECT_EQ(lane_of(eff, k, nl.num_dffs()), want[k])
          << fault_name(nl, cf[base + k]);
  }
}

/// \p s with the cells of \p flipped inverted in their lanes: every
/// lane's full state.
Stimulus with_flips(Stimulus s,
                    const std::vector<DiffSim::FlippedCell>& flipped) {
  for (const auto& fc : flipped) s.state[fc.dff_index] ^= Word{1} << fc.lane;
  return s;
}

/// Fault lanes with flipped cells against BlockLaneSim loaded with every
/// lane's full state; verdicts are relative to the unflipped good machine.
void expect_flipped_lanes_match(
    const EvalGraph::Ref& eg, DiffSim& ds, const Stimulus& s,
    const std::vector<const MappedFault*>& faults,
    const std::vector<DiffSim::FlippedCell>& flipped) {
  load(ds, s);
  const auto want = reference(eg, with_flips(s, flipped), faults, ds);
  const auto eff = ds.simulate_lanes(faults, flipped);
  for (std::size_t k = 0; k < faults.size(); ++k)
    EXPECT_EQ(lane_of(eff, k, eg->num_dffs()), want[k]) << "lane " << k;
}

// A hidden fault's lane flips the cells where its scan contents differ
// from the fault-free ones.  Every lane flips q0 or q1 or both, and the
// faults include q0's output stem (the fault wins over the flipped cell),
// q0's data pin (it perturbs only what q0 captures) and a branch of q0.
TEST(DiffSimLanes, FlippedCellsMatchFullPerLaneStates) {
  const SmallCircuit sc;
  const auto eg = EvalGraph::compile(sc.nl);
  DiffSim ds(eg);
  const std::vector<MappedFault> kinds = {
      {{{sc.q0, -1}}, 0}, {{{sc.q0, -1}}, 1},  // the flipped stem
      {{{sc.q0, 0}}, 0},  {{{sc.q0, 0}}, 1},   // its data pin
      {{{sc.g3, 0}}, 1},                       // a branch of it
      {{{sc.q1, -1}}, 0}, {{{sc.g1, -1}}, 1},  // elsewhere
      {{}, 0},                                 // no fault: flips only
  };
  std::vector<const MappedFault*> faults;
  std::vector<DiffSim::FlippedCell> flipped;
  for (std::uint32_t k = 0; k < 64; ++k) {
    faults.push_back(&kinds[k % kinds.size()]);
    const std::uint32_t which = (k / kinds.size()) % 3;  // q0, q1 or both
    if (which != 1) flipped.push_back({0, k});
    if (which != 0) flipped.push_back({1, k});
  }
  Rng rng(13);
  for (int trial = 0; trial < 8; ++trial)
    for (const bool broadcast : {true, false})
      expect_flipped_lanes_match(eg, ds, random_stimulus(*eg, rng, broadcast),
                                 faults, flipped);
}

// Real mapped faults of a compacted circuit in one block, each lane with
// up to three random flipped cells, as the tracker advances hidden faults.
TEST(DiffSimLanes, FlippedCellsOnRealFaultsMatchFullPerLaneStates) {
  const auto nl = netgen::generate("s444");
  const auto cf = collapsed_fault_list(nl);
  const CompactModel model(EvalGraph::compile(nl), cf.faults(), true);
  DiffSim ds(model.graph());
  Rng rng(21);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<const MappedFault*> faults;
    std::vector<DiffSim::FlippedCell> flipped;
    for (std::uint32_t k = 0; k < 64; ++k) {
      faults.push_back(&model.mapped(rng.below(cf.size())));
      for (std::uint64_t n = rng.below(4); n-- > 0;)
        flipped.push_back(
            {static_cast<std::uint32_t>(rng.below(nl.num_dffs())), k});
    }
    // A cell listed twice in one lane is flipped once.
    std::sort(flipped.begin(), flipped.end(), [](const auto& a, const auto& b) {
      return std::pair(a.lane, a.dff_index) < std::pair(b.lane, b.dff_index);
    });
    flipped.erase(std::unique(flipped.begin(), flipped.end(),
                              [](const auto& a, const auto& b) {
                                return a.lane == b.lane &&
                                       a.dff_index == b.dff_index;
                              }),
                  flipped.end());
    expect_flipped_lanes_match(model.graph(), ds,
                               random_stimulus(*model.graph(), rng, true),
                               faults, flipped);
    expect_flipped_lanes_match(model.graph(), ds,
                               random_stimulus(*model.graph(), rng, false),
                               faults, flipped);
  }
}

TEST(DiffSimLanes, CountsOneSimulationPerFault) {
  const SmallCircuit sc;
  DiffSim ds(sc.nl);
  load(ds, Stimulus{{~Word{0}, 0, ~Word{0}}, {0, ~Word{0}}});
  const MappedFault g1_sa0{{{sc.g1, -1}}, 0};
  const std::vector<const MappedFault*> faults(5, &g1_sa0);
  const auto counters = obs::scoped_counters([&] {
    (void)ds.simulate_lanes(faults);
    (void)ds.simulate_mapped(g1_sa0);
  });
  EXPECT_EQ(counters.get("diffsim.simulations"), 6u);
}

TEST(DiffSimLanes, RejectsMoreThan64Faults) {
  const SmallCircuit sc;
  DiffSim ds(sc.nl);
  const MappedFault g1_sa0{{{sc.g1, -1}}, 0};
  const std::vector<const MappedFault*> faults(65, &g1_sa0);
  EXPECT_THROW((void)ds.simulate_lanes(faults), ContractError);
}

}  // namespace
}  // namespace vcomp::fault
