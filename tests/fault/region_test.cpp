// DiffSim::simulate_regions against one simulate() / simulate_mapped() pass
// per fault: the region call carries each fault to its fanout-free
// region's root with the good values alone and propagates only the roots,
// so every fault's PO word and per-flip-flop diff words must still equal
// its own pattern-lane pass in every lane, under per-lane patterns and
// under broadcast vectors.  Ppo entries compare as maps: their order is
// free.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "vcomp/fault/collapse.hpp"
#include "vcomp/fault/compact_model.hpp"
#include "vcomp/fault/fault.hpp"
#include "vcomp/fault/fault_sim.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/obs/metrics.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::fault {
namespace {

using netlist::GateId;
using netlist::GateType;
using sim::EvalGraph;
using sim::Word;

using PpoMap = std::map<std::uint32_t, Word>;

/// A pass's ppo entries keyed by flip-flop; each flip-flop at most once,
/// never with an empty word.
PpoMap ppo_map(const DiffSim::Effect& eff) {
  PpoMap m;
  for (const auto& d : eff.ppo_diffs) {
    EXPECT_NE(d.diff, Word{0}) << "empty entry for dff " << d.dff_index;
    EXPECT_TRUE(m.emplace(d.dff_index, d.diff).second)
        << "dff " << d.dff_index << " reported twice";
  }
  return m;
}

/// Loads random sources: per-lane patterns, or one vector in every lane.
void load_random(DiffSim& ds, Rng& rng, bool broadcast) {
  auto draw = [&] {
    return broadcast ? (rng.bit() ? ~Word{0} : Word{0}) : rng.next();
  };
  for (std::size_t i = 0; i < ds.graph()->num_inputs(); ++i)
    ds.good().set_input(i, draw());
  for (std::size_t i = 0; i < ds.graph()->num_dffs(); ++i)
    ds.good().set_state(i, draw());
  ds.commit_good();
}

struct Answer {
  Word po = 0;
  PpoMap ppo;
};

/// The region call's answers, checked to come once per fault.
template <typename F>
std::vector<Answer> region_answers(DiffSim& ds, std::span<const F> faults) {
  std::vector<Answer> out(faults.size());
  std::vector<int> seen(faults.size(), 0);
  ds.simulate_regions(faults, [&](std::size_t n, const DiffSim::Effect& eff) {
    ASSERT_LT(n, faults.size());
    ++seen[n];
    out[n] = {eff.po_any, ppo_map(eff)};
  });
  for (std::size_t n = 0; n < faults.size(); ++n)
    EXPECT_EQ(seen[n], 1) << "fault " << n;
  return out;
}

void expect_regions_match(DiffSim& ds, std::span<const Fault> faults) {
  const auto got = region_answers(ds, faults);
  const auto& nl = ds.graph()->netlist();
  for (std::size_t n = 0; n < faults.size(); ++n) {
    const auto want = ds.simulate(faults[n]);
    EXPECT_EQ(got[n].po, want.po_any) << fault_name(nl, faults[n]);
    EXPECT_EQ(got[n].ppo, ppo_map(want)) << fault_name(nl, faults[n]);
  }
}

void expect_regions_match(DiffSim& ds,
                          std::span<const MappedFault* const> faults) {
  const auto got = region_answers(ds, faults);
  for (std::size_t n = 0; n < faults.size(); ++n) {
    const auto want = ds.simulate_mapped(*faults[n]);
    EXPECT_EQ(got[n].po, want.po_any) << "mapped fault " << n;
    EXPECT_EQ(got[n].ppo, ppo_map(want)) << "mapped fault " << n;
  }
}

/// Every stem and every pin of every gate, both polarities: the single
/// sites a region call can meet, fanout or not.
std::vector<Fault> every_site(const netlist::Netlist& nl) {
  std::vector<Fault> out;
  for (GateId g = 0; g < nl.num_gates(); ++g)
    for (std::int16_t pin = -1;
         pin < static_cast<std::int16_t>(nl.gate(g).fanin.size()); ++pin)
      for (std::uint8_t v : {0, 1}) out.push_back({g, pin, v});
  return out;
}

/// The edge cases of region tracing in one circuit.
///   t = AND(a, b)     read on both pins of d = XOR(t, t)   (PO)
///   p = NAND(a, c)    a PO with one reader, r = OR(p, b)   (PO)
///   f = NOR(b, c)     read only by q1's data pin
///   u = AND(s, q0)    s and q0: PI and PPI stems with one reader
///   x = XOR(a, u)     y = XNOR(a, x)    z = NAND(x, c, a)  (PO)
///   q0 <- y           q2 <- z
struct RegionCircuit {
  netlist::Netlist nl;
  GateId a, b, c, s, q0, q1, q2, t, d, p, r, f, u, x, y, z;

  RegionCircuit() {
    a = nl.add_input("a");
    b = nl.add_input("b");
    c = nl.add_input("c");
    s = nl.add_input("s");
    q0 = nl.add_dff("q0");
    q1 = nl.add_dff("q1");
    q2 = nl.add_dff("q2");
    t = nl.add_gate(GateType::And, "t", {a, b});
    d = nl.add_gate(GateType::Xor, "d", {t, t});
    p = nl.add_gate(GateType::Nand, "p", {a, c});
    r = nl.add_gate(GateType::Or, "r", {p, b});
    f = nl.add_gate(GateType::Nor, "f", {b, c});
    u = nl.add_gate(GateType::And, "u", {s, q0});
    x = nl.add_gate(GateType::Xor, "x", {a, u});
    y = nl.add_gate(GateType::Xnor, "y", {a, x});
    z = nl.add_gate(GateType::Nand, "z", {x, c, a});
    nl.set_dff_input(q0, y);
    nl.set_dff_input(q1, f);
    nl.set_dff_input(q2, z);
    for (GateId o : {d, p, r, z}) nl.mark_output(o);
    nl.finalize();
  }
};

/// Runs \p faults of the edge circuit under random patterns and broadcast
/// vectors.
void expect_edge_faults_match(const std::vector<Fault>& faults) {
  const RegionCircuit rc;
  DiffSim ds(rc.nl);
  Rng rng(3);
  for (int trial = 0; trial < 16; ++trial)
    for (const bool broadcast : {false, true}) {
      load_random(ds, rng, broadcast);
      expect_regions_match(ds, faults);
    }
}

TEST(DiffSimRegions, GateReadOnTwoPinsIsARoot) {
  // XOR(t, t) is 0 whatever t is: a flip of t must not reach d, although
  // inverting either pin alone would.
  const RegionCircuit rc;
  EXPECT_FALSE(EvalGraph::compile(rc.nl)->interior(rc.t));
  expect_edge_faults_match({{rc.t, -1, 0}, {rc.t, -1, 1}, {rc.a, -1, 0},
                            {rc.b, -1, 1}, {rc.d, 0, 1}, {rc.d, 1, 0}});
}

TEST(DiffSimRegions, PrimaryOutputWithOneReaderIsARoot) {
  // r = OR(p, b) blocks p whenever b = 1, but p itself is observed.
  const RegionCircuit rc;
  EXPECT_FALSE(EvalGraph::compile(rc.nl)->interior(rc.p));
  expect_edge_faults_match({{rc.p, -1, 0}, {rc.p, -1, 1}, {rc.p, 0, 1},
                            {rc.p, 1, 0}, {rc.r, 0, 0}, {rc.r, 0, 1}});
}

TEST(DiffSimRegions, GateReadOnlyByAFlipFlopIsARoot) {
  const RegionCircuit rc;
  EXPECT_FALSE(EvalGraph::compile(rc.nl)->interior(rc.f));
  expect_edge_faults_match({{rc.f, -1, 0}, {rc.f, -1, 1}, {rc.f, 0, 1},
                            {rc.f, 1, 0}});
}

TEST(DiffSimRegions, SourceStemsWithOneReaderAreInterior) {
  const RegionCircuit rc;
  const auto eg = EvalGraph::compile(rc.nl);
  for (GateId g : {rc.s, rc.q0, rc.u}) {
    EXPECT_TRUE(eg->interior(g)) << rc.nl.gate(g).name;
    EXPECT_EQ(eg->region_root(g), rc.x) << rc.nl.gate(g).name;
  }
  expect_edge_faults_match({{rc.s, -1, 0}, {rc.s, -1, 1}, {rc.q0, -1, 0},
                            {rc.q0, -1, 1}, {rc.u, 0, 1}, {rc.u, 1, 0},
                            {rc.u, -1, 1}});
}

TEST(DiffSimRegions, BranchFaultsOnXorXnorAndNandPins) {
  const RegionCircuit rc;
  std::vector<Fault> faults;
  for (GateId g : {rc.x, rc.y, rc.z})
    for (std::int16_t pin = 0;
         pin < static_cast<std::int16_t>(rc.nl.gate(g).fanin.size()); ++pin)
      for (std::uint8_t v : {0, 1}) faults.push_back({g, pin, v});
  expect_edge_faults_match(faults);
}

TEST(DiffSimRegions, FlipFlopDataPinFaultsSettleFromTheCapturedBit) {
  const RegionCircuit rc;
  expect_edge_faults_match({{rc.q0, 0, 0}, {rc.q0, 0, 1}, {rc.q1, 0, 0},
                            {rc.q1, 0, 1}, {rc.q2, 0, 0}, {rc.q2, 0, 1}});
}

TEST(DiffSimRegions, EverySiteOfTheEdgeCircuit) {
  const RegionCircuit rc;
  expect_edge_faults_match(every_site(rc.nl));
}

TEST(DiffSimRegions, MappedFaultsWithSeveralSitesOrNone) {
  const RegionCircuit rc;
  DiffSim ds(rc.nl);
  std::vector<MappedFault> kinds = {
      {{{rc.x, 0}, {rc.y, 0}, {rc.z, 2}}, 0},  // a's branches, one fault
      {{{rc.x, 0}, {rc.y, 0}, {rc.z, 2}}, 1},
      {{{rc.t, -1}, {rc.q1, 0}}, 1},           // a stem plus a data pin
      {{{rc.d, 0}, {rc.d, 1}}, 0},             // both pins of one gate
      {{}, 0},                                 // unobservable
      {{}, 1},
  };
  for (const Fault& f : every_site(rc.nl))  // single sites, mapped form
    kinds.push_back({{{f.gate, f.pin}}, f.stuck});
  std::vector<const MappedFault*> faults;
  for (int rep = 0; rep < 3; ++rep)  // more than 64 multi-site faults
    for (const MappedFault& mf : kinds) faults.push_back(&mf);
  Rng rng(8);
  for (int trial = 0; trial < 16; ++trial)
    for (const bool broadcast : {false, true}) {
      load_random(ds, rng, broadcast);
      expect_regions_match(ds, faults);
    }
}

TEST(DiffSimRegions, CollapsedFaultsOfGeneratedCircuits) {
  for (const char* name : {"s444", "s953", "s1423"}) {
    const auto nl = netgen::generate(name);
    const auto cf = collapsed_fault_list(nl);
    DiffSim ds(nl);
    Rng rng(17);
    for (int trial = 0; trial < 3; ++trial)
      for (const bool broadcast : {false, true}) {
        load_random(ds, rng, broadcast);
        expect_regions_match(ds, cf.faults());
      }
  }
}

TEST(DiffSimRegions, MappedFaultsOfCompactedCircuits) {
  for (const char* name : {"s444", "s1423"}) {
    const auto nl = netgen::generate(name);
    const auto cf = collapsed_fault_list(nl);
    const CompactModel model(EvalGraph::compile(nl), cf.faults(), true);
    std::vector<const MappedFault*> faults;
    for (std::size_t i = 0; i < cf.size(); ++i)
      faults.push_back(&model.mapped(i));
    DiffSim ds(model.graph());
    Rng rng(23);
    for (int trial = 0; trial < 3; ++trial)
      for (const bool broadcast : {false, true}) {
        load_random(ds, rng, broadcast);
        expect_regions_match(ds, faults);
      }
  }
}

TEST(DiffSimRegions, CountersSayWhyWorkHappened) {
  // a = b = 1, c = s = q0 = 0 in every lane: s/1 is stopped by u's other
  // pin (q0 = 0), s/0 is not activated, and x/0 and t/0 (x = t = 1) reach
  // their own roots.
  const RegionCircuit rc;
  DiffSim ds(rc.nl);
  for (std::size_t i = 0; i < 4; ++i)
    ds.good().set_input(i, i < 2 ? ~Word{0} : Word{0});
  for (std::size_t i = 0; i < 3; ++i) ds.good().set_state(i, 0);
  ds.commit_good();
  const std::vector<Fault> faults = {
      {rc.s, -1, 1}, {rc.s, -1, 0}, {rc.x, -1, 0}, {rc.t, -1, 0}};
  const auto counters = obs::scoped_counters(
      [&] { ds.simulate_regions(faults, [](std::size_t, const auto&) {}); });
  EXPECT_EQ(counters.get("diffsim.simulations"), 4u);
  EXPECT_EQ(counters.get("diffsim.region_blocked"), 2u);
  EXPECT_EQ(counters.get("diffsim.region_roots"), 2u);
}

}  // namespace
}  // namespace vcomp::fault
