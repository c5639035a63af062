// Golden-equivalence suite for the compiled evaluation core.
//
// The EvalGraph-backed simulators must be *byte-identical* to the
// pre-compilation semantics: a naive reference evaluator that walks the
// builder netlist's topo order, gathers fanin values into a scratch buffer
// and calls the plain gate kernels — exactly what the simulators did before
// the CSR/levelized refactor.  Random netgen circuits drive every engine
// (WordSim, TernarySim, DiffSim, BlockLaneSim) against that reference, and
// the thread-count tests pin down that VCOMP_THREADS never leaks into
// results.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "vcomp/atpg/test_set.hpp"
#include "vcomp/fault/block_lane_sim.hpp"
#include "vcomp/fault/fault.hpp"
#include "vcomp/fault/fault_sim.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/sim/eval_graph.hpp"
#include "vcomp/sim/simd_dispatch.hpp"
#include "vcomp/sim/ternary_sim.hpp"
#include "vcomp/sim/word_sim.hpp"
#include "vcomp/tmeas/hardness.hpp"
#include "vcomp/tmeas/scoap.hpp"
#include "vcomp/util/parallel.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::sim {
namespace {

using fault::Fault;
using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;

Netlist circuit(const char* name, std::uint64_t seed) {
  auto p = netgen::profile(name);
  p.seed = seed;
  return netgen::generate(p);
}

bool is_source(GateType t) {
  return t == GateType::Input || t == GateType::Dff;
}

// ---- naive reference evaluators (old-path semantics) ----------------------

/// Gather-based topo walk over the builder netlist, no compiled structure.
void ref_word_eval(const Netlist& nl, std::vector<Word>& vals) {
  std::vector<Word> scratch;
  for (GateId id : nl.topo_order()) {
    const auto& g = nl.gate(id);
    scratch.clear();
    for (GateId f : g.fanin) scratch.push_back(vals[f]);
    vals[id] = word_eval(g.type, scratch);
  }
}

/// Same walk with a stuck-at fault wedged in: stems override the signal,
/// branches override one sink pin.
void ref_faulty_eval(const Netlist& nl, std::vector<Word>& vals,
                     const Fault& f) {
  const Word stuck = f.stuck ? ~Word{0} : Word{0};
  if (f.is_stem() && is_source(nl.gate(f.gate).type)) vals[f.gate] = stuck;
  std::vector<Word> scratch;
  for (GateId id : nl.topo_order()) {
    const auto& g = nl.gate(id);
    scratch.clear();
    for (std::size_t k = 0; k < g.fanin.size(); ++k) {
      Word w = vals[g.fanin[k]];
      if (!f.is_stem() && f.gate == id &&
          static_cast<std::int16_t>(k) == f.pin)
        w = stuck;
      scratch.push_back(w);
    }
    Word v = word_eval(g.type, scratch);
    if (f.is_stem() && f.gate == id) v = stuck;
    vals[id] = v;
  }
}

/// Captured next-state of flip-flop \p i under \p f (handles D-pin branches).
Word ref_faulty_next(const Netlist& nl, const std::vector<Word>& vals,
                     const Fault& f, std::size_t i) {
  const GateId dff = nl.dffs()[i];
  Word w = vals[nl.gate(dff).fanin[0]];
  if (!f.is_stem() && f.gate == dff && f.pin == 0)
    w = f.stuck ? ~Word{0} : Word{0};
  return w;
}

std::vector<Word> random_sources(const Netlist& nl, Rng& rng) {
  std::vector<Word> vals(nl.num_gates(), 0);
  for (GateId g : nl.inputs()) vals[g] = rng.next();
  for (GateId g : nl.dffs()) vals[g] = rng.next();
  return vals;
}

// ---- structural invariants ------------------------------------------------

TEST(EvalGraph, MirrorsBuilderNetlistExactly) {
  for (const char* name : {"s444", "s526"}) {
    SCOPED_TRACE(name);
    const Netlist nl = circuit(name, 7);
    const auto eg = EvalGraph::compile(nl);

    ASSERT_EQ(eg->num_gates(), nl.num_gates());
    std::vector<std::uint8_t> po_mask(nl.num_gates(), 0);
    for (GateId po : nl.outputs()) po_mask[po] = 1;
    for (GateId id = 0; id < nl.num_gates(); ++id) {
      const auto& g = nl.gate(id);
      EXPECT_EQ(eg->type(id), g.type);
      EXPECT_EQ(eg->level(id), g.level);
      EXPECT_EQ(eg->is_po(id), po_mask[id] != 0);
      const auto fin = eg->fanin(id);
      ASSERT_EQ(fin.size(), g.fanin.size());
      EXPECT_TRUE(std::equal(fin.begin(), fin.end(), g.fanin.begin()));
      const auto fout = eg->fanout(id);
      ASSERT_EQ(fout.size(), g.fanout.size());
      EXPECT_TRUE(std::equal(fout.begin(), fout.end(), g.fanout.begin()));
    }

    // The schedule is exactly the builder topo order, and its recorded
    // level partition brackets every gate correctly.
    const auto sched = eg->schedule();
    ASSERT_EQ(sched.size(), nl.topo_order().size());
    EXPECT_TRUE(std::equal(sched.begin(), sched.end(),
                           nl.topo_order().begin()));
    for (std::uint32_t lvl = 0; lvl < eg->num_levels(); ++lvl)
      for (GateId id : eg->level_gates(lvl)) EXPECT_EQ(eg->level(id), lvl);

    // DFF bookkeeping: dff_index_of and the feeds-dff CSR agree with the
    // builder's fanin relation.
    for (std::size_t i = 0; i < nl.num_dffs(); ++i) {
      const GateId dff = nl.dffs()[i];
      EXPECT_EQ(eg->dff_index_of(dff), i);
      EXPECT_EQ(eg->dff_input(i), nl.gate(dff).fanin[0]);
      const auto feeds = eg->feeds_dff(eg->dff_input(i));
      EXPECT_TRUE(std::find(feeds.begin(), feeds.end(), i) != feeds.end());
    }
  }
}

/// Checks the region arrays against their definition, computed from the
/// builder netlist's fanin lists alone: a gate is interior iff exactly one
/// pin of any gate reads it, it is no primary output and that pin is no
/// flip-flop's; its root is the first non-interior gate down the readers.
void expect_regions_match_definition(const Netlist& nl) {
  const auto eg = EvalGraph::compile(nl);
  struct Pin {
    GateId gate;
    std::uint32_t pin;
  };
  std::vector<std::vector<Pin>> readers(nl.num_gates());
  for (GateId h = 0; h < nl.num_gates(); ++h)
    for (std::uint32_t p = 0; p < nl.gate(h).fanin.size(); ++p)
      readers[nl.gate(h).fanin[p]].push_back({h, p});
  std::vector<std::uint8_t> po(nl.num_gates(), 0);
  for (GateId o : nl.outputs()) po[o] = 1;
  auto interior = [&](GateId g) {
    return readers[g].size() == 1 && po[g] == 0 &&
           nl.gate(readers[g][0].gate).type != GateType::Dff;
  };
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    SCOPED_TRACE(nl.gate(g).name);
    ASSERT_EQ(eg->interior(g), interior(g));
    GateId root = g;
    while (interior(root)) root = readers[root][0].gate;
    EXPECT_EQ(eg->region_root(g), root);
    if (!interior(g)) {
      EXPECT_EQ(eg->region_reader(g), netlist::kNoGate);
      continue;
    }
    EXPECT_EQ(eg->region_reader(g), readers[g][0].gate);
    EXPECT_EQ(eg->region_pin(g), readers[g][0].pin);
  }
}

TEST(EvalGraph, RegionsMatchTheirDefinition) {
  for (const char* name : {"s444", "s526", "s1423", "s5378"}) {
    SCOPED_TRACE(name);
    expect_regions_match_definition(circuit(name, 7));
  }
  // Hand-built edges: t is read on both pins of one gate, p is a primary
  // output with one reader, f feeds only a flip-flop, and the PI s and the
  // flip-flop q feed one pin each.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId s = nl.add_input("s");
  const GateId q = nl.add_dff("q");
  const GateId t = nl.add_gate(GateType::And, "t", {a, b});
  const GateId d = nl.add_gate(GateType::Xor, "d", {t, t});
  const GateId p = nl.add_gate(GateType::Nand, "p", {a, b});
  const GateId r = nl.add_gate(GateType::Or, "r", {p, b});
  const GateId f = nl.add_gate(GateType::Nor, "f", {a, b});
  const GateId u = nl.add_gate(GateType::And, "u", {s, q});
  const GateId n = nl.add_gate(GateType::Not, "n", {u});
  nl.set_dff_input(q, f);
  for (GateId o : {d, p, r, n}) nl.mark_output(o);
  nl.finalize();
  expect_regions_match_definition(nl);
  const auto eg = EvalGraph::compile(nl);
  EXPECT_FALSE(eg->interior(t));
  EXPECT_FALSE(eg->interior(p));
  EXPECT_FALSE(eg->interior(f));
  EXPECT_EQ(eg->region_root(s), n);
  EXPECT_EQ(eg->region_root(q), n);
}

// ---- golden equivalence: good-circuit simulators --------------------------

TEST(EvalGraphGolden, WordSimMatchesNaiveReference) {
  Rng rng(11);
  for (const char* name : {"s444", "s526"}) {
    SCOPED_TRACE(name);
    const Netlist nl = circuit(name, 21);
    WordSim sim(nl);
    for (int round = 0; round < 4; ++round) {
      std::vector<Word> ref = random_sources(nl, rng);
      for (std::size_t i = 0; i < nl.num_inputs(); ++i)
        sim.set_input(i, ref[nl.inputs()[i]]);
      for (std::size_t i = 0; i < nl.num_dffs(); ++i)
        sim.set_state(i, ref[nl.dffs()[i]]);
      sim.eval();
      ref_word_eval(nl, ref);
      for (GateId id = 0; id < nl.num_gates(); ++id)
        ASSERT_EQ(sim.value(id), ref[id]) << "gate " << id;
      for (std::size_t i = 0; i < nl.num_dffs(); ++i)
        ASSERT_EQ(sim.next_state(i), ref[nl.gate(nl.dffs()[i]).fanin[0]]);
    }
  }
}

TEST(EvalGraphGolden, TernarySimMatchesNaiveReference) {
  Rng rng(13);
  const Netlist nl = circuit("s444", 23);
  TernarySim sim(nl);
  for (int round = 0; round < 4; ++round) {
    std::vector<Trit> ref(nl.num_gates(), Trit::X);
    auto draw = [&] {
      const auto r = rng.below(3);
      return r == 0 ? Trit::Zero : r == 1 ? Trit::One : Trit::X;
    };
    sim.clear();
    for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
      ref[nl.inputs()[i]] = draw();
      sim.set_input(i, ref[nl.inputs()[i]]);
    }
    for (std::size_t i = 0; i < nl.num_dffs(); ++i) {
      ref[nl.dffs()[i]] = draw();
      sim.set_state(i, ref[nl.dffs()[i]]);
    }
    sim.eval();
    std::vector<Trit> scratch;
    for (GateId id : nl.topo_order()) {
      const auto& g = nl.gate(id);
      scratch.clear();
      for (GateId f : g.fanin) scratch.push_back(ref[f]);
      ref[id] = trit_eval(g.type, scratch);
    }
    for (GateId id = 0; id < nl.num_gates(); ++id)
      ASSERT_EQ(sim.value(id), ref[id]) << "gate " << id;
  }
}

// ---- golden equivalence: fault simulators ---------------------------------

TEST(EvalGraphGolden, DiffSimMatchesForkedReference) {
  Rng rng(17);
  for (const char* name : {"s444", "s526"}) {
    SCOPED_TRACE(name);
    const Netlist nl = circuit(name, 29);
    const auto faults = fault::full_fault_universe(nl);
    fault::DiffSim sim(nl);

    const std::vector<Word> src = random_sources(nl, rng);
    std::vector<Word> good = src;
    ref_word_eval(nl, good);
    for (std::size_t i = 0; i < nl.num_inputs(); ++i)
      sim.good().set_input(i, src[nl.inputs()[i]]);
    for (std::size_t i = 0; i < nl.num_dffs(); ++i)
      sim.good().set_state(i, src[nl.dffs()[i]]);
    sim.commit_good();

    for (const Fault& f : faults) {
      std::vector<Word> bad = src;
      ref_faulty_eval(nl, bad, f);

      Word po_any = 0;
      for (GateId po : nl.outputs()) po_any |= good[po] ^ bad[po];
      std::map<std::uint32_t, Word> ppo;
      for (std::size_t i = 0; i < nl.num_dffs(); ++i) {
        const Word d = ref_faulty_next(nl, good, Fault{}, i) ^
                       ref_faulty_next(nl, bad, f, i);
        if (d != 0) ppo[static_cast<std::uint32_t>(i)] = d;
      }

      const auto eff = sim.simulate(f);
      ASSERT_EQ(eff.po_any, po_any) << fault::fault_name(nl, f);
      std::map<std::uint32_t, Word> got;
      for (const auto& d : eff.ppo_diffs)
        if (d.diff != 0) got[d.dff_index] |= d.diff;
      ASSERT_EQ(got, ppo) << fault::fault_name(nl, f);
    }
  }
}

TEST(EvalGraphGolden, BlockLaneSimMatchesForkedReference) {
  Rng rng(19);
  const Netlist nl = circuit("s444", 31);
  const auto faults = fault::full_fault_universe(nl);
  const auto graph = EvalGraph::compile(nl);

  // Word k of every source holds the stimuli of lanes 64k .. 64k+63, so
  // each lane sees its own pattern as well as its own fault.
  std::vector<std::vector<Word>> src;
  for (std::size_t k = 0; k < kBlockWords; ++k)
    src.push_back(random_sources(nl, rng));

  for (SimdMode mode : {SimdMode::Scalar, SimdMode::Avx2, SimdMode::Avx512}) {
    if (!simd_available(mode)) continue;
    SCOPED_TRACE(to_string(mode));
    fault::BlockLaneSim sim(graph, mode);
    for (std::size_t base = 0; base < faults.size(); base += kBlockLanes) {
      const std::size_t count = std::min(kBlockLanes, faults.size() - base);
      sim.clear();
      for (std::size_t l = 0; l < count; ++l)
        sim.inject(sim.add_lane(), faults[base + l]);
      for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
        Block b;
        for (std::size_t k = 0; k < kBlockWords; ++k)
          b.w[k] = src[k][nl.inputs()[i]];
        sim.set_pi_block(i, b);
      }
      for (std::size_t i = 0; i < nl.num_dffs(); ++i)
        for (std::size_t k = 0; k < kBlockWords; ++k)
          sim.set_state_word(i, k, src[k][nl.dffs()[i]]);
      sim.eval();
      for (std::size_t l = 0; l < count; ++l) {
        const Fault& f = faults[base + l];
        std::vector<Word> bad = src[l / 64];
        ref_faulty_eval(nl, bad, f);
        const std::size_t bit = l % 64;
        for (std::size_t o = 0; o < nl.num_outputs(); ++o)
          ASSERT_EQ(sim.output_block(o).lane(l),
                    static_cast<bool>((bad[nl.outputs()[o]] >> bit) & 1))
              << fault::fault_name(nl, f) << " lane " << l << " po " << o;
        for (std::size_t i = 0; i < nl.num_dffs(); ++i)
          ASSERT_EQ(sim.next_state_block(i).lane(l),
                    static_cast<bool>((ref_faulty_next(nl, bad, f, i) >> bit) &
                                      1))
              << fault::fault_name(nl, f) << " lane " << l << " dff " << i;
      }
    }
  }
}

// ---- graph sharing --------------------------------------------------------

TEST(EvalGraphGolden, SharedGraphEqualsPrivatelyCompiledGraph) {
  const Netlist nl = circuit("s526", 37);
  const auto eg = EvalGraph::compile(nl);

  // Every consumer built on the shared graph must agree with one that
  // compiled privately from the same netlist.
  const tmeas::Scoap shared(*eg), priv(nl);
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    ASSERT_EQ(shared.cc0(id), priv.cc0(id));
    ASSERT_EQ(shared.cc1(id), priv.cc1(id));
    ASSERT_EQ(shared.co(id), priv.co(id));
  }

  const auto faults = fault::full_fault_universe(nl);
  const tmeas::HardnessOptions hopts{64, 5};
  EXPECT_EQ(tmeas::detection_counts(eg, faults, hopts),
            tmeas::detection_counts(nl, faults, hopts));
  EXPECT_EQ(tmeas::hardness_order(eg, faults, hopts),
            tmeas::hardness_order(nl, faults, hopts));

  WordSim a(eg), b(nl);
  Rng rng(41);
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
    const Word w = rng.next();
    a.set_input(i, w);
    b.set_input(i, w);
  }
  for (std::size_t i = 0; i < nl.num_dffs(); ++i) {
    const Word w = rng.next();
    a.set_state(i, w);
    b.set_state(i, w);
  }
  a.eval();
  b.eval();
  for (GateId id = 0; id < nl.num_gates(); ++id)
    ASSERT_EQ(a.value(id), b.value(id));
}

// ---- thread-count invariance ----------------------------------------------

TEST(EvalGraphDeterminism, FullScanTestSetInvariantAcrossThreadCounts) {
  const Netlist nl = circuit("s444", 43);
  const auto faults = fault::full_fault_universe(nl);
  const auto run = [&](std::size_t threads) {
    util::ScopedParallelism scoped(threads);
    return atpg::generate_full_scan_tests(nl, faults, {});
  };
  const auto serial = run(1);
  const auto pooled = run(4);
  EXPECT_EQ(serial.vectors, pooled.vectors);
  EXPECT_EQ(serial.classes, pooled.classes);
  EXPECT_EQ(serial.num_detected, pooled.num_detected);
  EXPECT_EQ(serial.num_redundant, pooled.num_redundant);
  EXPECT_EQ(serial.num_aborted, pooled.num_aborted);
}

TEST(EvalGraphDeterminism, DetectionCountsInvariantAcrossThreadCounts) {
  const Netlist nl = circuit("s526", 47);
  const auto faults = fault::full_fault_universe(nl);
  const auto run = [&](std::size_t threads) {
    util::ScopedParallelism scoped(threads);
    return tmeas::detection_counts(nl, faults, {128, 3});
  };
  EXPECT_EQ(run(1), run(4));
}

}  // namespace
}  // namespace vcomp::sim
