#include "vcomp/fault/compact_model.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "vcomp/check/reference.hpp"
#include "vcomp/fault/block_lane_sim.hpp"
#include "vcomp/fault/collapse.hpp"
#include "vcomp/fault/fault_sim.hpp"
#include "vcomp/netgen/example_circuit.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::fault {
namespace {

using netlist::GateId;
using sim::Block;
using sim::EvalGraph;
using sim::Word;

/// Canonical detection summary of one fault under one committed stimulus:
/// the PO detection word plus every flip-flop's capture-diff word (several
/// sparse PpoDiff entries for the same dff XOR together, exactly as the
/// tracker folds them).
struct Verdict {
  Word po_any = 0;
  std::map<std::uint32_t, Word> ppo;

  friend bool operator==(const Verdict&, const Verdict&) = default;
};

Verdict summarize(const DiffSim::Effect& eff) {
  Verdict v;
  v.po_any = eff.po_any;
  for (const auto& d : eff.ppo_diffs) {
    v.ppo[d.dff_index] ^= d.diff;
    if (v.ppo[d.dff_index] == 0) v.ppo.erase(d.dff_index);
  }
  return v;
}

/// Drives both engines with one random stimulus (compaction preserves
/// input/dff order, so the same indices address the same nets).
void randomize_pair(sim::WordSim& a, sim::WordSim& b, Rng& rng) {
  for (std::size_t i = 0; i < a.graph()->num_inputs(); ++i) {
    const Word w = rng.next();
    a.set_input(i, w);
    b.set_input(i, w);
  }
  for (std::size_t i = 0; i < a.graph()->num_dffs(); ++i) {
    const Word w = rng.next();
    a.set_state(i, w);
    b.set_state(i, w);
  }
}

/// Every collapsed fault must produce identical verdicts when simulated on
/// the original graph (DiffSim::simulate) and as a mapped fault on the
/// compacted graph (DiffSim::simulate_mapped), under the same stimuli.
void expect_mapped_equivalent(const std::string& profile) {
  const auto nl = netgen::generate(profile);
  const auto cf = collapsed_fault_list(nl);
  auto graph = EvalGraph::compile(nl);
  CompactModel model(graph, cf.faults(), /*enable=*/true);
  ASSERT_TRUE(model.enabled());
  EXPECT_LT(model.netlist().num_gates(), nl.num_gates())
      << profile << ": compaction removed nothing";

  DiffSim ref(graph);
  DiffSim cut(model.graph());
  Rng rng(0xc0357e57u ^ std::hash<std::string>{}(profile));
  for (int round = 0; round < 4; ++round) {
    randomize_pair(ref.good(), cut.good(), rng);
    ref.commit_good();
    cut.commit_good();

    for (std::size_t i = 0; i < cf.faults().size(); ++i) {
      const Verdict a = summarize(ref.simulate(cf.faults()[i]));
      const Verdict b = summarize(cut.simulate_mapped(model.mapped(i)));
      EXPECT_EQ(a, b) << profile << " round " << round << " fault "
                      << fault_name(nl, cf.faults()[i]);
    }
  }
}

TEST(CompactModel, MappedVerdictsMatchOriginal_s444) {
  expect_mapped_equivalent("s444");
}

TEST(CompactModel, MappedVerdictsMatchOriginal_s526) {
  expect_mapped_equivalent("s526");
}

TEST(CompactModel, MappedVerdictsMatchOriginalExampleCircuit) {
  const auto nl = netgen::example_circuit();
  const auto cf = collapsed_fault_list(nl);
  auto graph = EvalGraph::compile(nl);
  CompactModel model(graph, cf.faults(), /*enable=*/true);
  DiffSim ref(graph);
  DiffSim cut(model.graph());
  // Exhaustive over the 8 state patterns, one per word bit.
  for (std::size_t i = 0; i < graph->num_dffs(); ++i) {
    Word w = 0;
    for (int p = 0; p < 8; ++p)
      if ((p >> i) & 1) w |= Word{1} << p;
    ref.good().set_state(i, w);
    cut.good().set_state(i, w);
  }
  ref.commit_good();
  cut.commit_good();
  for (std::size_t i = 0; i < cf.faults().size(); ++i)
    EXPECT_EQ(summarize(ref.simulate(cf.faults()[i])),
              summarize(cut.simulate_mapped(model.mapped(i))))
        << fault_name(nl, cf.faults()[i]);
}

TEST(CompactModel, IdentityModeSharesGraphAndMapsOneSite) {
  const auto nl = netgen::generate("s444");
  const auto cf = collapsed_fault_list(nl);
  auto graph = EvalGraph::compile(nl);
  CompactModel model(graph, cf.faults(), /*enable=*/false);
  EXPECT_FALSE(model.enabled());
  EXPECT_EQ(model.graph().get(), graph.get());
  EXPECT_EQ(model.compaction(), nullptr);
  for (std::size_t i = 0; i < cf.faults().size(); ++i) {
    const auto& mf = model.mapped(i);
    ASSERT_EQ(mf.sites.size(), 1u);
    EXPECT_EQ(mf.sites[0].gate, cf.faults()[i].gate);
    EXPECT_EQ(mf.sites[0].pin, cf.faults()[i].pin);
    EXPECT_EQ(mf.stuck, cf.faults()[i].stuck);
    EXPECT_EQ(model.value_id(cf.faults()[i].gate), cf.faults()[i].gate);
  }
}

/// BlockLaneSim with per-lane mapped faults on the compacted graph must
/// agree with BlockLaneSim with the original faults on the original graph —
/// the exact configuration the tracker's hidden-advance uses — over one
/// 512-lane batch.
TEST(BlockLaneSim, MappedLanesMatchPlainFaultsOnOriginal) {
  const auto nl = netgen::generate("s526");
  const auto cf = collapsed_fault_list(nl);
  auto graph = EvalGraph::compile(nl);
  CompactModel model(graph, cf.faults(), /*enable=*/true);

  BlockLaneSim ref(graph);
  BlockLaneSim cut(model.graph());
  Rng rng(0xb10cull);
  const std::size_t batch =
      std::min<std::size_t>(cf.faults().size(), sim::kBlockLanes);

  // Shared test vector, per-lane state, per-lane fault.
  std::vector<std::uint8_t> pis(graph->num_inputs());
  for (auto& b : pis) b = rng.next() & 1;
  std::vector<Block> states(graph->num_dffs(), Block::zero());
  for (auto& s : states)
    for (std::size_t k = 0; k < sim::kBlockWords; ++k) s.w[k] = rng.next();

  for (std::size_t l = 0; l < batch; ++l) {
    ref.inject(ref.add_lane(), cf.faults()[l]);
    cut.inject_mapped(cut.add_lane(), model.mapped(l));
  }
  for (BlockLaneSim* s : {&ref, &cut}) {
    for (std::size_t i = 0; i < pis.size(); ++i)
      s->set_pi_all(i, pis[i] != 0);
    for (std::size_t i = 0; i < states.size(); ++i)
      s->set_state_block(i, states[i]);
    s->eval();
  }

  for (std::size_t k = 0; k < batch; ++k) {
    for (std::size_t o = 0; o < graph->num_outputs(); ++o)
      EXPECT_EQ(ref.output_block(o).lane(k), cut.output_block(o).lane(k))
          << "po " << o << " lane " << k;
    for (std::size_t d = 0; d < graph->num_dffs(); ++d)
      EXPECT_EQ(ref.next_state_block(d).lane(k),
                cut.next_state_block(d).lane(k))
          << "dff " << d << " lane " << k;
  }
}

/// BlockLaneSim agrees lane for lane with the naive reference evaluator,
/// with its own stimulus and fault in each of the 512 lanes, under every
/// available dispatch mode.
TEST(BlockLaneSim, MatchesReferencePerDispatchMode) {
  const auto nl = netgen::generate("s444");
  const auto cf = collapsed_fault_list(nl);
  auto graph = EvalGraph::compile(nl);
  Rng rng(7u);

  // Word k of each source holds the patterns of lanes 64k .. 64k+63.
  std::vector<std::vector<Word>> src(sim::kBlockWords);
  for (auto& words : src) {
    words.assign(nl.num_gates(), 0);
    for (GateId g : nl.inputs()) words[g] = rng.next();
    for (GateId g : nl.dffs()) words[g] = rng.next();
  }
  auto lane_fault = [&](std::size_t l) -> const Fault& {
    return cf.faults()[l % cf.faults().size()];
  };

  std::vector<Block> want_po(nl.num_outputs(), Block::zero());
  std::vector<Block> want_ns(nl.num_dffs(), Block::zero());
  for (std::size_t l = 0; l < sim::kBlockLanes; ++l) {
    const Fault& f = lane_fault(l);
    std::vector<Word> bad = src[l / 64];
    check::ref_faulty_eval(nl, bad, f);
    for (std::size_t o = 0; o < nl.num_outputs(); ++o)
      want_po[o].set_lane(l, (bad[nl.outputs()[o]] >> (l % 64)) & 1);
    for (std::size_t d = 0; d < nl.num_dffs(); ++d)
      want_ns[d].set_lane(
          l, (check::ref_next_state(nl, bad, &f, d) >> (l % 64)) & 1);
  }

  for (sim::SimdMode mode :
       {sim::SimdMode::Scalar, sim::SimdMode::Avx2, sim::SimdMode::Avx512}) {
    if (!sim::simd_available(mode)) continue;
    BlockLaneSim cut(graph, mode);
    for (std::size_t l = 0; l < sim::kBlockLanes; ++l)
      cut.inject(cut.add_lane(), lane_fault(l));
    for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
      Block b;
      for (std::size_t k = 0; k < sim::kBlockWords; ++k)
        b.w[k] = src[k][nl.inputs()[i]];
      cut.set_pi_block(i, b);
    }
    for (std::size_t i = 0; i < nl.num_dffs(); ++i)
      for (std::size_t k = 0; k < sim::kBlockWords; ++k)
        cut.set_state_word(i, k, src[k][nl.dffs()[i]]);
    cut.eval();
    for (std::size_t o = 0; o < nl.num_outputs(); ++o)
      EXPECT_EQ(cut.output_block(o), want_po[o])
          << to_string(mode) << " po " << o;
    for (std::size_t d = 0; d < nl.num_dffs(); ++d)
      EXPECT_EQ(cut.next_state_block(d), want_ns[d])
          << to_string(mode) << " dff " << d;
  }
}

}  // namespace
}  // namespace vcomp::fault
