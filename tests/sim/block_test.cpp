// The 512-lane Block value type, the SIMD sweep dispatch, and a fault-free
// BlockLaneSim (the plain 512-pattern simulator) against WordSim.

#include "vcomp/sim/block.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "vcomp/fault/block_lane_sim.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/sim/simd_dispatch.hpp"
#include "vcomp/sim/word_sim.hpp"
#include "vcomp/util/assert.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::sim {
namespace {

std::vector<SimdMode> available_modes() {
  std::vector<SimdMode> modes = {SimdMode::Scalar};
  if (simd_available(SimdMode::Avx2)) modes.push_back(SimdMode::Avx2);
  if (simd_available(SimdMode::Avx512)) modes.push_back(SimdMode::Avx512);
  return modes;
}

TEST(Block, LaneAndWordLayout) {
  Block b = Block::zero();
  EXPECT_FALSE(b.any());
  b.set_lane(0, true);
  b.set_lane(63, true);
  b.set_lane(64, true);
  b.set_lane(511, true);
  EXPECT_TRUE(b.any());
  EXPECT_EQ(b.w[0], (std::uint64_t{1} << 63) | 1u);
  EXPECT_EQ(b.w[1], 1u);
  EXPECT_EQ(b.w[7], std::uint64_t{1} << 63);
  EXPECT_TRUE(b.lane(64));
  EXPECT_FALSE(b.lane(65));
  b.set_lane(64, false);
  EXPECT_FALSE(b.lane(64));
  EXPECT_EQ(Block::fill(true), Block::ones());
  EXPECT_EQ(Block::fill(false), Block::zero());
}

TEST(Block, BitwiseOperatorsMatchPerWord) {
  Rng rng(7);
  Block a, b;
  for (std::size_t i = 0; i < kBlockWords; ++i) {
    a.w[i] = rng.next();
    b.w[i] = rng.next();
  }
  const Block band = a & b, bor = a | b, bxor = a ^ b, bnot = ~a;
  for (std::size_t i = 0; i < kBlockWords; ++i) {
    EXPECT_EQ(band.w[i], a.w[i] & b.w[i]);
    EXPECT_EQ(bor.w[i], a.w[i] | b.w[i]);
    EXPECT_EQ(bxor.w[i], a.w[i] ^ b.w[i]);
    EXPECT_EQ(bnot.w[i], ~a.w[i]);
  }
  Block c = a;
  c &= b;
  EXPECT_EQ(c, band);
  c = a;
  c |= b;
  EXPECT_EQ(c, bor);
  c = a;
  c ^= b;
  EXPECT_EQ(c, bxor);
}

TEST(Block, ApplyForce) {
  Rng rng(11);
  Block v, m0 = Block::zero(), m1 = Block::zero();
  for (std::size_t i = 0; i < kBlockWords; ++i) v.w[i] = rng.next();
  m0.set_lane(3, true);
  m1.set_lane(200, true);
  const Block f = block_apply_force(v, m0, m1);
  for (std::size_t k = 0; k < kBlockLanes; ++k) {
    const bool want = k == 3 ? false : k == 200 ? true : v.lane(k);
    ASSERT_EQ(f.lane(k), want) << "lane " << k;
  }
}

// The branch-free gate kernel against the switch-based word_eval, for
// every combinational type and pin count, at Word and Block width.
TEST(Block, FusedKernelMatchesWordEvalAtEveryWidth) {
  using netlist::GateType;
  Rng rng(13);
  for (const GateType t :
       {GateType::Buf, GateType::Not, GateType::And, GateType::Nand,
        GateType::Or, GateType::Nor, GateType::Xor, GateType::Xnor}) {
    const bool single = t == GateType::Buf || t == GateType::Not;
    for (std::size_t n = 1; n <= (single ? 1u : 5u); ++n) {
      std::vector<Block> pins(n);
      for (Block& p : pins)
        for (std::size_t i = 0; i < kBlockWords; ++i) p.w[i] = rng.next();
      const Block got = bitslice_eval_fused<Block>(
          t, n, [&](std::size_t k) -> const Block& { return pins[k]; });
      for (std::size_t i = 0; i < kBlockWords; ++i) {
        std::vector<Word> fan(n);
        for (std::size_t k = 0; k < n; ++k) fan[k] = pins[k].w[i];
        const Word want = word_eval(t, fan);
        ASSERT_EQ(got.w[i], want) << to_string(t) << " with " << n << " pins";
        ASSERT_EQ(word_eval_fused(t, n, [&](std::size_t k) { return fan[k]; }),
                  want)
            << to_string(t) << " with " << n << " pins";
      }
    }
  }
}

TEST(SimdDispatch, ModeStringsRoundTrip) {
  for (SimdMode m : {SimdMode::Auto, SimdMode::Scalar, SimdMode::Avx2,
                     SimdMode::Avx512})
    EXPECT_EQ(simd_mode_from_string(to_string(m)), m);
  EXPECT_FALSE(simd_mode_from_string("sse9").has_value());
  EXPECT_FALSE(simd_mode_from_string("").has_value());
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndActiveResolved) {
  EXPECT_TRUE(simd_available(SimdMode::Scalar));
  EXPECT_TRUE(simd_available(SimdMode::Auto));
  EXPECT_NE(active_simd(), SimdMode::Auto);
  EXPECT_TRUE(simd_available(active_simd()));
  EXPECT_NE(block_sweep_fn(SimdMode::Scalar), nullptr);
  EXPECT_NE(block_sweep_fn(SimdMode::Auto), nullptr);
}

TEST(SimdDispatch, UnavailableModeIsContractError) {
  for (SimdMode m : {SimdMode::Avx2, SimdMode::Avx512}) {
    if (!simd_available(m)) {
      EXPECT_THROW(block_sweep_fn(m), vcomp::ContractError);
    }
  }
}

// Every available sweep implementation must produce bit-identical values
// to eight independent 64-lane WordSim evaluations of the same patterns.
TEST(BlockLaneSim, MatchesWordSimAcrossModes) {
  const auto nl = netgen::generate("s444");
  const auto graph = EvalGraph::compile(nl);
  Rng rng(42);

  std::vector<std::vector<Word>> pi(kBlockWords), st(kBlockWords);
  for (std::size_t k = 0; k < kBlockWords; ++k) {
    pi[k].resize(nl.num_inputs());
    st[k].resize(nl.num_dffs());
    for (auto& w : pi[k]) w = rng.next();
    for (auto& w : st[k]) w = rng.next();
  }

  WordSim ref(graph);
  std::vector<std::vector<Word>> want_out(kBlockWords), want_ns(kBlockWords);
  for (std::size_t k = 0; k < kBlockWords; ++k) {
    for (std::size_t i = 0; i < nl.num_inputs(); ++i)
      ref.set_input(i, pi[k][i]);
    for (std::size_t i = 0; i < nl.num_dffs(); ++i) ref.set_state(i, st[k][i]);
    ref.eval();
    for (std::size_t o = 0; o < nl.num_outputs(); ++o)
      want_out[k].push_back(ref.output(o));
    for (std::size_t d = 0; d < nl.num_dffs(); ++d)
      want_ns[k].push_back(ref.next_state(d));
  }

  for (SimdMode mode : available_modes()) {
    fault::BlockLaneSim sim(graph, mode);
    EXPECT_EQ(sim.simd(), mode);
    for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
      Block b;
      for (std::size_t k = 0; k < kBlockWords; ++k) b.w[k] = pi[k][i];
      sim.set_pi_block(i, b);
    }
    for (std::size_t k = 0; k < kBlockWords; ++k)
      for (std::size_t i = 0; i < nl.num_dffs(); ++i)
        sim.set_state_word(i, k, st[k][i]);
    sim.eval();
    for (std::size_t k = 0; k < kBlockWords; ++k) {
      for (std::size_t o = 0; o < nl.num_outputs(); ++o)
        ASSERT_EQ(sim.output_block(o).w[k], want_out[k][o])
            << to_string(mode) << " word " << k << " output " << o;
      for (std::size_t d = 0; d < nl.num_dffs(); ++d)
        ASSERT_EQ(sim.next_state_block(d).w[k], want_ns[k][d])
            << to_string(mode) << " word " << k << " dff " << d;
    }
  }
}

TEST(BlockLaneSim, BlockSettersAndValueReadout) {
  const auto nl = netgen::generate("s526");
  fault::BlockLaneSim sim(EvalGraph::compile(nl));
  WordSim ref(nl);
  Rng rng(5);
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
    Block b;
    for (std::size_t k = 0; k < kBlockWords; ++k) b.w[k] = rng.next();
    sim.set_pi_block(i, b);
    ref.set_input(i, b.w[2]);
  }
  for (std::size_t i = 0; i < nl.num_dffs(); ++i) {
    Block b;
    for (std::size_t k = 0; k < kBlockWords; ++k) b.w[k] = rng.next();
    sim.set_state_block(i, b);
    ref.set_state(i, b.w[2]);
  }
  sim.eval();
  ref.eval();
  for (netlist::GateId g = 0; g < nl.num_gates(); ++g)
    ASSERT_EQ(sim.value_block(g).w[2], ref.value(g)) << "gate " << g;
}

TEST(BlockSweep, PatchCallbackFiresAfterStore) {
  // Flag one gate and overwrite its value from the patch callback; a
  // downstream consumer must observe the patched value, on every sweep.
  netlist::Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g1 = nl.add_gate(netlist::GateType::And, "g1", {a, b});
  const auto g2 = nl.add_gate(netlist::GateType::Buf, "g2", {g1});
  nl.mark_output(g2);
  nl.finalize();
  const auto graph = EvalGraph::compile(nl);

  struct Ctx {
    Block* vals;
    netlist::GateId victim;
    int fires = 0;
  };
  const BlockPatchFn patch_fn = [](void* user, netlist::GateId g) {
    auto* c = static_cast<Ctx*>(user);
    EXPECT_EQ(g, c->victim);
    c->vals[g] = Block::ones();
    ++c->fires;
  };
  for (SimdMode mode : available_modes()) {
    std::vector<Block> vals(nl.num_gates(), Block::zero());
    std::vector<std::uint8_t> patch(nl.num_gates(), 0);
    patch[g1] = 1;
    Ctx ctx{vals.data(), g1, 0};
    block_sweep_fn(mode)(*graph, vals.data(), patch.data(), patch_fn, &ctx);
    EXPECT_EQ(ctx.fires, 1) << to_string(mode);
    // And(0,0) stored 0, the patch overwrote it with all-ones, and the
    // Buf consumer must have read the patched value.
    EXPECT_EQ(vals[g1], Block::ones()) << to_string(mode);
    EXPECT_EQ(vals[g2], Block::ones()) << to_string(mode);
  }
}

}  // namespace
}  // namespace vcomp::sim
