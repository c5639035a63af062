#include "vcomp/scan/fabric.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "vcomp/netgen/example_circuit.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/util/assert.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::scan {
namespace {

using Bits = std::vector<std::uint8_t>;

Bits random_bits(Rng& rng, std::size_t n) {
  Bits b(n);
  for (auto& v : b) v = rng.bit();
  return b;
}

TEST(PartitionPolicy, StringRoundTrip) {
  for (auto p : {PartitionPolicy::RoundRobin, PartitionPolicy::Contiguous,
                 PartitionPolicy::SeededRandom}) {
    PartitionPolicy back{};
    ASSERT_TRUE(partition_from_string(to_string(p), back));
    EXPECT_EQ(back, p);
  }
  PartitionPolicy out{};
  EXPECT_FALSE(partition_from_string("snake", out));
}

TEST(Fabric, SingleChainIsIdentityForEveryPolicy) {
  auto nl = netgen::generate("s444");
  const std::size_t L = nl.num_dffs();
  for (auto p : {PartitionPolicy::RoundRobin, PartitionPolicy::Contiguous,
                 PartitionPolicy::SeededRandom}) {
    Fabric f(nl, 1, p, 42);
    ASSERT_EQ(f.num_chains(), 1u);
    ASSERT_EQ(f.total_length(), L);
    EXPECT_EQ(f.max_chain_length(), L);
    for (std::size_t pos = 0; pos < L; ++pos) {
      EXPECT_EQ(f.dff_at(0, pos), pos);
      EXPECT_EQ(f.dff_at_flat(pos), pos);
    }
    for (std::uint32_t d = 0; d < nl.num_dffs(); ++d) {
      EXPECT_EQ(f.chain_of(d), 0u);
      EXPECT_EQ(f.pos_of(d), d);
      EXPECT_EQ(f.flat_of(d), d);
    }
  }
}

TEST(Fabric, RoundRobinPartition) {
  auto nl = netgen::generate("s444");  // 21 flip-flops
  Fabric f(nl, 4, PartitionPolicy::RoundRobin);
  ASSERT_EQ(f.num_chains(), 4u);
  for (std::uint32_t d = 0; d < nl.num_dffs(); ++d) {
    EXPECT_EQ(f.chain_of(d), d % 4);
    EXPECT_EQ(f.pos_of(d), d / 4);
  }
}

TEST(Fabric, ContiguousPartitionIsBalanced) {
  auto nl = netgen::generate("s444");  // 21 flip-flops -> 6,5,5,5
  Fabric f(nl, 4, PartitionPolicy::Contiguous);
  ASSERT_EQ(nl.num_dffs(), 21u);
  EXPECT_EQ(f.chain_length(0), 6u);
  EXPECT_EQ(f.chain_length(1), 5u);
  EXPECT_EQ(f.chain_length(2), 5u);
  EXPECT_EQ(f.chain_length(3), 5u);
  // Consecutive dff indices, in order.
  std::uint32_t expect = 0;
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t p = 0; p < f.chain_length(c); ++p) {
      EXPECT_EQ(f.dff_at(c, p), expect++);
    }
  }
  EXPECT_EQ(f.chain_offset(0), 0u);
  EXPECT_EQ(f.chain_offset(3), 16u);
}

TEST(Fabric, EveryPolicyIsAPermutation) {
  auto nl = netgen::generate("s526");
  for (auto p : {PartitionPolicy::RoundRobin, PartitionPolicy::Contiguous,
                 PartitionPolicy::SeededRandom}) {
    for (std::size_t n : {1u, 2u, 3u, 7u}) {
      Fabric f(nl, n, p, 1234);
      std::vector<int> seen(nl.num_dffs(), 0);
      for (std::size_t fp = 0; fp < f.total_length(); ++fp) {
        seen[f.dff_at_flat(fp)] += 1;
      }
      for (int s : seen) EXPECT_EQ(s, 1);
      // flat_of inverts dff_at_flat.
      for (std::size_t fp = 0; fp < f.total_length(); ++fp) {
        EXPECT_EQ(f.flat_of(f.dff_at_flat(fp)), fp);
      }
    }
  }
}

TEST(Fabric, SeededRandomIsDeterministicPerSeed) {
  auto nl = netgen::generate("s444");
  Fabric a(nl, 3, PartitionPolicy::SeededRandom, 7);
  Fabric b(nl, 3, PartitionPolicy::SeededRandom, 7);
  Fabric c(nl, 3, PartitionPolicy::SeededRandom, 8);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(Fabric, ExplicitOrdersValidated) {
  auto nl = netgen::example_circuit();  // 3 flip-flops
  EXPECT_NO_THROW(Fabric(nl, {{2u, 0u}, {1u}}));
  EXPECT_THROW(Fabric(nl, {{0u, 0u}, {1u}}), vcomp::ContractError);
  EXPECT_THROW(Fabric(nl, {{0u, 1u}}), vcomp::ContractError);
  EXPECT_THROW(Fabric(nl, {{0u, 1u, 2u}, {}}), vcomp::ContractError);
}

TEST(Fabric, ChainCountValidated) {
  auto nl = netgen::example_circuit();  // 3 flip-flops
  EXPECT_NO_THROW(Fabric(nl, 3));
  EXPECT_THROW(Fabric(nl, 0), vcomp::ContractError);
  EXPECT_THROW(Fabric(nl, 4), vcomp::ContractError);
}

TEST(Fabric, PlanForApportionsProportionally) {
  auto nl = netgen::generate("s526");
  for (auto p : {PartitionPolicy::RoundRobin, PartitionPolicy::Contiguous,
                 PartitionPolicy::SeededRandom}) {
    for (std::size_t n : {1u, 2u, 3u, 5u}) {
      Fabric f(nl, n, p, 99);
      for (std::size_t s = 0; s <= f.total_length(); ++s) {
        const ShiftPlan plan = f.plan_for(s);
        ASSERT_EQ(plan.size(), n);
        std::size_t total = 0;
        for (std::size_t c = 0; c < n; ++c) {
          EXPECT_LE(plan[c], f.chain_length(c));
          total += plan[c];
        }
        EXPECT_EQ(total, s);
        EXPECT_EQ(Fabric::plan_total(plan), s);
        EXPECT_LE(f.plan_cycles(plan), f.max_chain_length());
      }
      // A full shift fills every chain exactly.
      const ShiftPlan full = f.plan_for(f.total_length());
      for (std::size_t c = 0; c < n; ++c) {
        EXPECT_EQ(full[c], f.chain_length(c));
      }
    }
  }
}

TEST(Fabric, PlanForSingleChainIsScalar) {
  auto nl = netgen::generate("s444");
  Fabric f(nl);
  for (std::size_t s = 0; s <= f.total_length(); ++s) {
    EXPECT_EQ(f.plan_for(s), (ShiftPlan{s}));
  }
  EXPECT_THROW(f.plan_for(f.total_length() + 1), vcomp::ContractError);
}

TEST(Fabric, PlanForBalancedChainsNearlyEqual) {
  // Equal-length chains must get shares within one bit of each other
  // (largest remainder never inverts an ordering).
  auto nl = netgen::generate("s526");  // 21 flip-flops
  Fabric f(nl, 3, PartitionPolicy::RoundRobin);  // 7,7,7
  for (std::size_t s = 0; s <= f.total_length(); ++s) {
    const ShiftPlan plan = f.plan_for(s);
    const auto [mn, mx] = std::minmax_element(plan.begin(), plan.end());
    EXPECT_LE(*mx - *mn, 1u);
  }
}

TEST(FabricOut, DirectAndHxorPerChain) {
  auto nl = netgen::generate("s444");  // 21 flip-flops
  Fabric f(nl, 4, PartitionPolicy::RoundRobin);  // 6,5,5,5
  const auto direct = FabricOut::direct(f);
  ASSERT_EQ(direct.chains.size(), 4u);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(direct.chains[c].taps,
              (std::vector<std::uint32_t>{
                  static_cast<std::uint32_t>(f.chain_length(c) - 1)}));
  }
  const auto hx = FabricOut::hxor(f, 3);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(hx.chains[c].taps.size(), 3u);
  }
  // Tap counts above the chain length clamp instead of throwing.
  const auto wide = FabricOut::hxor(f, 64);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(wide.chains[c].taps.size(), f.chain_length(c));
  }
}

/// \p bits with 1..3 random cells flipped: a second machine whose
/// difference sits at random depths, sometimes inside an observation
/// window and sometimes past it.
Bits with_flips(Rng& rng, Bits bits) {
  for (std::size_t k = 1 + rng.below(3); k-- > 0;)
    bits[rng.below(bits.size())] ^= 1;
  return bits;
}

/// The flat positions where two images differ.
FabricDiff diff_of(const Bits& a, const Bits& b) {
  FabricDiff d;
  for (std::uint32_t p = 0; p < a.size(); ++p)
    if (a[p] != b[p]) d.push_back(p);
  return d;
}

Bits flat(const FabricState& fs) {
  Bits b;
  fs.flat_bits(b);
  return b;
}

// N=1 degeneracy: every FabricState operation must be bit-identical to the
// single ChainState it wraps, and the fabric catch rule must see exactly
// the observation difference the chain emits.
TEST(FabricState, SingleChainMatchesChainState) {
  auto nl = netgen::generate("s444");
  Fabric f(nl);
  const std::size_t L = f.total_length();
  Rng rng(11);
  for (int trial = 0; trial < 16; ++trial) {
    FabricState fs(f);
    ChainState cs(L);
    const Bits init = random_bits(rng, L);
    fs.load(init);
    cs.load(init);
    const Bits init_other = with_flips(rng, init);
    FabricState fs_other(f);
    ChainState cs_other(init_other);
    fs_other.load(init_other);

    const std::size_t s = 1 + rng.below(L);
    const Bits in = random_bits(rng, s);
    const auto out = FabricOut::hxor(f, 3);
    const auto single = ScanOutModel::hxor(L, 3);
    const bool caught = observes_difference(diff_of(init_other, init), fs,
                                            f.plan_for(s), out);
    fs.shift(f.plan_for(s), in);
    EXPECT_EQ(caught, cs_other.shift(in, single) != cs.shift(in, single));
    EXPECT_EQ(fs.chain(0), cs);

    const Bits next = random_bits(rng, L);
    fs.capture(next, CaptureMode::VXor);
    cs.capture(next, CaptureMode::VXor);
    EXPECT_EQ(fs.chain(0), cs);

    Bits flat;
    fs.flat_bits(flat);
    EXPECT_EQ(flat, cs.bits());
  }
}

// Chains are independent machines: shifting/capturing the fabric must act
// on each chain exactly as the equivalent standalone ChainState, and a
// fabric difference is caught exactly when some chain's standalone
// observations differ.
TEST(FabricState, ChainsShiftIndependently) {
  auto nl = netgen::generate("s526");
  Rng rng(23);
  for (auto policy : {PartitionPolicy::RoundRobin, PartitionPolicy::SeededRandom}) {
    Fabric f(nl, 4, policy, 17);
    const Bits init = random_bits(rng, f.total_length());
    const Bits init_other = with_flips(rng, init);
    FabricState fs(f), fs_other(f);
    fs.load(init);
    fs_other.load(init_other);

    std::vector<ChainState> solo, solo_other;
    for (std::size_t c = 0; c < 4; ++c) {
      const auto slice = [&](const Bits& b) {
        return Bits(b.begin() + static_cast<std::ptrdiff_t>(f.chain_offset(c)),
                    b.begin() + static_cast<std::ptrdiff_t>(
                                    f.chain_offset(c) + f.chain_length(c)));
      };
      solo.emplace_back(slice(init));
      solo_other.emplace_back(slice(init_other));
    }

    const std::size_t s = 1 + rng.below(f.total_length());
    const ShiftPlan plan = f.plan_for(s);
    const Bits in = random_bits(rng, s);
    const auto out = FabricOut::hxor(f, 2);
    const bool caught =
        observes_difference(diff_of(init_other, init), fs, plan, out);
    fs.shift(plan, in);

    std::size_t off = 0;
    bool any_chain_differs = false;
    for (std::size_t c = 0; c < 4; ++c) {
      Bits chain_in(in.begin() + static_cast<std::ptrdiff_t>(off),
                    in.begin() + static_cast<std::ptrdiff_t>(off + plan[c]));
      any_chain_differs |= solo[c].shift(chain_in, out.chains[c]) !=
                           solo_other[c].shift(chain_in, out.chains[c]);
      EXPECT_EQ(fs.chain(c), solo[c]) << "chain " << c;
      off += plan[c];
    }
    EXPECT_EQ(caught, any_chain_differs);
  }
}

TEST(FabricState, ValueSemanticsAndEquality) {
  auto nl = netgen::example_circuit();
  Fabric f(nl, 2, PartitionPolicy::RoundRobin);
  FabricState a(f);
  a.load(Bits{1, 0, 1});
  FabricState b = a;
  EXPECT_EQ(a, b);
  b.shift(f.plan_for(1), Bits{0});
  EXPECT_NE(a, b);
}

TEST(FabricState, ShiftValidatesSizes) {
  auto nl = netgen::example_circuit();  // 3 flip-flops
  Fabric f(nl, 2, PartitionPolicy::RoundRobin);  // lengths 2, 1
  FabricState fs(f);
  fs.load(Bits{1, 0, 1});
  const FabricState before = fs;
  // Plan exceeding a chain's length.
  EXPECT_THROW(fs.shift(ShiftPlan{2, 2}, Bits{0, 0, 0, 0}),
               vcomp::ContractError);
  // Stream size not matching the plan total (a short stream must be
  // rejected before any bit of it is read).
  EXPECT_THROW(fs.shift(f.plan_for(2), Bits{0}), vcomp::ContractError);
  // Wrong plan arity.
  EXPECT_THROW(fs.shift(ShiftPlan{1}, Bits{0}), vcomp::ContractError);
  // Every check runs before any chain moves.
  EXPECT_EQ(fs, before);
}

TEST(FabricState, CatchRuleValidatesSizes) {
  auto nl = netgen::example_circuit();
  Fabric f(nl, 2, PartitionPolicy::RoundRobin);  // lengths 2, 1
  const FabricState a(f);
  const auto out = FabricOut::direct(f);
  const FabricDiff none;
  EXPECT_THROW(observes_difference(none, a, ShiftPlan{1}, out),
               vcomp::ContractError);
  EXPECT_THROW(observes_difference(none, a, ShiftPlan{1, 2}, out),
               vcomp::ContractError);
  const FabricState one_chain(Fabric{nl});
  EXPECT_THROW(observes_difference(none, one_chain, ShiftPlan{1, 1}, out),
               vcomp::ContractError);
  EXPECT_THROW(observes_difference(FabricDiff{3}, a, ShiftPlan{2, 1}, out),
               vcomp::ContractError);
  EXPECT_THROW(observes_difference(FabricDiff{2, 0}, a, ShiftPlan{2, 1}, out),
               vcomp::ContractError);
  EXPECT_THROW(observes_difference(FabricDiff{1, 1}, a, ShiftPlan{2, 1}, out),
               vcomp::ContractError);
  EXPECT_FALSE(observes_difference(none, a, ShiftPlan{2, 1}, out));
  FabricDiff d = {0, 2};
  EXPECT_THROW(slide_difference(d, a, ShiftPlan{1, 2}), vcomp::ContractError);
  EXPECT_THROW(slide_difference(d, one_chain, ShiftPlan{1, 1}),
               vcomp::ContractError);
}

// The difference rules against two full fabrics moved by
// FabricState::shift, over random multi-chain plans in which some chains
// stay put (plan[c] = 0) and some shift whole (plan[c] = L_c): the slid
// difference is the difference of the shifted fabrics, and the catch rule
// fires exactly when some chain's observation streams differ.
TEST(FabricDiff, SlideAndCatchMatchTwoFullFabrics) {
  auto nl = netgen::generate("s1423");
  Rng rng(31);
  std::size_t caught_runs = 0, missed_runs = 0;
  for (const std::size_t chains : {1, 3, 5}) {
    for (const std::size_t taps : {0, 2, 3}) {
      for (int trial = 0; trial < 40; ++trial) {
        const Fabric f(nl, chains, PartitionPolicy::SeededRandom,
                       static_cast<std::uint64_t>(trial));
        const FabricOut out =
            taps == 0 ? FabricOut::direct(f) : FabricOut::hxor(f, taps);
        const Bits good_bits = random_bits(rng, f.total_length());
        Bits bad_bits = with_flips(rng, good_bits);
        if (trial % 4 == 0) bad_bits = with_flips(rng, bad_bits);
        ShiftPlan plan(chains);
        for (std::size_t c = 0; c < chains; ++c) {
          const std::size_t len = f.chain_length(c);
          const std::uint64_t pick = rng.below(4);
          plan[c] = pick == 0 ? 0 : pick == 1 ? len : rng.below(len + 1);
        }
        const Bits in = random_bits(rng, Fabric::plan_total(plan));

        FabricState good(f), bad(f);
        good.load(good_bits);
        bad.load(bad_bits);
        FabricDiff diff = diff_of(bad_bits, good_bits);
        const bool caught = observes_difference(diff, good, plan, out);
        bool streams_differ = false;
        std::size_t off = 0;
        for (std::size_t c = 0; c < chains; ++c) {
          const Bits chain_in(in.begin() + static_cast<std::ptrdiff_t>(off),
                              in.begin() +
                                  static_cast<std::ptrdiff_t>(off + plan[c]));
          off += plan[c];
          ChainState g = good.chain(c), b = bad.chain(c);
          streams_differ |= g.shift(chain_in, out.chains[c]) !=
                            b.shift(chain_in, out.chains[c]);
        }
        EXPECT_EQ(caught, streams_differ)
            << chains << " chains, " << taps << " taps, trial " << trial;
        (caught ? caught_runs : missed_runs) += 1;

        good.shift(plan, in);
        bad.shift(plan, in);
        slide_difference(diff, good, plan);
        EXPECT_EQ(diff, diff_of(flat(bad), flat(good)));
      }
    }
  }
  EXPECT_GT(caught_runs, 0u);
  EXPECT_GT(missed_runs, 0u);
}

// Two differing cells whose horizontal-XOR contributions meet in the same
// observations cancel there: chain a..f with taps b, d, f and cells a and
// c differing reads the same values for five cycles and differs only when
// a reaches f.
TEST(FabricDiff, HxorContributionsCancel) {
  const FabricState layout({ChainState(6)});
  const FabricOut out{{ScanOutModel::hxor(6, 3)}};
  const FabricDiff a_and_c = {0, 2};
  for (std::size_t s = 0; s <= 6; ++s) {
    ChainState good(6), bad(Bits{1, 0, 1, 0, 0, 0});
    const Bits in(s, 0);
    const bool streams_differ =
        good.shift(in, out.chains[0]) != bad.shift(in, out.chains[0]);
    EXPECT_EQ(observes_difference(a_and_c, layout, ShiftPlan{s}, out),
              streams_differ)
        << s << " cycles";
    EXPECT_EQ(streams_differ, s == 6) << s << " cycles";
  }
  // Either cell alone is seen on the second cycle (c under tap d, and a
  // under tap b).
  EXPECT_TRUE(observes_difference(FabricDiff{0}, layout, ShiftPlan{2}, out));
  EXPECT_TRUE(observes_difference(FabricDiff{2}, layout, ShiftPlan{2}, out));
}

}  // namespace
}  // namespace vcomp::scan
