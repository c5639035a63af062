// XOR observability paths: horizontal-XOR scan-out visibility windows and
// the vertical-XOR capture interactions that scan_chain_test and
// observe_test leave uncovered.  The anchor is a brute-force oracle: a
// difference vector is observable within s cycles iff two chains that
// differ exactly at those positions produce different observation streams
// when shifted with identical input bits.

#include "vcomp/scan/fabric.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "vcomp/scan/scan_chain.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::scan {
namespace {

using Bits = std::vector<std::uint8_t>;

/// The catch rule on one chain: a machine holding \p diff against an
/// all-zero one, observed for \p s shift cycles under \p out.
bool diff_observable(const Bits& diff, std::size_t s, const ScanOutModel& out) {
  FabricDiff cells;
  for (std::uint32_t p = 0; p < diff.size(); ++p)
    if (diff[p]) cells.push_back(p);
  return observes_difference(cells, FabricState({ChainState(diff.size())}),
                             ShiftPlan{s}, FabricOut{{out}});
}

/// One shift cycle of a bare chain, bit by bit: returns the XOR of the
/// cells under the taps, then slides every cell one step toward the tail
/// and loads \p in at the head.  Shares nothing with ChainState, whose
/// closed form this checks.
std::uint8_t step(Bits& chain, std::uint8_t in, const ScanOutModel& out) {
  std::uint8_t o = 0;
  for (std::uint32_t t : out.taps) o ^= chain[t];
  for (std::size_t p = chain.size(); p-- > 1;) chain[p] = chain[p - 1];
  chain[0] = in;
  return o;
}

/// The definition of observability, computed the slow way: two chains
/// that differ exactly at \p diff take the same scan-in bits for \p s
/// cycles, and some cycle's observations differ.
bool brute_force_observable(const Bits& diff, std::size_t s,
                            const ScanOutModel& out) {
  Bits good(diff.size(), 0);
  Bits bad = diff;
  Rng rng(diff.size() * 131 + s);
  for (std::size_t j = 0; j < s; ++j) {
    const std::uint8_t in = rng.bit();
    if (step(good, in, out) != step(bad, in, out)) return true;
  }
  return false;
}

TEST(ObserveXor, DiffObservableMatchesBruteForceExhaustively) {
  // Every diff pattern on a 6-cell chain, every shift count, under direct
  // scan-out and both Figure-4 style HXOR configurations.
  const std::size_t L = 6;
  const ScanOutModel models[] = {ScanOutModel::direct(L),
                                 ScanOutModel::hxor(L, 2),
                                 ScanOutModel::hxor(L, 3)};
  for (const auto& m : models) {
    for (std::uint32_t mask = 0; mask < (1u << L); ++mask) {
      Bits diff(L);
      for (std::size_t i = 0; i < L; ++i) diff[i] = (mask >> i) & 1;
      for (std::size_t s = 0; s <= L; ++s) {
        SCOPED_TRACE(testing::Message() << "taps=" << m.taps.size()
                                        << " mask=" << mask << " s=" << s);
        EXPECT_EQ(diff_observable(diff, s, m),
                  brute_force_observable(diff, s, m));
      }
    }
  }
}

TEST(ObserveXor, DiffObservableMatchesBruteForceRandomized) {
  // Larger chains with random diffs and tap counts.
  Rng rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t L = 8 + rng.below(24);
    const std::size_t taps = 2 + rng.below(4);
    const auto m = rng.bit() ? ScanOutModel::hxor(L, taps)
                             : ScanOutModel::direct(L);
    Bits diff(L);
    for (auto& b : diff) b = rng.below(4) == 0;  // sparse, like real faults
    const std::size_t s = rng.below(L + 1);
    SCOPED_TRACE(testing::Message() << "L=" << L << " taps=" << taps
                                    << " s=" << s);
    EXPECT_EQ(diff_observable(diff, s, m), brute_force_observable(diff, s, m));
  }
}

TEST(ObserveXor, HxorObservationIsTapParityEachCycle) {
  // Each observed bit must be the XOR of the cells under the taps at that
  // cycle, and both shift() overloads must move the cells alike.
  const std::size_t L = 6;
  const auto m = ScanOutModel::hxor(L, 3);  // taps {1, 3, 5}
  ChainState st(Bits{1, 0, 1, 1, 0, 0});
  // Cycle 1 parity: c1 ^ c3 ^ c5 = 0 ^ 1 ^ 0 = 1.  After the slide
  // (head in 0): {0,1,0,1,1,0} -> parity 1 ^ 1 ^ 0 = 0.
  ChainState copy = st;
  const Bits in{0, 0};
  const Bits observed = st.shift(in, m);
  EXPECT_EQ(observed, (Bits{1, 0}));
  // Per cycle, read the tap parity off the contents a one-bit slide
  // leaves, then take that slide.
  ChainState per_cycle(Bits{1, 0, 1, 1, 0, 0});
  for (std::size_t j = 0; j < in.size(); ++j) {
    const auto& c = per_cycle.bits();
    EXPECT_EQ(observed[j], c[1] ^ c[3] ^ c[5]) << "cycle " << j;
    per_cycle.shift(Bits{in[j]});
  }
  copy.shift(in);
  EXPECT_EQ(st, copy);
  EXPECT_EQ(st, per_cycle);
}

TEST(ObserveXor, HxorMidChainDiffSlidesUnderATap) {
  // A diff between taps is invisible until the slide moves it under one:
  // taps {1,3,5}, diff at position 0 reaches tap 1 on the second cycle.
  const auto m = ScanOutModel::hxor(6, 3);
  const Bits diff{1, 0, 0, 0, 0, 0};
  EXPECT_FALSE(diff_observable(diff, 1, m));
  EXPECT_TRUE(diff_observable(diff, 2, m));
}

TEST(ObserveXor, HxorTripleDiffKeepsOddParityVisible) {
  // Three aligned diffs under the three taps: odd parity, visible at
  // once — cancellation needs an even number of tapped differences.
  const auto m = ScanOutModel::hxor(6, 3);
  EXPECT_TRUE(diff_observable(Bits{0, 1, 0, 1, 0, 1}, 1, m));
}

TEST(ObserveXor, VXorCaptureCancelsMatchingChainDiff) {
  // Vertical XOR folds the captured next-state on top of the chain
  // content: a chain diff and an equal next-state diff annihilate, so
  // the fault becomes unobservable afterwards — the VXor aliasing case.
  const Bits next_good{1, 0, 1};
  const Bits next_bad{1, 1, 1};  // next-state differs at position 1
  ChainState good(Bits{0, 0, 0});
  ChainState bad(Bits{0, 1, 0});  // chain already differs at position 1
  good.capture(next_good, CaptureMode::VXor);
  bad.capture(next_bad, CaptureMode::VXor);
  EXPECT_EQ(good, bad);  // 1⊕0 == 1⊕1⊕... both cells end up equal

  // Under Normal capture the same pair stays distinguishable.
  ChainState good_n(Bits{0, 0, 0});
  ChainState bad_n(Bits{0, 1, 0});
  good_n.capture(next_good, CaptureMode::Normal);
  bad_n.capture(next_bad, CaptureMode::Normal);
  EXPECT_NE(good_n, bad_n);
}

TEST(ObserveXor, VXorCapturePreservesChainDiffWhenNextStatesAgree) {
  // The converse path: identical next-states XORed on top of a chain
  // diff keep the diff alive (Normal capture would erase it).
  const Bits next{1, 1, 0};
  ChainState good(Bits{0, 0, 0});
  ChainState bad(Bits{0, 1, 0});
  good.capture(next, CaptureMode::VXor);
  bad.capture(next, CaptureMode::VXor);
  EXPECT_NE(good, bad);
  EXPECT_TRUE(diff_observable(Bits{0, 1, 0}, 3, ScanOutModel::direct(3)));

  ChainState good_n(Bits{0, 0, 0});
  ChainState bad_n(Bits{0, 1, 0});
  good_n.capture(next, CaptureMode::Normal);
  bad_n.capture(next, CaptureMode::Normal);
  EXPECT_EQ(good_n, bad_n);  // overwrite destroys the evidence
}

TEST(ObserveXor, VXorDoubleCaptureRoundTrips) {
  // x ⊕ n ⊕ n = x: capturing the same next-state twice under VXor is an
  // involution, independent of the chain content.
  Rng rng(11);
  Bits content(16), next(16);
  for (auto& b : content) b = rng.bit();
  for (auto& b : next) b = rng.bit();
  ChainState st(content);
  st.capture(next, CaptureMode::VXor);
  st.capture(next, CaptureMode::VXor);
  EXPECT_EQ(st.bits(), content);
}

}  // namespace
}  // namespace vcomp::scan
