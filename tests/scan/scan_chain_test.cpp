#include "vcomp/scan/scan_chain.hpp"

#include <gtest/gtest.h>

#include "vcomp/util/assert.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::scan {
namespace {

using Bits = std::vector<std::uint8_t>;

// The paper's stitching example: state 111 (a,b,c), shift in "00"; the
// retained bit from cell a must land in cell c and the new bits fill a, b.
TEST(ChainState, PaperShiftSemantics) {
  ChainState st{Bits{1, 1, 1}};
  const auto out = st.shift(Bits{0, 0}, ScanOutModel::direct(3));
  EXPECT_EQ(st.bits(), (Bits{0, 0, 1}));  // second test vector 001
  // Observed: tail first — c then b.
  EXPECT_EQ(out, (Bits{1, 1}));
}

TEST(ChainState, FullShiftReplacesEverything) {
  ChainState st{Bits{1, 0, 1}};
  const auto out = st.shift(Bits{0, 1, 1}, ScanOutModel::direct(3));
  EXPECT_EQ(out, (Bits{1, 0, 1}));  // old contents, tail first
  EXPECT_EQ(st.bits(), (Bits{1, 1, 0}));  // in[2] at head, in[0] at tail
}

TEST(ChainState, ZeroShiftIsNoop) {
  ChainState st{Bits{1, 0, 1}};
  const auto out = st.shift(Bits{}, ScanOutModel::direct(3));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(st.bits(), (Bits{1, 0, 1}));
}

TEST(ChainState, ShiftComposition) {
  // Shifting k then m bits equals shifting k+m bits with concatenated input.
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    Bits init(11);
    for (auto& b : init) b = rng.bit();
    Bits in(7);
    for (auto& b : in) b = rng.bit();

    ChainState once{init};
    auto obs_once = once.shift(in, ScanOutModel::direct(11));

    ChainState twice{init};
    Bits first(in.begin(), in.begin() + 3);
    Bits second(in.begin() + 3, in.end());
    auto obs_a = twice.shift(first, ScanOutModel::direct(11));
    auto obs_b = twice.shift(second, ScanOutModel::direct(11));
    obs_a.insert(obs_a.end(), obs_b.begin(), obs_b.end());

    EXPECT_EQ(once.bits(), twice.bits());
    EXPECT_EQ(obs_once, obs_a);
  }
}

TEST(ChainState, CaptureNormalOverwrites) {
  ChainState st{Bits{1, 1, 0}};
  st.capture(Bits{0, 1, 1}, CaptureMode::Normal);
  EXPECT_EQ(st.bits(), (Bits{0, 1, 1}));
}

TEST(ChainState, CaptureVXorAccumulates) {
  // Figure 3: cell <- response XOR current content.
  ChainState st{Bits{1, 1, 0}};
  st.capture(Bits{0, 1, 1}, CaptureMode::VXor);
  EXPECT_EQ(st.bits(), (Bits{1, 0, 1}));
}

TEST(ScanOutModel, DirectIsTailTap) {
  const auto m = ScanOutModel::direct(8);
  EXPECT_EQ(m.taps, (std::vector<std::uint32_t>{7}));
}

TEST(ScanOutModel, HxorTapsMatchFigure4) {
  // Figure 4: six cells a..f, three taps at b, d, f (positions 1, 3, 5).
  const auto m = ScanOutModel::hxor(6, 3);
  EXPECT_EQ(m.taps, (std::vector<std::uint32_t>{1, 3, 5}));
}

TEST(ScanOutModel, HxorObservationMatchesFigure4) {
  // Cells a..f; scanning out two cycles yields (b^d^f) then (a^c^e).
  Rng rng(8);
  for (int trial = 0; trial < 32; ++trial) {
    Bits cells(6);
    for (auto& b : cells) b = rng.bit();
    ChainState st{cells};
    const auto out = st.shift(Bits{0, 0}, ScanOutModel::hxor(6, 3));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], cells[1] ^ cells[3] ^ cells[5]);
    EXPECT_EQ(out[1], cells[0] ^ cells[2] ^ cells[4]);
  }
}

TEST(ChainState, ShiftTooLongRejected) {
  ChainState st{Bits{1, 0}};
  EXPECT_THROW(st.shift(Bits{1, 0, 1}, ScanOutModel::direct(2)),
               vcomp::ContractError);
}

TEST(ChainState, ValueSemantics) {
  ChainState a{Bits{1, 0, 1}};
  ChainState b = a;
  b.shift(Bits{0}, ScanOutModel::direct(3));
  EXPECT_NE(a, b);
  EXPECT_EQ(a.bits(), (Bits{1, 0, 1}));
}

}  // namespace
}  // namespace vcomp::scan
