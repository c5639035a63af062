#include "vcomp/scan/observe.hpp"

#include <gtest/gtest.h>

#include "vcomp/scan/fabric.hpp"
#include "vcomp/util/assert.hpp"

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

TEST(DiffObservable, DirectTailWindow) {
  const auto m = ScanOutModel::direct(5);
  EXPECT_TRUE(diff_observable(Bits{0, 0, 0, 0, 1}, 1, m));
  EXPECT_TRUE(diff_observable(Bits{0, 0, 0, 1, 0}, 2, m));
  EXPECT_FALSE(diff_observable(Bits{0, 0, 0, 1, 0}, 1, m));
  EXPECT_FALSE(diff_observable(Bits{1, 0, 0, 0, 0}, 4, m));
  EXPECT_TRUE(diff_observable(Bits{1, 0, 0, 0, 0}, 5, m));
}

TEST(DiffObservable, NoDiffNeverObservable) {
  const auto m = ScanOutModel::direct(4);
  EXPECT_FALSE(diff_observable(Bits{0, 0, 0, 0}, 4, m));
}

TEST(DiffObservable, HxorSeesDeepDiffs) {
  // Six cells, taps at 1,3,5: a diff at position 1 is visible on the very
  // first observation even though it is far from the tail.
  const auto m = ScanOutModel::hxor(6, 3);
  EXPECT_TRUE(diff_observable(Bits{0, 1, 0, 0, 0, 0}, 1, m));
}

TEST(DiffObservable, HxorCancellation) {
  // A diff pair aligned with the tap stride cancels on every cycle where
  // both bits sit under taps, and stays invisible until the leading bit
  // exits the chain — the paper's HXOR aliasing caveat.
  const auto m = ScanOutModel::hxor(6, 3);
  const Bits pair{0, 1, 0, 1, 0, 0};
  EXPECT_FALSE(diff_observable(pair, 1, m));
  EXPECT_FALSE(diff_observable(pair, 4, m));
  EXPECT_TRUE(diff_observable(pair, 5, m));
}

TEST(InfoRatio, ReproducesPaperShiftColumn) {
  // Table 2 "shift" column: s/L for the 3/8, 5/8, 7/8 info points, using
  // real ISCAS89 I/O counts.
  struct Row {
    std::size_t pi, po, L;
    std::size_t s38, s58, s78;  // 0 = '/', unattainable
  };
  const Row rows[] = {
      {3, 6, 21, 5, 11, 18},     // s444
      {3, 6, 21, 5, 11, 18},     // s526
      {35, 24, 19, 0, 1, 13},    // s641
      {16, 23, 29, 0, 11, 23},   // s953
      {14, 14, 18, 0, 6, 14},    // s1196
      {17, 5, 74, 21, 42, 63},   // s1423
  };
  for (const auto& r : rows) {
    EXPECT_EQ(shift_for_info_ratio(r.pi, r.po, r.L, 3.0 / 8), r.s38);
    EXPECT_EQ(shift_for_info_ratio(r.pi, r.po, r.L, 5.0 / 8), r.s58);
    EXPECT_EQ(shift_for_info_ratio(r.pi, r.po, r.L, 7.0 / 8), r.s78);
  }
}

TEST(InfoRatio, FullRatioIsFullShift) {
  EXPECT_EQ(shift_for_info_ratio(10, 10, 50, 1.0), 50u);
}

TEST(InfoRatio, RejectsBadRatio) {
  EXPECT_THROW(shift_for_info_ratio(1, 1, 10, 0.0), vcomp::ContractError);
  EXPECT_THROW(shift_for_info_ratio(1, 1, 10, 1.5), vcomp::ContractError);
}

}  // namespace
}  // namespace vcomp::scan
