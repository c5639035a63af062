#include "vcomp/core/fault_sets.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "vcomp/util/assert.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::core {
namespace {

using scan::ChainState;
using scan::FabricDiff;
using scan::FabricState;

using Bits = std::vector<std::uint8_t>;

/// \p good with the cells of \p diff inverted.
Bits flipped(Bits good, const FabricDiff& diff) {
  for (std::uint32_t p : diff) good[p] ^= 1;
  return good;
}

std::vector<std::uint32_t> keys(const FaultSets& fs) {
  std::vector<std::uint32_t> out;
  for (const auto& [i, diff] : fs.hidden()) out.push_back(i);
  return out;
}

TEST(FaultSets, InitialStateAllUncaught) {
  FaultSets fs(5);
  EXPECT_EQ(fs.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(fs.state(i), FaultState::Uncaught);
  EXPECT_EQ(fs.num_caught(), 0u);
  EXPECT_EQ(fs.num_hidden(), 0u);
  EXPECT_EQ(fs.uncaught(), (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(FaultSets, HiddenCarriesFabricState) {
  // A hidden fault holds its difference, which rebuilds its fabric from
  // the fault-free one.
  FaultSets fs(3);
  fs.set_hidden(1, FabricDiff{0, 2});
  EXPECT_EQ(fs.state(1), FaultState::Hidden);
  EXPECT_EQ(fs.hidden().at(1), (FabricDiff{0, 2}));
  EXPECT_EQ(fs.num_hidden(), 1u);
  EXPECT_EQ(flipped(Bits(3, 0), fs.hidden().at(1)), (Bits{1, 0, 1}));
}

TEST(FaultSets, HiddenCarriesMultiChainFabric) {
  // Flat positions address chain 1 after chain 0's two cells.
  FaultSets fs(2);
  fs.set_hidden(0, FabricDiff{1, 4});
  FabricState faulty(std::vector<ChainState>{ChainState{Bits{1, 0}},
                                             ChainState{Bits{0, 1, 1}}});
  Bits bits;
  faulty.flat_bits(bits);
  faulty.load(flipped(bits, fs.hidden().at(0)));
  EXPECT_EQ(faulty.num_chains(), 2u);
  EXPECT_EQ(faulty.total_length(), 5u);
  EXPECT_EQ(faulty.chain(0).bits(), (Bits{1, 1}));
  EXPECT_EQ(faulty.chain(1).bits(), (Bits{0, 1, 0}));
}

TEST(FaultSets, CaughtIsAbsorbing) {
  FaultSets fs(3);
  fs.set_caught(0, 7);
  EXPECT_EQ(fs.state(0), FaultState::Caught);
  EXPECT_EQ(fs.catch_cycle(0), 7u);
  EXPECT_THROW(fs.set_caught(0, 8), vcomp::ContractError);
  EXPECT_THROW(fs.set_hidden(0, FabricDiff{1}), vcomp::ContractError);
  // An empty difference is no hidden fault.
  EXPECT_THROW(fs.set_hidden(1, FabricDiff{}), vcomp::ContractError);
}

TEST(FaultSets, HiddenToCaughtReleasesState) {
  FaultSets fs(2);
  fs.set_hidden(0, FabricDiff{3});
  fs.set_caught(0, 2);
  EXPECT_EQ(fs.num_hidden(), 0u);
  EXPECT_EQ(fs.num_caught(), 1u);
  EXPECT_TRUE(fs.hidden().empty());
}

TEST(FaultSets, HiddenFallsBackToUncaught) {
  // The paper's f_h -> f_u transition (faulty machine re-converged).
  FaultSets fs(2);
  fs.set_hidden(1, FabricDiff{0});
  EXPECT_EQ(fs.uncaught(), (std::vector<std::uint32_t>{0}));
  fs.set_uncaught(1);
  EXPECT_EQ(fs.state(1), FaultState::Uncaught);
  EXPECT_EQ(fs.num_hidden(), 0u);
  EXPECT_EQ(fs.uncaught(), (std::vector<std::uint32_t>{0, 1}));
  // Only hidden faults may fall back.
  EXPECT_THROW(fs.set_uncaught(0), vcomp::ContractError);
}

TEST(FaultSets, HiddenListSnapshots) {
  // Hidden faults are walked in fault-index order, whatever the order
  // they became hidden in.
  FaultSets fs(5);
  fs.set_hidden(3, FabricDiff{1});
  fs.set_hidden(1, FabricDiff{0});
  EXPECT_EQ(keys(fs), (std::vector<std::uint32_t>{1, 3}));
}

TEST(FaultSets, HiddenStateUpdatable) {
  FaultSets fs(1);
  fs.set_hidden(0, FabricDiff{0});
  fs.set_hidden(0, FabricDiff{0, 1});
  EXPECT_EQ(fs.hidden().at(0), (FabricDiff{0, 1}));
  fs.mutable_hidden_diff(0) = FabricDiff{1};
  EXPECT_EQ(fs.hidden().at(0), (FabricDiff{1}));
}

TEST(FaultSets, CatchCycleRequiresCaught) {
  FaultSets fs(1);
  EXPECT_THROW(fs.catch_cycle(0), vcomp::ContractError);
}

// Both ordered lists against a brute-force scan of every fault's state,
// under random transitions read at random moments, so faults leave and
// come back between reads, and untracked faults never appear.
TEST(FaultSets, OrderedListsMatchBruteForce) {
  constexpr std::size_t kFaults = 200;
  Rng rng(17);
  Bits tracked(kFaults);
  for (auto& t : tracked) t = rng.below(5) != 0;
  FaultSets fs(kFaults, tracked);
  for (int step = 0; step < 5000; ++step) {
    const std::size_t i = rng.below(kFaults);
    switch (fs.state(i)) {
      case FaultState::Uncaught:
        if (rng.below(40) == 0)
          fs.set_caught(i, step);
        else
          fs.set_hidden(i, FabricDiff{static_cast<std::uint32_t>(step)});
        break;
      case FaultState::Hidden:
        if (rng.below(40) == 0)
          fs.set_caught(i, step);
        else
          fs.set_uncaught(i);
        break;
      case FaultState::Caught:
        break;
    }
    if (rng.below(7) != 0) continue;
    std::vector<std::uint32_t> uncaught, hidden;
    for (std::uint32_t k = 0; k < kFaults; ++k) {
      if (tracked[k] && fs.state(k) == FaultState::Uncaught)
        uncaught.push_back(k);
      if (fs.state(k) == FaultState::Hidden) hidden.push_back(k);
    }
    ASSERT_EQ(fs.uncaught(), uncaught) << "step " << step;
    ASSERT_EQ(keys(fs), hidden) << "step " << step;
    ASSERT_EQ(fs.num_hidden(), hidden.size());
  }
  EXPECT_LT(fs.num_caught(), kFaults);
}

TEST(FaultSets, TrackMaskSizeChecked) {
  EXPECT_THROW(FaultSets(3, Bits{1, 1}), vcomp::ContractError);
}

}  // namespace
}  // namespace vcomp::core
