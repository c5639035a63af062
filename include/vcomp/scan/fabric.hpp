#pragma once

/// \file fabric.hpp
/// N-chain scan fabric: an ordered set of scan chains over one netlist.
///
/// Industrial scan designs partition the flip-flops into many parallel
/// chains that shift simultaneously.  A Fabric owns that partition — a
/// deterministic DFF → (chain, position) function — and a FabricState owns
/// the bit contents of every chain of one machine (fault-free or faulty).
///
/// Conventions:
///  * chains are indexed 0..N-1; within a chain, position 0 is the scan-in
///    head and L_c-1 the scan-out tail (the ChainState convention);
///  * the *flat* view lays the chains out chain-major: flat position
///    chain_offset(c) + p addresses position p of chain c.  Every per-cell
///    buffer of the tracker (capture bits, pre-capture snapshots, capture
///    flips) is indexed by flat position;
///  * a ShiftPlan holds one shift count per chain.  plan_for(s) apportions
///    a master shift size s over the chains by the largest-remainder
///    method, so sum(plan) == s and each chain's share is proportional to
///    its length.  Chains shift in parallel on silicon, so a plan costs
///    max(plan) shift cycles while moving sum(plan) tester bits;
///  * one chain is the degenerate fabric: with num_chains == 1 every
///    policy yields the identity order, plan_for(s) == {s}, and all
///    flat views coincide with the single-chain ones.  The standing
///    determinism contract extends to this degeneracy — N=1 results are
///    byte-identical to the former single-chain code paths.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "vcomp/netlist/netlist.hpp"
#include "vcomp/scan/scan_chain.hpp"

namespace vcomp::scan {

/// Deterministic DFF → chain assignment policies.
enum class PartitionPolicy : std::uint8_t {
  RoundRobin,    ///< dff i goes to chain i mod N (position i / N)
  Contiguous,    ///< balanced consecutive slices of the dff index order
  SeededRandom,  ///< seeded Fisher–Yates permutation, then contiguous slices
};

const char* to_string(PartitionPolicy p);
/// Parses "round-robin" / "contiguous" / "random"; returns false on
/// unknown names (\p out untouched).
bool partition_from_string(const std::string& s, PartitionPolicy& out);

/// Per-chain shift counts for one stitched cycle (size == num_chains).
using ShiftPlan = std::vector<std::size_t>;

/// The chain partition: structure only, no bit contents.
class Fabric {
 public:
  /// Partitions \p nl's flip-flops into \p num_chains chains.  Requires
  /// 1 <= num_chains <= num_dffs (every chain non-empty).  \p seed only
  /// matters for PartitionPolicy::SeededRandom.
  explicit Fabric(const netlist::Netlist& nl, std::size_t num_chains = 1,
                  PartitionPolicy policy = PartitionPolicy::RoundRobin,
                  std::uint64_t seed = 0);

  /// Explicit per-chain orders (chain-reorder tests, custom floorplans);
  /// the concatenation must be a permutation of [0, num_dffs).
  Fabric(const netlist::Netlist& nl,
         std::vector<std::vector<std::uint32_t>> orders);

  std::size_t num_chains() const { return orders_.size(); }
  /// Total flip-flops across all chains (== netlist().num_dffs()).
  std::size_t total_length() const { return offsets_.back(); }
  std::size_t chain_length(std::size_t c) const { return orders_[c].size(); }
  /// Flat chain-major offset of chain \p c.
  std::size_t chain_offset(std::size_t c) const { return offsets_[c]; }
  std::size_t max_chain_length() const { return max_len_; }

  std::uint32_t dff_at(std::size_t c, std::size_t pos) const {
    return orders_[c][pos];
  }
  std::uint32_t dff_at_flat(std::size_t flat_pos) const {
    return flat_order_[flat_pos];
  }
  std::size_t chain_of(std::uint32_t dff_index) const {
    return chain_of_[dff_index];
  }
  /// Position within its own chain.
  std::size_t pos_of(std::uint32_t dff_index) const {
    return pos_of_[dff_index];
  }
  /// Flat chain-major position: chain_offset(chain_of(d)) + pos_of(d).
  std::size_t flat_of(std::uint32_t dff_index) const {
    return offsets_[chain_of_[dff_index]] + pos_of_[dff_index];
  }

  const netlist::Netlist& netlist() const { return *nl_; }
  PartitionPolicy policy() const { return policy_; }
  std::uint64_t seed() const { return seed_; }

  /// Largest-remainder apportionment of a master shift size \p s
  /// (0 <= s <= total_length): plan[c] = floor(s·L_c / L) plus one of the
  /// s - sum(floor) leftover bits, awarded by descending fractional part
  /// (ties to the lower chain index).  Guarantees sum(plan) == s and
  /// plan[c] <= L_c; with one chain this is {s}.
  ShiftPlan plan_for(std::size_t s) const;

  /// Shift cycles a plan takes: chains shift in parallel, so max(plan).
  std::size_t plan_cycles(const ShiftPlan& plan) const;
  /// Tester bits a plan moves per direction: sum(plan).
  static std::size_t plan_total(const ShiftPlan& plan);

  /// Same partition (same per-chain orders over the same-size netlist).
  friend bool operator==(const Fabric& a, const Fabric& b) {
    return a.orders_ == b.orders_;
  }

 private:
  void finish();  // builds the derived maps from orders_

  const netlist::Netlist* nl_;
  PartitionPolicy policy_ = PartitionPolicy::RoundRobin;
  std::uint64_t seed_ = 0;
  std::vector<std::vector<std::uint32_t>> orders_;  // chain -> pos -> dff
  std::vector<std::size_t> offsets_;                // chain -> flat offset
  std::vector<std::uint32_t> flat_order_;           // flat pos -> dff
  std::vector<std::size_t> chain_of_;               // dff -> chain
  std::vector<std::size_t> pos_of_;                 // dff -> in-chain pos
  std::size_t max_len_ = 0;
};

class FabricState;

/// Per-chain scan-out observation models (one ScanOutModel per chain; the
/// ATE reads every chain's tap XOR each shift cycle).
struct FabricOut {
  std::vector<ScanOutModel> chains;

  /// Plain scan-out on every chain (tail tap).
  static FabricOut direct(const Fabric& fabric);
  /// Horizontal XOR with min(num_taps, L_c) taps per chain.
  static FabricOut hxor(const Fabric& fabric, std::size_t num_taps);
};

/// The bit contents of every chain of one machine; value semantics so
/// hidden-fault tracking can copy whole fabrics freely.
class FabricState {
 public:
  explicit FabricState(const Fabric& fabric);
  /// Explicit per-chain contents (tests, reference machines).
  explicit FabricState(std::vector<ChainState> chains);

  std::size_t num_chains() const { return chains_.size(); }
  std::size_t total_length() const { return offsets_.back(); }
  const ChainState& chain(std::size_t c) const { return chains_[c]; }

  /// Parallel load of every chain; \p bits are flat chain-major.
  void load(std::span<const std::uint8_t> bits);

  /// Copies the current contents out, flat chain-major (cleared first,
  /// capacity reused).
  void flat_bits(std::vector<std::uint8_t>& out) const;

  /// Shifts plan[c] cycles into chain c, moving cells only
  /// (observes_difference decides what the ATE reads).  \p in_bits holds
  /// the scan-in streams flat chain-major (plan[0] bits for chain 0
  /// first; within a chain, bit j enters at the head on that chain's
  /// cycle j).  The plan's arity, each chain's length and sum(plan) ==
  /// in_bits.size() are checked before any bit is read.
  void shift(const ShiftPlan& plan, std::span<const std::uint8_t> in_bits);

  /// Captures \p next_state (flat chain-major, one bit per cell) per
  /// \p mode into every chain.
  void capture(std::span<const std::uint8_t> next_state, CaptureMode mode);

  friend bool operator==(const FabricState&, const FabricState&) = default;

 private:
  std::vector<ChainState> chains_;
  std::vector<std::size_t> offsets_;
};

/// The catch rule: true if the ATE reads a difference between \p faulty
/// and \p good when every chain c shifts out plan[c] observations under
/// out.chains[c].  Both machines take the same scan-in bits, which cancel,
/// so only the pre-shift cells matter (observed_bit over faulty ⊕ good):
/// pass both fabrics as they stand before the shift.  A difference on any
/// chain suffices.
bool observes_difference(const FabricState& faulty, const FabricState& good,
                         const ShiftPlan& plan, const FabricOut& out);

}  // namespace vcomp::scan
