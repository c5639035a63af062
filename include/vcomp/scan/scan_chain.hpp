#pragma once

/// \file scan_chain.hpp
/// Bit-level scan chain shift/capture semantics.
///
/// Conventions (reverse-engineered from the paper's worked example and
/// asserted by the test suite):
///  * chain position 0 is the scan-in head, position L-1 the scan-out tail;
///  * shifting k bits emits the k tail cells (tail first), slides the
///    retained L-k cells toward the tail, and loads the k new bits at the
///    head (the last bit shifted in ends up at position 0);
///  * capture overwrites cell i with the next-state value of its flip-flop
///    (CaptureMode::Normal) or XORs it on top of the current content
///    (CaptureMode::VXor — the paper's vertical-XOR observability aid).

#include <cstdint>
#include <span>
#include <vector>

namespace vcomp::scan {

/// How capture writes into the chain.
enum class CaptureMode : std::uint8_t {
  Normal,  ///< cell ← next-state
  VXor,    ///< cell ← next-state ⊕ cell   (Figure 3)
};

/// Scan-out observation structure: the ATE sees, per shift cycle, the XOR
/// of the cells at `taps`.  Direct observation is the single tap {L-1};
/// the paper's horizontal XOR (Figure 4) uses several evenly spaced taps.
struct ScanOutModel {
  std::vector<std::uint32_t> taps;

  /// Plain scan-out: observe the tail cell.
  static ScanOutModel direct(std::size_t length);

  /// Horizontal XOR with \p num_taps taps at stride length/num_taps,
  /// anchored at the tail (Figure 4's b⊕d⊕f, then a⊕c⊕e pattern).
  static ScanOutModel hxor(std::size_t length, std::size_t num_taps);
};

/// The bit contents of one scan chain (fault-free machine or one faulty
/// machine); value semantics so hidden-fault tracking can copy it freely.
class ChainState {
 public:
  explicit ChainState(std::size_t length) : bits_(length, 0) {}
  explicit ChainState(std::vector<std::uint8_t> bits)
      : bits_(std::move(bits)) {}

  std::size_t length() const { return bits_.size(); }
  const std::vector<std::uint8_t>& bits() const { return bits_; }
  std::uint8_t at(std::size_t pos) const { return bits_[pos]; }

  /// Parallel load (used to model the initial full shift-in).
  void load(std::span<const std::uint8_t> bits);

  /// Shifts in_bits.size() cycles; in_bits[j] enters at the head on cycle j.
  /// Returns the observed bits, one per cycle, under \p out.
  std::vector<std::uint8_t> shift(std::span<const std::uint8_t> in_bits,
                                  const ScanOutModel& out);

  /// Allocation-free variant: writes the observed bits into \p observed
  /// (cleared first, capacity reused).  The tracker shifts every hidden
  /// fault's private chain each stitched cycle, so this is a hot path.
  void shift(std::span<const std::uint8_t> in_bits, const ScanOutModel& out,
             std::vector<std::uint8_t>& observed);

  /// One shift cycle: returns the observed tap XOR, slides every cell one
  /// step toward the tail, inserts \p in_bit at the head.  FabricState
  /// interleaves the chains of a multi-chain fabric through this primitive
  /// so all shift semantics live in one place.
  std::uint8_t shift_one(std::uint8_t in_bit, const ScanOutModel& out);

  /// Capture \p next_state (one bit per chain position) per \p mode.
  void capture(std::span<const std::uint8_t> next_state, CaptureMode mode);

  friend bool operator==(const ChainState&, const ChainState&) = default;

 private:
  std::vector<std::uint8_t> bits_;
};

}  // namespace vcomp::scan
