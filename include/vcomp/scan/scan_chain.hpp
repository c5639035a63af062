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

/// Observed bit \p j (shift cycle j, 0-based) under \p out, in closed form
/// from the pre-shift contents: the tap at t reads cell t−j while j ≤ t,
/// and scan-in bit j−1−t after that.  \p cell(p) gives pre-shift cell p,
/// \p in(k) scan-in bit k.  The scan layer's one observation rule:
/// ChainState::shift passes the scan-in stream, observes_difference none
/// (two machines fed the same scan-in bits cancel them).
template <class Cell, class In>
std::uint8_t observed_bit(const ScanOutModel& out, std::size_t j, Cell cell,
                          In in) {
  std::uint8_t o = 0;
  for (const std::uint32_t t : out.taps)
    o ^= j <= t ? cell(t - j) : in(j - 1 - t);
  return o;
}

/// The bit contents of one scan chain (fault-free machine or one faulty
/// machine).
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
  /// Returns the observed bits, one per cycle, under \p out (observed_bit
  /// over the pre-shift contents), then moves the cells.
  std::vector<std::uint8_t> shift(std::span<const std::uint8_t> in_bits,
                                  const ScanOutModel& out);

  /// Moves the cells only: the retained L−s cells slide s toward the tail
  /// in one move and the s scan-in bits fill the head, the last one
  /// shifted in at position 0.
  void shift(std::span<const std::uint8_t> in_bits);

  /// Capture \p next_state (one bit per chain position) per \p mode.
  void capture(std::span<const std::uint8_t> next_state, CaptureMode mode);

  friend bool operator==(const ChainState&, const ChainState&) = default;

 private:
  std::vector<std::uint8_t> bits_;
};

}  // namespace vcomp::scan
