#include "vcomp/scan/scan_chain.hpp"

#include <algorithm>

#include "vcomp/util/assert.hpp"

namespace vcomp::scan {

ScanOutModel ScanOutModel::direct(std::size_t length) {
  VCOMP_REQUIRE(length > 0, "empty scan chain");
  return ScanOutModel{{static_cast<std::uint32_t>(length - 1)}};
}

ScanOutModel ScanOutModel::hxor(std::size_t length, std::size_t num_taps) {
  VCOMP_REQUIRE(length > 0, "empty scan chain");
  VCOMP_REQUIRE(num_taps >= 1 && num_taps <= length,
                "tap count must be in [1, length]");
  const std::size_t stride = length / num_taps;
  VCOMP_REQUIRE(stride >= 1, "too many taps for chain length");
  ScanOutModel m;
  // Anchored at the tail, walking toward the head.
  for (std::size_t j = 0; j < num_taps; ++j) {
    const std::size_t pos = length - 1 - j * stride;
    m.taps.push_back(static_cast<std::uint32_t>(pos));
  }
  std::sort(m.taps.begin(), m.taps.end());
  return m;
}

void ChainState::load(std::span<const std::uint8_t> bits) {
  VCOMP_REQUIRE(bits.size() == bits_.size(), "load size mismatch");
  std::copy(bits.begin(), bits.end(), bits_.begin());
}

std::vector<std::uint8_t> ChainState::shift(
    std::span<const std::uint8_t> in_bits, const ScanOutModel& out) {
  std::vector<std::uint8_t> observed;
  shift(in_bits, out, observed);
  return observed;
}

void ChainState::shift(std::span<const std::uint8_t> in_bits,
                       const ScanOutModel& out,
                       std::vector<std::uint8_t>& observed) {
  VCOMP_REQUIRE(in_bits.size() <= bits_.size(),
                "cannot shift more bits than the chain holds");
  observed.clear();
  observed.reserve(in_bits.size());
  for (std::size_t j = 0; j < in_bits.size(); ++j) {
    observed.push_back(shift_one(in_bits[j], out));
  }
}

std::uint8_t ChainState::shift_one(std::uint8_t in_bit,
                                   const ScanOutModel& out) {
  std::uint8_t obs = 0;
  for (std::uint32_t t : out.taps) obs ^= bits_[t];
  // One shift cycle: everything moves one step toward the tail.
  for (std::size_t i = bits_.size(); i-- > 1;) bits_[i] = bits_[i - 1];
  bits_[0] = in_bit & 1;
  return obs;
}

void ChainState::capture(std::span<const std::uint8_t> next_state,
                         CaptureMode mode) {
  VCOMP_REQUIRE(next_state.size() == bits_.size(), "capture size mismatch");
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    const std::uint8_t v = next_state[i] & 1;
    bits_[i] = (mode == CaptureMode::VXor) ? (bits_[i] ^ v) : v;
  }
}

}  // namespace vcomp::scan
