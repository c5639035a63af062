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
  VCOMP_REQUIRE(in_bits.size() <= bits_.size(),
                "cannot shift more bits than the chain holds");
  const auto cell = [this](std::size_t p) { return bits_[p]; };
  const auto in = [in_bits](std::size_t k) -> std::uint8_t {
    return in_bits[k] & 1;
  };
  std::vector<std::uint8_t> observed(in_bits.size());
  for (std::size_t j = 0; j < observed.size(); ++j)
    observed[j] = observed_bit(out, j, cell, in);
  shift(in_bits);
  return observed;
}

void ChainState::shift(std::span<const std::uint8_t> in_bits) {
  VCOMP_REQUIRE(in_bits.size() <= bits_.size(),
                "cannot shift more bits than the chain holds");
  const auto s = static_cast<std::ptrdiff_t>(in_bits.size());
  std::copy_backward(bits_.begin(), bits_.end() - s, bits_.end());
  std::transform(in_bits.rbegin(), in_bits.rend(), bits_.begin(),
                 [](std::uint8_t b) -> std::uint8_t { return b & 1; });
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
