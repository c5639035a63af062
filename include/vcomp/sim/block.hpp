#pragma once

/// \file block.hpp
/// Fixed 512-lane bit-slice value type for the wide simulation kernels.
///
/// A Block always carries kBlockLanes (= 512) pattern bits as eight 64-bit
/// words, regardless of which instruction set executes the sweep.  The
/// SIMD dispatch layer (simd_dispatch.hpp) only chooses *how* the eight
/// words are combined — one AVX-512 op, two AVX2 ops, or a scalar loop —
/// never how many lanes there are.  That keeps every result bit-identical
/// across VCOMP_SIMD settings: lane k of a Block means the same pattern on
/// every machine, and tests can diff scalar against AVX-512 byte for byte.
///
/// The scalar operators below are the portable fallback implementation and
/// the semantic reference for the vector sweeps.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <type_traits>

#include "vcomp/netlist/netlist.hpp"

namespace vcomp::sim {

/// Words per Block.  512 lanes = 8 words; an AVX-512 register holds a
/// whole Block, an AVX2 register half of one.
inline constexpr std::size_t kBlockWords = 8;

/// Parallel patterns per Block.
inline constexpr std::size_t kBlockLanes = kBlockWords * 64;

/// 512 parallel pattern bits.  Lane k lives in bit (k % 64) of word
/// (k / 64), matching how a Word-based engine would tile eight batches.
struct alignas(64) Block {
  std::uint64_t w[kBlockWords];

  static Block zero() {
    Block b;
    for (std::size_t i = 0; i < kBlockWords; ++i) b.w[i] = 0;
    return b;
  }
  static Block ones() {
    Block b;
    for (std::size_t i = 0; i < kBlockWords; ++i) b.w[i] = ~std::uint64_t{0};
    return b;
  }
  /// Broadcasts one bit to every lane.
  static Block fill(bool v) { return v ? ones() : zero(); }

  bool lane(std::size_t k) const { return (w[k / 64] >> (k % 64)) & 1; }
  void set_lane(std::size_t k, bool v) {
    const std::uint64_t m = std::uint64_t{1} << (k % 64);
    w[k / 64] = v ? (w[k / 64] | m) : (w[k / 64] & ~m);
  }

  bool any() const {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kBlockWords; ++i) acc |= w[i];
    return acc != 0;
  }

  friend Block operator&(const Block& a, const Block& b) {
    Block r;
    for (std::size_t i = 0; i < kBlockWords; ++i) r.w[i] = a.w[i] & b.w[i];
    return r;
  }
  friend Block operator|(const Block& a, const Block& b) {
    Block r;
    for (std::size_t i = 0; i < kBlockWords; ++i) r.w[i] = a.w[i] | b.w[i];
    return r;
  }
  friend Block operator^(const Block& a, const Block& b) {
    Block r;
    for (std::size_t i = 0; i < kBlockWords; ++i) r.w[i] = a.w[i] ^ b.w[i];
    return r;
  }
  friend Block operator~(const Block& a) {
    Block r;
    for (std::size_t i = 0; i < kBlockWords; ++i) r.w[i] = ~a.w[i];
    return r;
  }
  Block& operator&=(const Block& o) {
    for (std::size_t i = 0; i < kBlockWords; ++i) w[i] &= o.w[i];
    return *this;
  }
  Block& operator|=(const Block& o) {
    for (std::size_t i = 0; i < kBlockWords; ++i) w[i] |= o.w[i];
    return *this;
  }
  Block& operator^=(const Block& o) {
    for (std::size_t i = 0; i < kBlockWords; ++i) w[i] ^= o.w[i];
    return *this;
  }

  friend bool operator==(const Block& a, const Block& b) {
    for (std::size_t i = 0; i < kBlockWords; ++i)
      if (a.w[i] != b.w[i]) return false;
    return true;
  }
};

/// Forced stuck-at overlay: lanes in \p m1 read 1, lanes in \p m0 read 0,
/// everything else keeps \p v.
inline Block block_apply_force(const Block& v, const Block& m0,
                               const Block& m1) {
  return (v & ~(m0 | m1)) | m1;
}

namespace detail {

/// One row per GateType for bitslice_eval_fused; each field is all zeros
/// or all ones.  AND-family gates fold AND over their pins XORed with
/// \c in_inv (De Morgan: OR is the inverted AND of the inverted pins, and
/// Buf and Not are the AND of one pin), XOR-family gates take the XOR fold
/// (\c xor_fold), and \c out_inv inverts the result.
struct GateFold {
  std::uint64_t in_inv, xor_fold, out_inv;
};
inline constexpr std::uint64_t kAllLanes = ~std::uint64_t{0};
inline constexpr GateFold kGateFolds[] = {
    {0, 0, 0},                  // Input (never evaluated)
    {0, 0, 0},                  // Dff (never evaluated)
    {0, 0, 0},                  // Buf
    {0, 0, kAllLanes},          // Not
    {0, 0, 0},                  // And
    {0, 0, kAllLanes},          // Nand
    {kAllLanes, 0, kAllLanes},  // Or
    {kAllLanes, 0, 0},          // Nor
    {0, kAllLanes, 0},          // Xor
    {0, kAllLanes, kAllLanes},  // Xnor
};
static_assert(std::size(kGateFolds) ==
                  static_cast<std::size_t>(netlist::GateType::Xnor) + 1,
              "one row per GateType, in declaration order");

/// V with every 64-bit word equal to \p m.  V is std::uint64_t, Block, or
/// a GNU vector of 64-bit lanes (whose scalar operand broadcasts).
template <typename V>
inline V splat(std::uint64_t m) {
  if constexpr (std::is_same_v<V, Block>) {
    Block b;
    for (std::size_t i = 0; i < kBlockWords; ++i) b.w[i] = m;
    return b;
  } else {
    return V{} | m;
  }
}

}  // namespace detail

/// Width-generic fused gate kernel: evaluates one combinational gate over
/// fanin values of any bitwise value type V (std::uint64_t for the 64-lane
/// engines, Block for the scalar 512-lane path, a native vector type
/// inside the per-ISA sweep translation units).  \p get(k) returns the
/// k-th fanin pin's value, \p n is the pin count.  word_eval_fused is the
/// V = Word instantiation of this kernel.
///
/// The kernel does not branch on the gate type: it folds AND and XOR at
/// once and selects by the type's GateFold row, since a levelized sweep
/// meets the types in no predictable order and a type switch mispredicts
/// on most gates.  Sources (Input, Dff) are never evaluated: the Word path
/// raises the contract error in word_eval, and the sweeps' schedules
/// exclude them.
template <typename V, typename Get>
inline V bitslice_eval_fused(netlist::GateType type, std::size_t n,
                             Get&& get) {
  const detail::GateFold& f =
      detail::kGateFolds[static_cast<std::size_t>(type)];
  const V in_inv = detail::splat<V>(f.in_inv);
  const V first = get(0);
  V a = first ^ in_inv;
  V e = first;
  for (std::size_t i = 1; i < n; ++i) {
    const V y = get(i);
    a &= y ^ in_inv;
    e ^= y;
  }
  const V xor_fold = detail::splat<V>(f.xor_fold);
  return ((a & ~xor_fold) | (e & xor_fold)) ^ detail::splat<V>(f.out_inv);
}

}  // namespace vcomp::sim
