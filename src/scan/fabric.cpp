#include "vcomp/scan/fabric.hpp"

#include <algorithm>
#include <numeric>

#include "vcomp/util/assert.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::scan {

const char* to_string(PartitionPolicy p) {
  switch (p) {
    case PartitionPolicy::RoundRobin:
      return "round-robin";
    case PartitionPolicy::Contiguous:
      return "contiguous";
    case PartitionPolicy::SeededRandom:
      return "random";
  }
  return "round-robin";
}

bool partition_from_string(const std::string& s, PartitionPolicy& out) {
  if (s == "round-robin" || s == "roundrobin" || s == "rr") {
    out = PartitionPolicy::RoundRobin;
    return true;
  }
  if (s == "contiguous" || s == "contig") {
    out = PartitionPolicy::Contiguous;
    return true;
  }
  if (s == "random" || s == "seeded-random") {
    out = PartitionPolicy::SeededRandom;
    return true;
  }
  return false;
}

Fabric::Fabric(const netlist::Netlist& nl, std::size_t num_chains,
               PartitionPolicy policy, std::uint64_t seed)
    : nl_(&nl), policy_(policy), seed_(seed) {
  VCOMP_REQUIRE(nl.finalized(), "Fabric requires a finalized netlist");
  const std::size_t n = nl.num_dffs();
  VCOMP_REQUIRE(n > 0, "Fabric requires at least one flip-flop");
  VCOMP_REQUIRE(num_chains >= 1 && num_chains <= n,
                "chain count must be in [1, num_dffs]");
  orders_.resize(num_chains);
  // Balanced lengths: the first n % N chains take the extra cell.
  const std::size_t base = n / num_chains;
  const std::size_t extra = n % num_chains;
  for (std::size_t c = 0; c < num_chains; ++c) {
    orders_[c].reserve(base + (c < extra ? 1 : 0));
  }
  switch (policy) {
    case PartitionPolicy::RoundRobin: {
      for (std::uint32_t i = 0; i < n; ++i) {
        orders_[i % num_chains].push_back(i);
      }
      break;
    }
    case PartitionPolicy::Contiguous:
    case PartitionPolicy::SeededRandom: {
      std::vector<std::uint32_t> perm(n);
      std::iota(perm.begin(), perm.end(), 0u);
      // N=1 degeneracy: a single chain is the identity order under every
      // policy, so the seed never perturbs the degenerate fabric.
      if (policy == PartitionPolicy::SeededRandom && num_chains > 1) {
        Rng rng(seed);
        rng.shuffle(perm);
      }
      std::size_t next = 0;
      for (std::size_t c = 0; c < num_chains; ++c) {
        const std::size_t len = base + (c < extra ? 1 : 0);
        orders_[c].assign(perm.begin() + static_cast<std::ptrdiff_t>(next),
                          perm.begin() + static_cast<std::ptrdiff_t>(next + len));
        next += len;
      }
      break;
    }
  }
  finish();
}

Fabric::Fabric(const netlist::Netlist& nl,
               std::vector<std::vector<std::uint32_t>> orders)
    : nl_(&nl), policy_(PartitionPolicy::Contiguous), seed_(0),
      orders_(std::move(orders)) {
  VCOMP_REQUIRE(nl.finalized(), "Fabric requires a finalized netlist");
  VCOMP_REQUIRE(!orders_.empty(), "Fabric requires at least one chain");
  std::size_t total = 0;
  for (const auto& order : orders_) {
    VCOMP_REQUIRE(!order.empty(), "Fabric chains must be non-empty");
    total += order.size();
  }
  VCOMP_REQUIRE(total == nl.num_dffs(),
                "fabric orders must cover every flip-flop");
  finish();
}

void Fabric::finish() {
  const std::size_t n = nl_->num_dffs();
  offsets_.assign(orders_.size() + 1, 0);
  flat_order_.clear();
  flat_order_.reserve(n);
  chain_of_.assign(n, orders_.size());
  pos_of_.assign(n, n);
  max_len_ = 0;
  for (std::size_t c = 0; c < orders_.size(); ++c) {
    offsets_[c + 1] = offsets_[c] + orders_[c].size();
    max_len_ = std::max(max_len_, orders_[c].size());
    for (std::size_t p = 0; p < orders_[c].size(); ++p) {
      const std::uint32_t d = orders_[c][p];
      VCOMP_REQUIRE(d < n, "fabric order index out of range");
      VCOMP_REQUIRE(pos_of_[d] == n, "fabric orders must form a permutation");
      chain_of_[d] = c;
      pos_of_[d] = p;
      flat_order_.push_back(d);
    }
  }
}

ShiftPlan Fabric::plan_for(std::size_t s) const {
  const std::size_t total = total_length();
  VCOMP_REQUIRE(s <= total, "cannot shift more bits than the fabric holds");
  const std::size_t n = orders_.size();
  ShiftPlan plan(n, 0);
  if (n == 1) {
    plan[0] = s;
    return plan;
  }
  // Largest remainder: floor shares first, then hand the leftover bits to
  // the chains with the largest fractional parts (ties to the lower chain
  // index) — deterministic and independent of thread count.
  std::size_t assigned = 0;
  std::vector<std::pair<std::size_t, std::size_t>> rema;  // (remainder, chain)
  rema.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    const std::size_t share = s * orders_[c].size();
    plan[c] = share / total;
    assigned += plan[c];
    rema.emplace_back(share % total, c);
  }
  std::stable_sort(rema.begin(), rema.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t k = 0; k < s - assigned; ++k) {
    plan[rema[k].second] += 1;
  }
  for (std::size_t c = 0; c < n; ++c) {
    VCOMP_REQUIRE(plan[c] <= orders_[c].size(),
                  "plan exceeds chain length");  // cannot happen by math
  }
  return plan;
}

std::size_t Fabric::plan_cycles(const ShiftPlan& plan) const {
  VCOMP_REQUIRE(plan.size() == orders_.size(), "plan size mismatch");
  std::size_t m = 0;
  for (std::size_t v : plan) m = std::max(m, v);
  return m;
}

std::size_t Fabric::plan_total(const ShiftPlan& plan) {
  std::size_t t = 0;
  for (std::size_t v : plan) t += v;
  return t;
}

FabricOut FabricOut::direct(const Fabric& fabric) {
  FabricOut out;
  out.chains.reserve(fabric.num_chains());
  for (std::size_t c = 0; c < fabric.num_chains(); ++c) {
    out.chains.push_back(ScanOutModel::direct(fabric.chain_length(c)));
  }
  return out;
}

FabricOut FabricOut::hxor(const Fabric& fabric, std::size_t num_taps) {
  VCOMP_REQUIRE(num_taps >= 1, "tap count must be at least 1");
  FabricOut out;
  out.chains.reserve(fabric.num_chains());
  for (std::size_t c = 0; c < fabric.num_chains(); ++c) {
    const std::size_t len = fabric.chain_length(c);
    out.chains.push_back(ScanOutModel::hxor(len, std::min(num_taps, len)));
  }
  return out;
}

FabricState::FabricState(const Fabric& fabric) {
  chains_.reserve(fabric.num_chains());
  offsets_.assign(fabric.num_chains() + 1, 0);
  for (std::size_t c = 0; c < fabric.num_chains(); ++c) {
    chains_.emplace_back(fabric.chain_length(c));
    offsets_[c + 1] = offsets_[c] + fabric.chain_length(c);
  }
}

FabricState::FabricState(std::vector<ChainState> chains)
    : chains_(std::move(chains)) {
  VCOMP_REQUIRE(!chains_.empty(), "FabricState requires at least one chain");
  offsets_.assign(chains_.size() + 1, 0);
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    VCOMP_REQUIRE(chains_[c].length() > 0, "FabricState chains must be non-empty");
    offsets_[c + 1] = offsets_[c] + chains_[c].length();
  }
}

void FabricState::load(std::span<const std::uint8_t> bits) {
  VCOMP_REQUIRE(bits.size() == total_length(), "load size mismatch");
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    chains_[c].load(bits.subspan(offsets_[c], chains_[c].length()));
  }
}

void FabricState::flat_bits(std::vector<std::uint8_t>& out) const {
  out.clear();
  out.reserve(total_length());
  for (const ChainState& chain : chains_) {
    out.insert(out.end(), chain.bits().begin(), chain.bits().end());
  }
}

void FabricState::shift(const ShiftPlan& plan,
                        std::span<const std::uint8_t> in_bits) {
  VCOMP_REQUIRE(plan.size() == chains_.size(), "plan size mismatch");
  for (std::size_t c = 0; c < chains_.size(); ++c)
    VCOMP_REQUIRE(plan[c] <= chains_[c].length(),
                  "cannot shift more bits than the chain holds");
  VCOMP_REQUIRE(Fabric::plan_total(plan) == in_bits.size(),
                "scan-in stream size mismatch");
  std::size_t off = 0;
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    chains_[c].shift(in_bits.subspan(off, plan[c]));
    off += plan[c];
  }
}

void FabricState::capture(std::span<const std::uint8_t> next_state,
                          CaptureMode mode) {
  VCOMP_REQUIRE(next_state.size() == total_length(), "capture size mismatch");
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    chains_[c].capture(next_state.subspan(offsets_[c], chains_[c].length()),
                       mode);
  }
}

bool observes_difference(const FabricState& faulty, const FabricState& good,
                         const ShiftPlan& plan, const FabricOut& out) {
  VCOMP_REQUIRE(faulty.num_chains() == good.num_chains() &&
                    plan.size() == good.num_chains() &&
                    out.chains.size() == good.num_chains(),
                "fabrics, plan and scan-out model must cover the same chains");
  const auto no_scan_in = [](std::size_t) -> std::uint8_t { return 0; };
  for (std::size_t c = 0; c < plan.size(); ++c) {
    const auto& a = faulty.chain(c).bits();
    const auto& b = good.chain(c).bits();
    VCOMP_REQUIRE(a.size() == b.size() && plan[c] <= b.size(),
                  "observation window exceeds chain length");
    const auto diff = [&](std::size_t p) -> std::uint8_t {
      return a[p] ^ b[p];
    };
    for (std::size_t j = 0; j < plan[c]; ++j)
      if (observed_bit(out.chains[c], j, diff, no_scan_in)) return true;
  }
  return false;
}

}  // namespace vcomp::scan
