#include "vcomp/fault/block_lane_sim.hpp"

#include <algorithm>

#include "vcomp/util/assert.hpp"

namespace vcomp::fault {

using netlist::GateId;
using netlist::GateType;
using sim::Block;
using sim::EvalGraph;
using sim::kBlockLanes;
using sim::kBlockWords;

BlockLaneSim::BlockLaneSim(EvalGraph::Ref graph, sim::SimdMode mode)
    : eg_(std::move(graph)),
      mode_(mode == sim::SimdMode::Auto ? sim::active_simd() : mode),
      sweep_(sim::block_sweep_fn(mode_)) {
  VCOMP_REQUIRE(eg_ != nullptr, "BlockLaneSim requires an evaluation graph");
  values_.assign(eg_->num_gates(), Block::zero());
  force_flags_.assign(eg_->num_gates(), 0);
  gather_.reserve(16);
}

void BlockLaneSim::clear() {
  lanes_ = 0;
  std::fill(values_.begin(), values_.end(), Block::zero());
  std::fill(force_flags_.begin(), force_flags_.end(), std::uint8_t{0});
  stem_forces_.clear();
  pin_forces_.clear();
}

int BlockLaneSim::add_lane() {
  VCOMP_REQUIRE(lanes_ < static_cast<int>(kBlockLanes),
                "BlockLaneSim holds at most kBlockLanes lanes");
  return lanes_++;
}

void BlockLaneSim::set_pi_all(std::size_t input_index, bool v) {
  VCOMP_REQUIRE(input_index < eg_->num_inputs(), "input index out of range");
  values_[eg_->inputs()[input_index]] = Block::fill(v);
}

void BlockLaneSim::set_pi_block(std::size_t input_index, const Block& b) {
  VCOMP_REQUIRE(input_index < eg_->num_inputs(), "input index out of range");
  values_[eg_->inputs()[input_index]] = b;
}

void BlockLaneSim::set_state(int lane, std::size_t dff_index, bool v) {
  VCOMP_REQUIRE(lane >= 0 && lane < lanes_, "bad lane index");
  VCOMP_REQUIRE(dff_index < eg_->num_dffs(), "state index out of range");
  values_[eg_->dffs()[dff_index]].set_lane(static_cast<std::size_t>(lane), v);
}

void BlockLaneSim::set_state_word(std::size_t dff_index, std::size_t k,
                                  sim::Word w) {
  VCOMP_REQUIRE(dff_index < eg_->num_dffs(), "state index out of range");
  VCOMP_REQUIRE(k < kBlockWords, "state word index out of range");
  values_[eg_->dffs()[dff_index]].w[k] = w;
}

void BlockLaneSim::set_state_block(std::size_t dff_index, const Block& b) {
  VCOMP_REQUIRE(dff_index < eg_->num_dffs(), "state index out of range");
  values_[eg_->dffs()[dff_index]] = b;
}

void BlockLaneSim::add_stem_force(GateId g, int lane, bool stuck) {
  auto& force = stem_forces_[g];
  force_flags_[g] |= kHasStemForce;
  (stuck ? force.mask1 : force.mask0)
      .set_lane(static_cast<std::size_t>(lane), true);
}

void BlockLaneSim::add_pin_force(GateId g, std::uint16_t pin, int lane,
                                 bool stuck) {
  auto& forces = pin_forces_[g];
  force_flags_[g] |= kHasPinForce;
  PinForce* slot = nullptr;
  for (auto& pf : forces)
    if (pf.pin == pin) slot = &pf;
  if (slot == nullptr) {
    forces.push_back(PinForce{pin, Block::zero(), Block::zero()});
    slot = &forces.back();
  }
  (stuck ? slot->mask1 : slot->mask0)
      .set_lane(static_cast<std::size_t>(lane), true);
}

void BlockLaneSim::inject(int lane, const Fault& f) {
  VCOMP_REQUIRE(lane >= 0 && lane < lanes_, "bad lane index");
  if (f.is_stem()) {
    add_stem_force(f.gate, lane, f.stuck != 0);
  } else {
    add_pin_force(f.gate, static_cast<std::uint16_t>(f.pin), lane,
                  f.stuck != 0);
  }
}

void BlockLaneSim::inject_mapped(int lane, const MappedFault& mf) {
  VCOMP_REQUIRE(lane >= 0 && lane < lanes_, "bad lane index");
  // All sites of a mapped fault express one original stuck-at line, so
  // they share the lane and the stuck value (already inverted by the
  // mapping when the folded site was an inverter's input pin).
  for (const MappedSite& s : mf.sites) {
    if (s.pin < 0) {
      add_stem_force(s.gate, lane, mf.stuck != 0);
    } else {
      add_pin_force(s.gate, static_cast<std::uint16_t>(s.pin), lane,
                    mf.stuck != 0);
    }
  }
}

void BlockLaneSim::patch_gate(GateId g) {
  const EvalGraph& eg = *eg_;
  const std::uint8_t flags = force_flags_[g];
  Block v = values_[g];
  if ((flags & kHasPinForce) != 0) {
    // Rare slow path: gather, patch the forced pins, re-evaluate.  The
    // plain store the sweep just made is discarded; consumers only read
    // after this hook returns.
    const auto fanin = eg.fanin(g);
    gather_.clear();
    for (GateId fin : fanin) gather_.push_back(values_[fin]);
    for (const auto& pf : pin_forces_.find(g)->second)
      gather_[pf.pin] =
          sim::block_apply_force(gather_[pf.pin], pf.mask0, pf.mask1);
    v = sim::bitslice_eval_fused<Block>(
        eg.type(g), gather_.size(),
        [&](std::size_t k) -> const Block& { return gather_[k]; });
  }
  if ((flags & kHasStemForce) != 0) {
    const StemForce& sf = stem_forces_.find(g)->second;
    v = sim::block_apply_force(v, sf.mask0, sf.mask1);
  }
  values_[g] = v;
}

void BlockLaneSim::eval() {
  // Stem forces on sources (PI / PPI stem faults): sources are outside the
  // sweep schedule, so the patch hook never fires for them.
  for (const auto& [g, force] : stem_forces_) {
    const GateType t = eg_->type(g);
    if (t == GateType::Input || t == GateType::Dff)
      values_[g] = sim::block_apply_force(values_[g], force.mask0, force.mask1);
  }

  const bool any_force = !stem_forces_.empty() || !pin_forces_.empty();
  const auto patch = +[](void* user, GateId g) {
    static_cast<BlockLaneSim*>(user)->patch_gate(g);
  };
  sweep_(*eg_, values_.data(), any_force ? force_flags_.data() : nullptr,
         any_force ? patch : nullptr, this);
}

const Block& BlockLaneSim::output_block(std::size_t po_index) const {
  VCOMP_REQUIRE(po_index < eg_->num_outputs(), "output index out of range");
  return values_[eg_->outputs()[po_index]];
}

Block BlockLaneSim::next_state_block(std::size_t dff_index) const {
  VCOMP_REQUIRE(dff_index < eg_->num_dffs(), "state index out of range");
  Block v = values_[eg_->dff_input(dff_index)];
  // Branch faults on the flip-flop data pin perturb only the captured bit.
  const GateId dff = eg_->dffs()[dff_index];
  if (auto it = pin_forces_.find(dff); it != pin_forces_.end())
    for (const auto& pf : it->second)
      if (pf.pin == 0) v = sim::block_apply_force(v, pf.mask0, pf.mask1);
  return v;
}

}  // namespace vcomp::fault
