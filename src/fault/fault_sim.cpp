#include "vcomp/fault/fault_sim.hpp"

#include <algorithm>

#include "vcomp/obs/metrics.hpp"
#include "vcomp/util/assert.hpp"
#include "vcomp/util/parallel.hpp"

namespace vcomp::fault {

using netlist::GateId;
using netlist::GateType;
using sim::EvalGraph;
using sim::Word;

namespace {

// Added once per pass (never batched across passes): simulations counts
// the faults a pass carries, so a fault-lane pass adds its lane count.
// Per-thread sinks make the immediate add cheap, and pass-granular updates
// keep the totals independent of how callers shard work across threads.
struct DiffSimMetrics {
  obs::Counter simulations = obs::counter("diffsim.simulations");
  obs::Counter events = obs::counter("diffsim.events");
};

const DiffSimMetrics& diffsim_metrics() {
  static const DiffSimMetrics m;
  return m;
}

}  // namespace

DiffSim::DiffSim(EvalGraph::Ref graph) : eg_(std::move(graph)), good_(eg_) {
  const std::size_t n = eg_->num_gates();
  delta_.assign(n, 0);
  touched_.assign(n, 0);
  queued_.assign(n, 0);
  force_slot_.assign(n, kNone);
  buckets_.resize(eg_->num_levels());
  ppo_out_.reserve(16);
}

DiffSim::DiffSim(const netlist::Netlist& nl)
    : DiffSim(EvalGraph::compile(nl)) {}

void DiffSim::commit_good() { good_.eval(); }

void DiffSim::reset_deltas() {
  for (GateId g : touched_list_) {
    delta_[g] = 0;
    touched_[g] = 0;
  }
  touched_list_.clear();
  // Normally the propagation loop drains every scheduled event, but a
  // simulate() that threw mid-flight (a contract error inside a kernel)
  // abandons its queue.  Left alone, those stale queued_ marks would make
  // later calls silently skip re-scheduling the same gates.  Drain
  // explicitly so every call starts clean.
  if (pending_events_ != 0) {
    for (auto& bucket : buckets_) {
      for (GateId g : bucket) queued_[g] = 0;
      bucket.clear();
    }
    pending_events_ = 0;
  }
#ifndef NDEBUG
  for (const auto& bucket : buckets_)
    VCOMP_DASSERT(bucket.empty(), "event bucket not drained");
#endif
}

void DiffSim::schedule(GateId g) {
  const GateType t = eg_->type(g);
  if (t == GateType::Input || t == GateType::Dff) return;
  if (queued_[g]) return;
  queued_[g] = 1;
  const std::uint32_t lvl = eg_->level(g);
  first_level_ = std::min(first_level_, lvl);
  buckets_[lvl].push_back(g);
  ++pending_events_;
}

void DiffSim::set_origin(GateId g, Word d) {
  delta_[g] = d;
  touched_[g] = 1;
  touched_list_.push_back(g);
  for (GateId s : eg_->fanout(g)) schedule(s);
}

void DiffSim::add_force(GateId g, std::int16_t pin, Word mask, Word value) {
  std::uint32_t& slot = force_slot_[g];
  if (slot == kNone) {
    slot = static_cast<std::uint32_t>(gate_forces_.size());
    gate_forces_.push_back({.gate = g});
  }
  GateForce& gf = gate_forces_[slot];
  value &= mask;
  if (pin < 0) {
    gf.stem_mask |= mask;
    gf.stem_value = (gf.stem_value & ~mask) | value;
    return;
  }
  const auto p = static_cast<std::uint32_t>(pin);
  for (std::uint32_t i = gf.first_pin; i != kNone; i = pin_forces_[i].next)
    if (pin_forces_[i].pin == p) {
      pin_forces_[i].mask |= mask;
      pin_forces_[i].value = (pin_forces_[i].value & ~mask) | value;
      return;
    }
  pin_forces_.push_back({p, gf.first_pin, mask, value});
  gf.first_pin = static_cast<std::uint32_t>(pin_forces_.size() - 1);
}

void DiffSim::add_fault(const Fault& f, Word mask) {
  add_force(f.gate, f.pin, mask, f.stuck != 0 ? mask : Word{0});
}

void DiffSim::add_fault(const MappedFault& mf, Word mask) {
  // Every site of a mapped fault expresses one original stuck-at line, so
  // all of them force the same value in the same lanes.
  for (const MappedSite& s : mf.sites)
    add_force(s.gate, s.pin, mask, mf.stuck != 0 ? mask : Word{0});
}

DiffSim::Effect DiffSim::simulate(const Fault& f) {
  add_fault(f, ~Word{0});
  return run_pass(1);
}

DiffSim::Effect DiffSim::simulate_mapped(const MappedFault& mf) {
  add_fault(mf, ~Word{0});
  return run_pass(1);
}

DiffSim::Effect DiffSim::simulate_lanes(std::span<const Fault> faults) {
  VCOMP_REQUIRE(faults.size() <= kLanes, "a fault-lane pass holds 64 faults");
  for (std::size_t k = 0; k < faults.size(); ++k)
    add_fault(faults[k], Word{1} << k);
  return run_pass(faults.size());
}

DiffSim::Effect DiffSim::simulate_lanes(
    std::span<const MappedFault* const> faults,
    std::span<const FlippedCell> flipped) {
  VCOMP_REQUIRE(faults.size() <= kLanes, "a fault-lane pass holds 64 faults");
  for (const FlippedCell& fc : flipped)
    VCOMP_REQUIRE(fc.lane < kLanes && fc.dff_index < eg_->num_dffs(),
                  "flipped cell outside the pass");
  for (const FlippedCell& fc : flipped) {
    const GateId g = eg_->dffs()[fc.dff_index];
    add_force(g, -1, Word{1} << fc.lane, ~good_.values()[g]);
  }
  for (std::size_t k = 0; k < faults.size(); ++k)
    add_fault(*faults[k], Word{1} << k);
  return run_pass(faults.size());
}

Word DiffSim::eval_forced(const GateForce& gf) const {
  if (gf.stem_mask == ~Word{0}) return gf.stem_value;
  const Word* good_vals = good_.values().data();
  const Word* delta = delta_.data();
  const auto fanin = eg_->fanin(gf.gate);
  const Word faulty = sim::word_eval_fused(
      eg_->type(gf.gate), fanin.size(), [&](std::size_t p) {
        Word x = good_vals[fanin[p]] ^ delta[fanin[p]];
        for (std::uint32_t i = gf.first_pin; i != kNone;
             i = pin_forces_[i].next)
          if (pin_forces_[i].pin == p)
            x = (x & ~pin_forces_[i].mask) | pin_forces_[i].value;
        return x;
      });
  return (faulty & ~gf.stem_mask) | gf.stem_value;
}

bool DiffSim::dff_pin_forced(std::uint32_t dff) const {
  const std::uint32_t slot = force_slot_[eg_->dffs()[dff]];
  return slot != kNone && gate_forces_[slot].first_pin != kNone;
}

DiffSim::Effect DiffSim::run_pass(std::size_t faults) {
  const DiffSimMetrics& metrics = diffsim_metrics();
  metrics.simulations.add(faults);
  reset_deltas();
  ppo_out_.clear();
  Effect effect;
  const EvalGraph& eg = *eg_;
  const Word* good_vals = good_.values().data();
  Word* delta = delta_.data();
  // Drop the pass's forces on every exit, a throwing one included, so the
  // next pass starts from none.
  struct ForceReset {
    DiffSim* sim;
    ~ForceReset() {
      for (const GateForce& gf : sim->gate_forces_)
        sim->force_slot_[gf.gate] = kNone;
      sim->gate_forces_.clear();
      sim->pin_forces_.clear();
    }
  } const force_reset{this};

  // Seed every forced gate with its difference under its forces.  A seed
  // may read a difference an earlier seed set; when an upstream seed or
  // event later changes a forced gate's inputs, the gate is scheduled and
  // re-evaluated with its forces at its level, so the settled values are
  // exact in any seeding order.  A lane whose site is not activated seeds
  // nothing.  Flip-flop data-pin forces act at the harvest only.
  first_level_ = eg.num_levels();
  bool dff_pins = false;
  for (const GateForce& gf : gate_forces_) {
    const GateType t = eg.type(gf.gate);
    Word d;
    if (t == GateType::Input || t == GateType::Dff) {
      dff_pins |= gf.first_pin != kNone;
      d = (good_vals[gf.gate] ^ gf.stem_value) & gf.stem_mask;
    } else {
      d = eval_forced(gf) ^ good_vals[gf.gate];
    }
    if (d != 0) set_origin(gf.gate, d);
  }

  // Levelized event propagation over the CSR arrays.  Deltas only flow to
  // strictly higher levels, so one low-to-high sweep suffices, and it ends
  // with the last scheduled event.
  std::uint64_t drained = 0;
  const std::uint32_t* off = eg.fanin_offsets();
  const GateId* ids = eg.fanin_ids();
  for (std::uint32_t lvl = first_level_;
       lvl < buckets_.size() && pending_events_ != 0; ++lvl) {
    auto& bucket = buckets_[lvl];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const GateId u = bucket[i];
      queued_[u] = 0;
      --pending_events_;
      ++drained;
      const std::uint32_t slot = force_slot_[u];
      const std::uint32_t b = off[u];
      const Word faulty =
          slot != kNone ? eval_forced(gate_forces_[slot])
                        : sim::word_eval_fused(
                              eg.type(u), off[u + 1] - b, [&](std::size_t k) {
                                const GateId fin = ids[b + k];
                                return good_vals[fin] ^ delta[fin];
                              });
      const Word d = faulty ^ good_vals[u];
      if (d == delta[u]) continue;
      delta[u] = d;
      if (!touched_[u]) {
        touched_[u] = 1;
        touched_list_.push_back(u);
      }
      for (GateId s : eg.fanout(u)) schedule(s);
    }
    bucket.clear();
  }
  VCOMP_DASSERT(pending_events_ == 0, "events left after propagation");
  metrics.events.add(drained);

  // Harvest observation points from the touched set.  A flip-flop whose
  // data pin is forced in some lanes captures the forced value there, so
  // its entry comes from its force, not from its driver's delta.
  for (GateId g : touched_list_) {
    const Word d = delta[g];
    if (d == 0) continue;
    if (eg.is_po(g)) effect.po_any |= d;
    for (std::uint32_t dff : eg.feeds_dff(g))
      if (!dff_pins || !dff_pin_forced(dff)) ppo_out_.push_back({dff, d});
  }
  if (dff_pins) {
    for (const GateForce& gf : gate_forces_) {
      if (gf.first_pin == kNone || eg.type(gf.gate) != GateType::Dff)
        continue;
      const PinForce& pf = pin_forces_[gf.first_pin];  // a Dff has one pin
      const GateId src = eg.fanin(gf.gate)[0];
      const Word d =
          (delta[src] & ~pf.mask) | ((good_vals[src] ^ pf.value) & pf.mask);
      if (d != 0) ppo_out_.push_back({eg.dff_index_of(gf.gate), d});
    }
  }
  effect.ppo_diffs = ppo_out_;
  return effect;
}

DiffSimShards::DiffSimShards(EvalGraph::Ref graph, std::size_t max_shards)
    : eg_(std::move(graph)) {
  const std::size_t n = max_shards > 0 ? max_shards : util::parallelism();
  sims_.resize(n > 0 ? n : 1);
}

DiffSimShards::DiffSimShards(const netlist::Netlist& nl,
                             std::size_t max_shards)
    : DiffSimShards(EvalGraph::compile(nl), max_shards) {}

}  // namespace vcomp::fault
