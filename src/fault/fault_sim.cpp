#include "vcomp/fault/fault_sim.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "vcomp/obs/metrics.hpp"
#include "vcomp/util/assert.hpp"
#include "vcomp/util/parallel.hpp"

namespace vcomp::fault {

using netlist::GateId;
using netlist::GateType;
using sim::EvalGraph;
using sim::Word;

namespace {

// Added once per call (never batched across calls): simulations counts
// the faults a call reports on, so a fault-lane pass adds its lane count
// and a region call its list length.  Per-thread sinks make the immediate
// add cheap, and call-granular updates keep the totals independent of how
// callers shard work across threads.
struct DiffSimMetrics {
  obs::Counter simulations = obs::counter("diffsim.simulations");
  obs::Counter events = obs::counter("diffsim.events");
  obs::Counter region_roots = obs::counter("diffsim.region_roots");
  obs::Counter region_blocked = obs::counter("diffsim.region_blocked");
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
  diffsim_metrics().simulations.inc();
  add_fault(f, ~Word{0});
  return run_pass();
}

DiffSim::Effect DiffSim::simulate_mapped(const MappedFault& mf) {
  diffsim_metrics().simulations.inc();
  add_fault(mf, ~Word{0});
  return run_pass();
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
  diffsim_metrics().simulations.add(faults.size());
  for (std::size_t k = 0; k < faults.size(); ++k)
    add_fault(*faults[k], Word{1} << k);
  return run_pass();
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

DiffSim::Effect DiffSim::run_pass() {
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
  diffsim_metrics().events.add(drained);

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

// ---- region calls ---------------------------------------------------------

namespace {

/// The force sites and stuck value of a plain or a mapped fault.
std::span<const MappedSite> sites_of(const Fault& f, MappedSite& one) {
  one = {f.gate, f.pin};
  return {&one, 1};
}
std::span<const MappedSite> sites_of(const MappedFault* mf, MappedSite&) {
  return mf->sites;
}
std::uint8_t stuck_of(const Fault& f) { return f.stuck; }
std::uint8_t stuck_of(const MappedFault* mf) { return mf->stuck; }

}  // namespace

Word DiffSim::pin_sensitivity(GateId g, std::uint32_t pin) const {
  const Word* good = good_.values().data();
  const auto fanin = eg_->fanin(g);
  const Word flipped =
      sim::word_eval_fused(eg_->type(g), fanin.size(), [&](std::size_t p) {
        const Word x = good[fanin[p]];
        return p == pin ? ~x : x;
      });
  return flipped ^ good[g];
}

Word DiffSim::path_lanes(GateId g) {
  // Critical path tracing: only one pin differs on the way up, so a gate
  // passes the flip in the lanes where it is sensitive to that pin.  Walk
  // up to the root or to a gate this call already knows, then fill the
  // walked gates top-down.
  const EvalGraph& eg = *eg_;
  chain_.clear();
  GateId u = g;
  while (eg.interior(u) && memo_[u].stamp != stamp_) {
    chain_.push_back(u);
    u = eg.region_reader(u);
  }
  Word lanes = eg.interior(u) ? memo_[u].lanes : ~Word{0};
  for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) {
    if (lanes != 0)
      lanes &= pin_sensitivity(eg.region_reader(*it), eg.region_pin(*it));
    memo_[*it] = {.stamp = stamp_, .slot = 0, .lanes = lanes};
  }
  return lanes;
}

void DiffSim::keep_pass(std::uint32_t slot, const Effect& eff) {
  Slot& s = slots_[slot];
  s.po = eff.po_any;
  s.begin = static_cast<std::uint32_t>(slot_ppo_.size());
  slot_ppo_.insert(slot_ppo_.end(), eff.ppo_diffs.begin(),
                   eff.ppo_diffs.end());
  s.end = static_cast<std::uint32_t>(slot_ppo_.size());
}

void DiffSim::split_lanes(const Effect& eff, std::uint32_t first,
                          std::size_t count) {
  std::array<std::uint32_t, kLanes> per_lane{};
  for (const PpoDiff& d : eff.ppo_diffs)
    for (Word bits = d.diff; bits != 0; bits &= bits - 1)
      ++per_lane[std::countr_zero(bits)];
  auto at = static_cast<std::uint32_t>(slot_ppo_.size());
  for (std::size_t k = 0; k < count; ++k) {
    Slot& s = slots_[first + k];
    s.po = (eff.po_any >> k) & 1 ? ~Word{0} : Word{0};
    s.begin = s.end = at;
    at += per_lane[k];
  }
  slot_ppo_.resize(at);
  for (const PpoDiff& d : eff.ppo_diffs)
    for (Word bits = d.diff; bits != 0; bits &= bits - 1)
      slot_ppo_[slots_[first + std::countr_zero(bits)].end++] = {
          d.dff_index, ~Word{0}};
}

template <typename List>
void DiffSim::trace_regions(const List& faults) {
  const EvalGraph& eg = *eg_;
  const DiffSimMetrics& metrics = diffsim_metrics();
  metrics.simulations.add(faults.size());
  if (memo_.empty()) memo_.resize(eg.num_gates());
  if (++stamp_ == 0) {  // wrapped: forget every mark
    std::fill(memo_.begin(), memo_.end(), Memo{});
    stamp_ = 1;
  }
  answered_.assign(faults.size(), 0);
  answers_.clear();
  slots_.clear();
  roots_.clear();
  multi_.clear();

  // A broadcast stimulus holds one vector in every lane, so every fault
  // reaches its root in all lanes or in none, and lane k of a pass is free
  // to carry root k.
  const Word* good = good_.values().data();
  broadcast_ = true;
  for (const auto sources : {eg.inputs(), eg.dffs()})
    for (GateId g : sources)
      broadcast_ &= good[g] == 0 || good[g] == ~Word{0};

  std::size_t blocked = 0;
  MappedSite one;
  for (std::size_t n = 0; n < faults.size(); ++n) {
    const auto sites = sites_of(faults[n], one);
    const Word stuck = stuck_of(faults[n]) != 0 ? ~Word{0} : Word{0};
    const auto fault = static_cast<std::uint32_t>(n);
    if (sites.size() != 1) {
      if (sites.size() > 1) multi_.push_back(fault);
      continue;  // no site: no effect
    }
    const GateId g = sites[0].gate;
    const std::int16_t pin = sites[0].pin;
    Word lanes;
    if (pin < 0) {
      lanes = good[g] ^ stuck;
    } else {
      const GateId src = eg.fanin(g)[static_cast<std::size_t>(pin)];
      lanes = good[src] ^ stuck;
      if (eg.type(g) == GateType::Dff) {  // perturbs the captured bit only
        if (lanes != 0) {
          answered_[n] = 1;
          answers_.push_back({lanes, fault, kCaptured | eg.dff_index_of(g)});
        }
        continue;
      }
      if (lanes != 0)
        lanes &= pin_sensitivity(g, static_cast<std::uint32_t>(pin));
    }
    if (lanes != 0 && eg.interior(g))
      lanes &= path_lanes(g);
    if (lanes == 0) {
      ++blocked;
      continue;
    }
    const GateId root = eg.region_root(g);
    Memo& at_root = memo_[root];
    if (at_root.stamp != stamp_) {
      at_root = {.stamp = stamp_,
                 .slot = static_cast<std::uint32_t>(roots_.size()),
                 .lanes = 0};
      roots_.push_back(root);
      slots_.emplace_back();
    }
    slots_[at_root.slot].lanes |= lanes;
    answered_[n] = 1;
    answers_.push_back({lanes, fault, at_root.slot});
  }
  for (const std::uint32_t n : multi_) {
    answered_[n] = 1;
    answers_.push_back(
        {~Word{0}, n, static_cast<std::uint32_t>(slots_.size())});
    slots_.push_back({.lanes = ~Word{0}});
  }
  metrics.region_roots.add(roots_.size());
  metrics.region_blocked.add(blocked);

  // Group the answers by slot (a counting sort, list order within a
  // slot), the data-pin faults first.
  auto group = [](std::uint32_t slot) {
    return (slot & kCaptured) != 0 ? 0 : slot + 1;
  };
  slot_first_.assign(slots_.size() + 2, 0);
  for (const Answer& a : answers_) ++slot_first_[group(a.slot) + 1];
  for (std::size_t k = 1; k < slot_first_.size(); ++k)
    slot_first_[k] += slot_first_[k - 1];
  by_slot_.resize(answers_.size());
  for (std::size_t i = 0; i < answers_.size(); ++i)
    by_slot_[slot_first_[group(answers_[i].slot)]++] =
        static_cast<std::uint32_t>(i);
  // slot_first_[k] now ends group k: slot k's answers start there, and the
  // data-pin faults at 0.
  wave_ = {by_slot_.data(), slot_first_[0]};
  next_slot_ = 0;
}

template <typename List>
bool DiffSim::next_wave(const List& faults) {
  const auto num_slots = static_cast<std::uint32_t>(slots_.size());
  if (next_slot_ == num_slots) return false;
  const Word* good = good_.values().data();
  const auto num_roots = static_cast<std::uint32_t>(roots_.size());
  const std::uint32_t first = next_slot_;
  const std::uint32_t limit = first < num_roots ? num_roots : num_slots;
  const std::uint32_t count =
      std::min<std::uint32_t>(broadcast_ ? kLanes : 1, limit - first);
  MappedSite one;
  for (std::uint32_t k = 0; k < count; ++k) {
    // A pass flips each root in its lanes, or forces each fault's sites.
    const Word mask = broadcast_ ? Word{1} << k : ~Word{0};
    const std::uint32_t slot = first + k;
    if (slot < num_roots) {
      add_force(roots_[slot], -1, mask & slots_[slot].lanes,
                ~good[roots_[slot]]);
      continue;
    }
    const auto& f = faults[multi_[slot - num_roots]];
    for (const MappedSite& site : sites_of(f, one))
      add_force(site.gate, site.pin, mask,
                stuck_of(f) != 0 ? mask : Word{0});
  }
  slot_ppo_.clear();
  const Effect eff = run_pass();
  if (broadcast_)
    split_lanes(eff, first, count);
  else
    keep_pass(first, eff);
  next_slot_ = first + count;
  wave_ = {by_slot_.data() + slot_first_[first],
           slot_first_[next_slot_] - slot_first_[first]};
  return true;
}

template void DiffSim::trace_regions(const std::span<const Fault>&);
template void DiffSim::trace_regions(
    const std::span<const MappedFault* const>&);
template void DiffSim::trace_regions(const ModelFaults&);
template bool DiffSim::next_wave(const std::span<const Fault>&);
template bool DiffSim::next_wave(const std::span<const MappedFault* const>&);
template bool DiffSim::next_wave(const ModelFaults&);

DiffSim::Effect DiffSim::effect_of(const Answer& a) {
  if ((a.slot & kCaptured) != 0) {
    masked_.assign(1, {a.slot & ~kCaptured, a.lanes});
    return {0, masked_};
  }
  const Slot& s = slots_[a.slot];
  const std::span<const PpoDiff> ppo(slot_ppo_.data() + s.begin,
                                     s.end - s.begin);
  if (a.lanes == s.lanes) return {s.po, ppo};
  // The slot also answers other faults of the root, in other lanes.
  masked_.clear();
  for (const PpoDiff& d : ppo)
    if (const Word w = d.diff & a.lanes; w != 0)
      masked_.push_back({d.dff_index, w});
  return {s.po & a.lanes, masked_};
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
