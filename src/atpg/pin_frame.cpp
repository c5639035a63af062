#include "vcomp/atpg/pin_frame.hpp"

#include <algorithm>
#include <cstring>

#include "vcomp/util/assert.hpp"

namespace vcomp::atpg {

using fault::Fault;
using netlist::GateId;
using netlist::GateType;
using sim::Trit;

namespace {

bool is_source(GateType t) {
  return t == GateType::Input || t == GateType::Dff;
}

}  // namespace

PinFrame::PinFrame(sim::EvalGraph::Ref graph)
    : eg_(std::move(graph)), sim_(eg_) {
  const std::size_t n = eg_->num_gates();
  is_obs_.assign(n, 0);
  for (GateId g : eg_->outputs()) is_obs_[g] = 1;
  for (std::size_t i = 0; i < eg_->num_dffs(); ++i)
    is_obs_[eg_->dff_input(i)] = 1;
  seen_.assign(n, 0);
}

bool PinFrame::load(const PpiConstraints* constraints) {
  static const std::vector<Trit> kNoPins;
  const std::vector<Trit>& pins = constraints ? constraints->fixed : kNoPins;
  // Checked before the frame is touched: a rejected call leaves the frame
  // exactly as the previous call left it.
  VCOMP_REQUIRE(pins.empty() || pins.size() == eg_->num_dffs(),
                "constraint vector size must equal the number of DFFs");
  if (valid_ && pins.size() == pins_.size() &&
      (pins.empty() ||
       std::memcmp(pins.data(), pins_.data(), pins.size()) == 0))
    return false;

  valid_ = false;
  pins_ = pins;
  sim_.clear();
  for (std::size_t i = 0; i < pins.size(); ++i) sim_.set_state(i, pins[i]);
  sim_.eval();
  valid_ = true;
  return true;
}

bool PinFrame::proves_untestable(const Fault& f) {
  const std::span<const Trit> v = sim_.values();
  const Trit stuck = f.stuck ? Trit::One : Trit::Zero;
  const Trit source = v[fault::fault_source(eg_->netlist(), f)];
  // A fixed source either holds the stuck value, so the fault is never
  // activated, or is activated, which the engine's own X-path check
  // handles.
  if (source != Trit::X) return source == stuck;

  // The capture itself observes a DFF data-pin branch, and an observable
  // PI/PPI stem shows its value directly.
  const bool source_site = is_source(eg_->type(f.gate));
  if (!f.is_stem() && eg_->type(f.gate) == GateType::Dff) return false;
  if (f.is_stem() && source_site && is_obs_[f.gate]) return false;

  // A difference first shows at the site's sink(s): a comb stem's own
  // gate, a branch's sink gate, or a PI/PPI stem's fanouts.
  if (++epoch_ == 0) {
    std::fill(seen_.begin(), seen_.end(), 0);
    epoch_ = 1;
  }
  stack_.clear();
  auto push = [&](GateId g) {
    if (is_source(eg_->type(g)) || v[g] != Trit::X || seen_[g] == epoch_)
      return;
    seen_[g] = epoch_;
    stack_.push_back(g);
  };
  if (f.is_stem() && source_site) {
    for (GateId s : eg_->fanout(f.gate)) push(s);
  } else {
    push(f.gate);
  }
  while (!stack_.empty()) {
    const GateId u = stack_.back();
    stack_.pop_back();
    if (is_obs_[u]) return false;
    for (GateId s : eg_->fanout(u)) push(s);
  }
  return true;
}

}  // namespace vcomp::atpg
