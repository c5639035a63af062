#include "vcomp/sim/eval_graph.hpp"

#include <algorithm>

#include "vcomp/util/assert.hpp"

namespace vcomp::sim {

using netlist::GateId;
using netlist::GateType;

EvalGraph::Ref EvalGraph::compile(const netlist::Netlist& nl) {
  return std::make_shared<const EvalGraph>(nl);
}

EvalGraph::EvalGraph(const netlist::Netlist& nl) : nl_(&nl) {
  VCOMP_REQUIRE(nl.finalized(), "EvalGraph requires a finalized netlist");
  const std::size_t n = nl.num_gates();

  type_.resize(n);
  level_.resize(n);
  is_po_.assign(n, 0);
  dff_index_of_.assign(n, kNotDff);

  fanin_off_.assign(n + 1, 0);
  fanout_off_.assign(n + 1, 0);
  for (GateId id = 0; id < n; ++id) {
    const auto& g = nl.gate(id);
    type_[id] = g.type;
    level_[id] = g.level;
    fanin_off_[id + 1] = fanin_off_[id] +
                         static_cast<std::uint32_t>(g.fanin.size());
    fanout_off_[id + 1] = fanout_off_[id] +
                          static_cast<std::uint32_t>(g.fanout.size());
  }
  fanin_ids_.reserve(fanin_off_[n]);
  fanout_ids_.reserve(fanout_off_[n]);
  for (GateId id = 0; id < n; ++id) {
    const auto& g = nl.gate(id);
    fanin_ids_.insert(fanin_ids_.end(), g.fanin.begin(), g.fanin.end());
    fanout_ids_.insert(fanout_ids_.end(), g.fanout.begin(), g.fanout.end());
  }

  for (GateId po : nl.outputs()) is_po_[po] = 1;

  dff_input_.resize(nl.num_dffs());
  feeds_dff_off_.assign(n + 1, 0);
  for (std::uint32_t i = 0; i < nl.num_dffs(); ++i) {
    const GateId dff = nl.dffs()[i];
    dff_index_of_[dff] = i;
    dff_input_[i] = nl.gate(dff).fanin[0];
    ++feeds_dff_off_[dff_input_[i] + 1];
  }
  for (std::size_t g = 0; g < n; ++g)
    feeds_dff_off_[g + 1] += feeds_dff_off_[g];
  feeds_dff_ids_.resize(feeds_dff_off_[n]);
  {
    std::vector<std::uint32_t> cursor(feeds_dff_off_.begin(),
                                      feeds_dff_off_.end() - 1);
    for (std::uint32_t i = 0; i < nl.num_dffs(); ++i)
      feeds_dff_ids_[cursor[dff_input_[i]]++] = i;
  }

  // The finalize() Kahn sweep emits gates in nondecreasing level order, so
  // topo_order doubles as the level-partitioned schedule; only the level
  // boundaries need recording.  (Guarded below: a future netlist change
  // that breaks the partition would silently re-order event propagation.)
  schedule_.assign(nl.topo_order().begin(), nl.topo_order().end());
  level_off_.assign(static_cast<std::size_t>(nl.depth()) + 2, 0);
  std::uint32_t prev = 0;
  for (std::size_t k = 0; k < schedule_.size(); ++k) {
    const std::uint32_t lvl = level_[schedule_[k]];
    VCOMP_ENSURE(lvl >= prev, "topo order is not level-partitioned");
    while (prev < lvl) level_off_[++prev] = static_cast<std::uint32_t>(k);
    prev = lvl;
  }
  while (prev + 1 < level_off_.size())
    level_off_[++prev] = static_cast<std::uint32_t>(schedule_.size());

  // Fanout-free regions.  fanout() lists one entry per reading pin, so a
  // gate with a single entry has a single reader pin.  A reader sits at a
  // strictly higher level than the gates it reads, so walking the schedule
  // backwards, then the sources, settles every reader's root first.
  regions_.resize(n);
  for (GateId g = 0; g < n; ++g) regions_[g].root = g;
  auto settle = [&](GateId g) {
    const auto out = fanout(g);
    if (out.size() != 1 || is_po_[g] != 0) return;
    const GateId r = out[0];
    if (type_[r] == GateType::Dff) return;
    const auto in = fanin(r);
    regions_[g] = {
        .reader = r,
        .pin = static_cast<std::uint32_t>(std::find(in.begin(), in.end(), g) -
                                          in.begin()),
        .root = regions_[r].root};
  };
  for (auto it = schedule_.rbegin(); it != schedule_.rend(); ++it) settle(*it);
  for (GateId g : nl.inputs()) settle(g);
  for (GateId g : nl.dffs()) settle(g);
}

}  // namespace vcomp::sim
