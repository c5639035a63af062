#include "vcomp/core/selection.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "vcomp/fault/fault_sim.hpp"
#include "vcomp/obs/obs.hpp"
#include "vcomp/util/assert.hpp"

namespace vcomp::core {

std::string to_string(SelectionPolicy p) {
  switch (p) {
    case SelectionPolicy::Random: return "random";
    case SelectionPolicy::Hardness: return "hardness";
    case SelectionPolicy::MostFaults: return "most-faults";
    case SelectionPolicy::Adi: return "adi";
  }
  return "?";
}

std::vector<std::uint32_t> adi_counts(
    const sim::EvalGraph::Ref& graph, const std::vector<fault::Fault>& faults,
    const std::vector<atpg::TestVector>& vectors) {
  VCOMP_REQUIRE(graph != nullptr, "adi_counts requires a compiled graph");
  std::vector<std::uint32_t> counts(faults.size(), 0);
  if (faults.empty() || vectors.empty()) return counts;
  const netlist::Netlist& nl = graph->netlist();
  const std::size_t npi = nl.num_inputs();
  const std::size_t nff = nl.num_dffs();

  // One region call per 64 vectors over every fault; the totals are
  // pure functions of the fault index.
  fault::DiffSim sim(graph);
  for (std::size_t base = 0; base < vectors.size(); base += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, vectors.size() - base);
    for (std::size_t i = 0; i < npi; ++i) {
      sim::Word w = 0;
      for (std::size_t k = 0; k < lanes; ++k)
        if (vectors[base + k].pi[i]) w |= sim::Word{1} << k;
      sim.good().set_input(i, w);
    }
    for (std::size_t i = 0; i < nff; ++i) {
      sim::Word w = 0;
      for (std::size_t k = 0; k < lanes; ++k)
        if (vectors[base + k].ppi[i]) w |= sim::Word{1} << k;
      sim.good().set_state(i, w);
    }
    sim.commit_good();
    const sim::Word active =
        lanes == 64 ? ~sim::Word{0} : ((sim::Word{1} << lanes) - 1);
    sim.simulate_regions(
        std::span<const fault::Fault>(faults),
        [&](std::size_t i, const fault::DiffSim::Effect& eff) {
          counts[i] +=
              static_cast<std::uint32_t>(std::popcount(eff.any() & active));
        });
  }
  return counts;
}

std::vector<std::size_t> adi_order(const std::vector<std::uint32_t>& counts,
                                   std::size_t* ties_broken) {
  std::vector<std::size_t> order(counts.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return counts[a] < counts[b];
                   });
  std::size_t ties = 0;
  for (std::size_t k = 1; k < order.size(); ++k)
    if (counts[order[k]] == counts[order[k - 1]]) ++ties;
  static const obs::Counter tie_counter = obs::counter("adi.ties_broken");
  tie_counter.add(ties);
  if (ties_broken != nullptr) *ties_broken = ties;
  return order;
}

std::vector<std::size_t> target_order(
    SelectionPolicy policy, const sim::EvalGraph::Ref& graph,
    const std::vector<fault::Fault>& faults,
    const tmeas::HardnessOptions& hardness, Rng& rng,
    const std::vector<atpg::TestVector>* baseline_vectors) {
  switch (policy) {
    case SelectionPolicy::Random: {
      std::vector<std::size_t> order(faults.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      rng.shuffle(order);
      return order;
    }
    case SelectionPolicy::Hardness:
      return tmeas::hardness_order(graph, faults, hardness);
    case SelectionPolicy::MostFaults: {
      // Natural order; the greedy candidate scoring does the real work.
      std::vector<std::size_t> order(faults.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      return order;
    }
    case SelectionPolicy::Adi: {
      VCOMP_REQUIRE(baseline_vectors != nullptr,
                    "adi selection requires the baseline vector set");
      return adi_order(adi_counts(graph, faults, *baseline_vectors));
    }
  }
  return {};
}

std::vector<std::size_t> target_order(
    SelectionPolicy policy, const netlist::Netlist& nl,
    const std::vector<fault::Fault>& faults,
    const tmeas::HardnessOptions& hardness, Rng& rng,
    const std::vector<atpg::TestVector>* baseline_vectors) {
  if (policy == SelectionPolicy::Hardness || policy == SelectionPolicy::Adi)
    return target_order(policy, sim::EvalGraph::compile(nl), faults, hardness,
                        rng, baseline_vectors);
  sim::EvalGraph::Ref none;
  return target_order(policy, none, faults, hardness, rng, baseline_vectors);
}

}  // namespace vcomp::core
