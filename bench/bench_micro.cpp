// Engineering micro-benchmarks (google-benchmark): throughput of the
// substrate engines the stitching flow leans on.  Not a paper table; used
// to keep the fault-simulation and ATPG cores honest.

#include <benchmark/benchmark.h>

#include "vcomp/atpg/podem.hpp"
#include "vcomp/fault/block_lane_sim.hpp"
#include "vcomp/fault/collapse.hpp"
#include "vcomp/fault/fault_sim.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/sim/word_sim.hpp"
#include "vcomp/tmeas/scoap.hpp"
#include "vcomp/util/rng.hpp"

using namespace vcomp;

namespace {

const netlist::Netlist& bench_netlist() {
  static const netlist::Netlist nl = netgen::generate("s1423");
  return nl;
}

const fault::CollapsedFaults& bench_faults() {
  static const fault::CollapsedFaults cf =
      fault::collapsed_fault_list(bench_netlist());
  return cf;
}

void BM_WordSimEval(benchmark::State& state) {
  const auto& nl = bench_netlist();
  sim::WordSim sim(nl);
  Rng rng(1);
  for (std::size_t i = 0; i < nl.num_inputs(); ++i)
    sim.set_input(i, rng.next());
  for (std::size_t i = 0; i < nl.num_dffs(); ++i)
    sim.set_state(i, rng.next());
  for (auto _ : state) {
    sim.eval();
    benchmark::DoNotOptimize(sim.output(0));
  }
  state.SetItemsProcessed(state.iterations() * 64);  // patterns per eval
}
BENCHMARK(BM_WordSimEval);

void BM_DiffSimFullFaultList(benchmark::State& state) {
  const auto& nl = bench_netlist();
  const auto& cf = bench_faults();
  fault::DiffSim sim(nl);
  Rng rng(2);
  for (std::size_t i = 0; i < nl.num_inputs(); ++i)
    sim.good().set_input(i, rng.next());
  for (std::size_t i = 0; i < nl.num_dffs(); ++i)
    sim.good().set_state(i, rng.next());
  sim.commit_good();
  for (auto _ : state) {
    sim::Word acc = 0;
    for (const auto& f : cf.faults()) acc |= sim.simulate(f).any();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * cf.size() * 64);
}
BENCHMARK(BM_DiffSimFullFaultList);

void BM_BlockLaneSimBatch(benchmark::State& state) {
  const auto& nl = bench_netlist();
  const auto& cf = bench_faults();
  fault::BlockLaneSim lanes(sim::EvalGraph::compile(nl));
  Rng rng(3);
  sim::Block b;
  for (auto _ : state) {
    lanes.clear();
    for (std::size_t k = 0; k < sim::kBlockLanes; ++k)
      lanes.inject(lanes.add_lane(), cf[k % cf.size()]);
    for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
      for (std::size_t k = 0; k < sim::kBlockWords; ++k) b.w[k] = rng.next();
      lanes.set_pi_block(i, b);
    }
    for (std::size_t i = 0; i < nl.num_dffs(); ++i) {
      for (std::size_t k = 0; k < sim::kBlockWords; ++k) b.w[k] = rng.next();
      lanes.set_state_block(i, b);
    }
    lanes.eval();
    benchmark::DoNotOptimize(lanes.output_block(0));
  }
  state.SetItemsProcessed(state.iterations() * sim::kBlockLanes);
}
BENCHMARK(BM_BlockLaneSimBatch);

void BM_PodemEasyFaults(benchmark::State& state) {
  const auto& nl = bench_netlist();
  const auto& cf = bench_faults();
  tmeas::Scoap scoap(nl);
  atpg::Podem podem(nl, scoap);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto res = podem.generate(cf[i % cf.size()]);
    benchmark::DoNotOptimize(res.status);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PodemEasyFaults);

void BM_ScoapFullCircuit(benchmark::State& state) {
  const auto& nl = bench_netlist();
  for (auto _ : state) {
    tmeas::Scoap sc(nl);
    benchmark::DoNotOptimize(sc.co(0));
  }
}
BENCHMARK(BM_ScoapFullCircuit);

}  // namespace

BENCHMARK_MAIN();
