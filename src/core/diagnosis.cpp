#include "vcomp/core/diagnosis.hpp"

#include <algorithm>
#include <span>

#include "vcomp/fault/block_lane_sim.hpp"
#include "vcomp/util/assert.hpp"

namespace vcomp::core {

using atpg::TestVector;
using fault::Fault;
using fault::BlockLaneSim;
using scan::ChainState;

std::size_t ObservationStream::hamming(const ObservationStream& other) const {
  VCOMP_REQUIRE(bits.size() == other.bits.size(),
                "observation streams must have equal length");
  std::size_t d = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) d += bits[i] != other.bits[i];
  return d;
}

namespace {

/// The streams of up to kBlockLanes devices under one schedule: lane k of
/// one BlockLaneSim is the device whose defect is faults[k] (nullptr =
/// fault-free), with its own chain content, so each capture is one sweep
/// for the whole batch.
std::vector<ObservationStream> simulate_devices(
    const sim::EvalGraph::Ref& graph, const StitchedSchedule& schedule,
    scan::CaptureMode capture, const scan::ScanOutModel& out,
    std::span<const Fault* const> faults) {
  VCOMP_REQUIRE(!schedule.vectors.empty(), "empty schedule");
  VCOMP_REQUIRE(schedule.vectors.size() == schedule.shifts.size(),
                "schedule shape mismatch");
  const std::size_t L = graph->num_dffs();
  const std::size_t npi = graph->num_inputs();
  const std::size_t npo = graph->num_outputs();
  const std::size_t lanes = faults.size();

  BlockLaneSim sim(graph);
  for (const Fault* f : faults) {
    const int lane = sim.add_lane();
    if (f != nullptr) sim.inject(lane, *f);
  }
  std::vector<ObservationStream> streams(lanes);
  std::vector<ChainState> chains(lanes, ChainState(L));
  std::vector<std::uint8_t> next(L);
  std::vector<sim::Block> next_blocks(L);

  auto capture_cycle = [&](const std::vector<std::uint8_t>& pi_bits) {
    for (std::size_t i = 0; i < npi; ++i) sim.set_pi_all(i, pi_bits[i] != 0);
    // Chain position == dff index (identity chain order).
    for (std::size_t p = 0; p < L; ++p) {
      sim::Block b = sim::Block::zero();
      for (std::size_t k = 0; k < lanes; ++k)
        b.set_lane(k, chains[k].at(p) != 0);
      sim.set_state_block(p, b);
    }
    sim.eval();
    for (std::size_t k = 0; k < lanes; ++k) {
      for (std::size_t o = 0; o < npo; ++o)
        streams[k].bits.push_back(sim.output_block(o).lane(k) ? 1 : 0);
    }
    for (std::size_t p = 0; p < L; ++p)
      next_blocks[p] = sim.next_state_block(p);
    for (std::size_t k = 0; k < lanes; ++k) {
      for (std::size_t p = 0; p < L; ++p)
        next[p] = next_blocks[p].lane(k) ? 1 : 0;
      chains[k].capture(next, capture);
    }
  };
  auto shift_all = [&](std::span<const std::uint8_t> in_bits,
                       const scan::ScanOutModel& model) {
    for (std::size_t k = 0; k < lanes; ++k) {
      const auto obs = chains[k].shift(in_bits, model);
      streams[k].bits.insert(streams[k].bits.end(), obs.begin(), obs.end());
    }
  };

  for (std::size_t c = 0; c < schedule.vectors.size(); ++c) {
    const TestVector& v = schedule.vectors[c];
    const std::size_t s = schedule.shifts[c];
    if (c == 0) {
      // Full load: the unload of the unknown power-on state is not part of
      // the compared stream.
      for (ChainState& chain : chains) chain.load(v.ppi);
    } else {
      std::vector<std::uint8_t> in_bits(s);
      for (std::size_t j = 0; j < s; ++j) in_bits[j] = v.ppi[s - 1 - j];
      shift_all(in_bits, out);
    }
    capture_cycle(v.pi);
  }

  // Terminal observation.
  shift_all(std::vector<std::uint8_t>(schedule.terminal_observe, 0), out);

  // Appended traditional vectors: full load (unloading — observing — the
  // whole previous response) + capture, then a final full unload.
  const auto full_out = scan::ScanOutModel::direct(L);
  for (const TestVector& v : schedule.extra) {
    std::vector<std::uint8_t> in_bits(L);
    for (std::size_t j = 0; j < L; ++j) in_bits[j] = v.ppi[L - 1 - j];
    shift_all(in_bits, full_out);
    capture_cycle(v.pi);
  }
  if (!schedule.extra.empty())
    shift_all(std::vector<std::uint8_t>(L, 0), full_out);
  return streams;
}

}  // namespace

ObservationStream simulate_device(const netlist::Netlist& nl,
                                  const StitchedSchedule& schedule,
                                  scan::CaptureMode capture,
                                  const scan::ScanOutModel& out,
                                  const Fault* fault) {
  return std::move(simulate_devices(sim::EvalGraph::compile(nl), schedule,
                                    capture, out, {&fault, 1})[0]);
}

std::vector<DiagnosisVerdict> diagnose(const netlist::Netlist& nl,
                                       const fault::CollapsedFaults& faults,
                                       const StitchedSchedule& schedule,
                                       scan::CaptureMode capture,
                                       const scan::ScanOutModel& out,
                                       const ObservationStream& observed) {
  // One compiled graph for every candidate, kBlockLanes candidate devices
  // per sweep.
  const auto graph = sim::EvalGraph::compile(nl);
  std::vector<DiagnosisVerdict> verdicts;
  verdicts.reserve(faults.size());
  std::vector<const Fault*> batch;
  for (std::size_t base = 0; base < faults.size(); base += sim::kBlockLanes) {
    batch.clear();
    for (std::size_t i = base;
         i < std::min(faults.size(), base + sim::kBlockLanes); ++i)
      batch.push_back(&faults[i]);
    const auto streams =
        simulate_devices(graph, schedule, capture, out, batch);
    for (std::size_t k = 0; k < batch.size(); ++k)
      verdicts.push_back({base + k, streams[k].hamming(observed)});
  }
  std::stable_sort(verdicts.begin(), verdicts.end(),
                   [](const DiagnosisVerdict& a, const DiagnosisVerdict& b) {
                     return a.mismatch < b.mismatch;
                   });
  return verdicts;
}

}  // namespace vcomp::core
