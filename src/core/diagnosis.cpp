#include "vcomp/core/diagnosis.hpp"

#include <algorithm>

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

ObservationStream simulate_device(const netlist::Netlist& nl,
                                  const StitchedSchedule& schedule,
                                  scan::CaptureMode capture,
                                  const scan::ScanOutModel& out,
                                  const Fault* fault) {
  VCOMP_REQUIRE(!schedule.vectors.empty(), "empty schedule");
  VCOMP_REQUIRE(schedule.vectors.size() == schedule.shifts.size(),
                "schedule shape mismatch");
  const std::size_t L = nl.num_dffs();
  const std::size_t npi = nl.num_inputs();
  const std::size_t npo = nl.num_outputs();

  BlockLaneSim sim(sim::EvalGraph::compile(nl));
  ObservationStream stream;
  ChainState chain(L);

  auto capture_cycle = [&](const std::vector<std::uint8_t>& pi_bits) {
    sim.clear();
    const int lane = sim.add_lane();
    for (std::size_t i = 0; i < npi; ++i) sim.set_pi_all(i, pi_bits[i] != 0);
    // Chain position == dff index (identity chain order).
    for (std::size_t p = 0; p < L; ++p)
      sim.set_state(lane, p, chain.at(p) != 0);
    if (fault != nullptr) sim.inject(lane, *fault);
    sim.eval();
    for (std::size_t o = 0; o < npo; ++o)
      stream.bits.push_back(sim.output_block(o).lane(lane) ? 1 : 0);
    std::vector<std::uint8_t> next(L);
    for (std::size_t p = 0; p < L; ++p)
      next[p] = sim.next_state_block(p).lane(lane) ? 1 : 0;
    chain.capture(next, capture);
  };

  for (std::size_t c = 0; c < schedule.vectors.size(); ++c) {
    const TestVector& v = schedule.vectors[c];
    const std::size_t s = schedule.shifts[c];
    if (c == 0) {
      // Full load: the unload of the unknown power-on state is not part of
      // the compared stream.
      std::vector<std::uint8_t> by_pos(L);
      for (std::size_t p = 0; p < L; ++p) by_pos[p] = v.ppi[p];
      chain.load(by_pos);
    } else {
      std::vector<std::uint8_t> in_bits(s);
      for (std::size_t j = 0; j < s; ++j) in_bits[j] = v.ppi[s - 1 - j];
      const auto obs = chain.shift(in_bits, out);
      stream.bits.insert(stream.bits.end(), obs.begin(), obs.end());
    }
    capture_cycle(v.pi);
  }

  // Terminal observation.
  {
    const std::vector<std::uint8_t> zeros(schedule.terminal_observe, 0);
    const auto obs = chain.shift(zeros, out);
    stream.bits.insert(stream.bits.end(), obs.begin(), obs.end());
  }

  // Appended traditional vectors: full load (unloading — observing — the
  // whole previous response) + capture, then a final full unload.
  const auto full_out = scan::ScanOutModel::direct(L);
  for (const TestVector& v : schedule.extra) {
    std::vector<std::uint8_t> in_bits(L);
    for (std::size_t j = 0; j < L; ++j) in_bits[j] = v.ppi[L - 1 - j];
    const auto obs = chain.shift(in_bits, full_out);
    stream.bits.insert(stream.bits.end(), obs.begin(), obs.end());
    capture_cycle(v.pi);
  }
  if (!schedule.extra.empty()) {
    const std::vector<std::uint8_t> zeros(L, 0);
    const auto obs = chain.shift(zeros, full_out);
    stream.bits.insert(stream.bits.end(), obs.begin(), obs.end());
  }
  return stream;
}

std::vector<DiagnosisVerdict> diagnose(const netlist::Netlist& nl,
                                       const fault::CollapsedFaults& faults,
                                       const StitchedSchedule& schedule,
                                       scan::CaptureMode capture,
                                       const scan::ScanOutModel& out,
                                       const ObservationStream& observed) {
  std::vector<DiagnosisVerdict> verdicts;
  verdicts.reserve(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const auto stream =
        simulate_device(nl, schedule, capture, out, &faults[i]);
    verdicts.push_back({i, stream.hamming(observed)});
  }
  std::stable_sort(verdicts.begin(), verdicts.end(),
                   [](const DiagnosisVerdict& a, const DiagnosisVerdict& b) {
                     return a.mismatch < b.mismatch;
                   });
  return verdicts;
}

}  // namespace vcomp::core
