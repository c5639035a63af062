// Figure 1 / Table 1: the paper's worked example.
//
// Replays the four stitched test vectors on the reconstructed three-gate
// circuit and regenerates Table 1 — every fault's (test vector, response)
// trajectory, with hidden faults and catch events — plus the headline
// numbers of Section 3: 11 vs 15 shift cycles and 17 vs 24 tester bits.

#include <cstdio>
#include <map>
#include <string>

#include "bench_util.hpp"
#include "vcomp/core/tracker.hpp"
#include "vcomp/fault/block_lane_sim.hpp"
#include "vcomp/netgen/example_circuit.hpp"

using namespace vcomp;

namespace {

std::string bits_str(const std::vector<std::uint8_t>& b) {
  std::string s;
  for (auto x : b) s += char('0' + x);
  return s;
}

}  // namespace

int main() {
  auto nl = netgen::example_circuit();
  auto cf = fault::collapsed_fault_list(nl);
  const auto tvs = netgen::example_test_vectors();

  std::printf("=== Table 1: fault behaviour through four stitched cycles "
              "===\n\n");

  // Per-fault per-cycle (TV, RP) rows, tracked with one private machine per
  // fault — exactly the bookkeeping the paper tabulates.
  core::StitchTracker tracker(nl, cf, scan::CaptureMode::Normal,
                              scan::ScanOutModel::direct(3));
  // Private replica per fault for printing TV_f / RP_f like the paper.
  std::map<std::size_t, scan::ChainState> machines;
  for (std::size_t i = 0; i < cf.size(); ++i)
    machines.emplace(i, scan::ChainState(3));

  report::Table table({"fault", "cyc1 TV", "RP", "cyc2 TV", "RP", "cyc3 TV",
                       "RP", "cyc4 TV", "RP", "caught"});
  std::vector<std::vector<std::string>> cells(
      cf.size(), std::vector<std::string>(9, ""));

  fault::BlockLaneSim lanes(sim::EvalGraph::compile(nl));
  scan::ChainState good_chain(3);
  std::vector<std::size_t> caught_at(cf.size(), 0);

  for (std::size_t c = 0; c < tvs.size(); ++c) {
    atpg::TestVector v;
    v.ppi = tvs[c];
    // Advance the shared tracker (authoritative catch bookkeeping).
    if (c == 0)
      tracker.apply_first(v);
    else
      tracker.apply_stitched(v, 2);

    // Advance the printing replicas.
    const std::vector<std::uint8_t> in_bits =
        c == 0 ? std::vector<std::uint8_t>{}
               : std::vector<std::uint8_t>{tvs[c][1], tvs[c][0]};
    if (c == 0)
      good_chain.load(tvs[c]);
    else
      good_chain.shift(in_bits, scan::ScanOutModel::direct(3));

    for (std::size_t i = 0; i < cf.size(); ++i) {
      if (caught_at[i] != 0) continue;
      auto& m = machines.at(i);
      if (c == 0)
        m.load(tvs[c]);
      else
        m.shift(in_bits, scan::ScanOutModel::direct(3));
      const std::string tv_f = bits_str(m.bits());

      lanes.clear();
      const int lane = lanes.add_lane();
      for (std::size_t p = 0; p < 3; ++p)
        lanes.set_state(lane, p, m.at(p) != 0);
      lanes.inject(lane, cf[i]);
      lanes.eval();
      std::vector<std::uint8_t> rp(3);
      for (std::size_t p = 0; p < 3; ++p)
        rp[p] = lanes.next_state_block(p).lane(lane) ? 1 : 0;
      m.capture(rp, scan::CaptureMode::Normal);

      cells[i][1 + 2 * c - 1] = tv_f;
      cells[i][1 + 2 * c] = bits_str(rp);
      if (tracker.sets().state(i) == core::FaultState::Caught)
        caught_at[i] = tracker.sets().catch_cycle(i);
    }
    // Good machine capture for the next cycle's replica shifts.
    lanes.clear();
    const int lane = lanes.add_lane();
    for (std::size_t p = 0; p < 3; ++p)
      lanes.set_state(lane, p, good_chain.at(p) != 0);
    lanes.eval();
    std::vector<std::uint8_t> rp(3);
    for (std::size_t p = 0; p < 3; ++p)
      rp[p] = lanes.next_state_block(p).lane(lane) ? 1 : 0;
    good_chain.capture(rp, scan::CaptureMode::Normal);
  }
  tracker.terminal_observe(2);

  for (std::size_t i = 0; i < cf.size(); ++i) {
    std::vector<std::string> row{fault_name(nl, cf[i])};
    for (int k = 0; k < 8; ++k) row.push_back(cells[i][k]);
    const auto st = tracker.sets().state(i);
    row.push_back(st == core::FaultState::Caught
                      ? "cycle " + std::to_string(tracker.sets()
                                                      .catch_cycle(i))
                      : "never (redundant)");
    table.add_row(row);
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("caught %zu of 17 detectable faults (E-F/1 redundant)\n\n",
              tracker.sets().num_caught());

  // Section 3 headline numbers.
  scan::CostMeter meter(0, 0, 3);
  meter.initial_load();
  for (int i = 0; i < 3; ++i) meter.stitched_cycle(2);
  meter.final_observe(2);
  const auto full = scan::CostMeter::full_scan(0, 0, 3, 4);
  std::printf("=== Section 3 cost comparison ===\n");
  std::printf("full shifting : %llu cycles, %llu bits\n",
              (unsigned long long)full.shift_cycles,
              (unsigned long long)full.memory_bits());
  std::printf("stitched      : %llu cycles, %llu bits   (paper: 11 / 17)\n",
              (unsigned long long)meter.cost().shift_cycles,
              (unsigned long long)meter.cost().memory_bits());
  return 0;
}
