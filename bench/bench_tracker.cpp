// Stitched-cycle tracker throughput benchmark.
//
// Drives a StitchTracker through a scripted random stitched walk (the same
// shape as tests/core/tracker_test.cpp, minus the assertions) and reports
// the tracker's per-phase profile:
//  * classify_faults_per_sec — uncaught faults classified per second;
//  * advance_lanes_per_sec   — hidden faults advanced per second;
//  * shift_seconds           — scan-shift + hidden-fault catch time;
//  * cycles, seconds         — walk length and total tracker wall time;
//  * counters                — the obs registry's counters of the walk
//                              (obs::scoped_counters), exact and
//                              thread-invariant.
//
// The walk is ATPG-free, so these numbers isolate the tracker pipeline
// (the system's hottest loop) from PODEM and scoring.  Results go to
// $VCOMP_BENCH_JSON (default BENCH_tracker.json); see EXPERIMENTS.md.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "vcomp/atpg/test_set.hpp"
#include "vcomp/core/tracker.hpp"
#include "vcomp/fault/collapse.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/scan/scan_chain.hpp"
#include "vcomp/util/rng.hpp"

namespace {

using namespace vcomp;
using benchutil::Stopwatch;

struct TrackerRow {
  std::string circuit;
  std::size_t gates = 0;
  std::size_t chain = 0;
  std::size_t faults = 0;
  std::size_t cycles = 0;
  double seconds = 0;  // total tracker wall time over the walk
  double classify_faults_per_sec = 0;
  double advance_lanes_per_sec = 0;
  double shift_seconds = 0;
  obs::CounterSet counters;  // the walk's registry counters
};

TrackerRow bench_circuit(const netgen::CircuitProfile& profile,
                         std::size_t cycles) {
  const netlist::Netlist nl = netgen::generate(profile);
  const auto cf = fault::collapsed_fault_list(nl);
  const std::size_t L = nl.num_dffs();

  TrackerRow row;
  row.circuit = profile.name;
  row.gates = nl.num_gates();
  row.chain = L;
  row.faults = cf.size();
  row.cycles = cycles;

  core::StitchTracker tracker(nl, cf, scan::CaptureMode::Normal,
                              scan::ScanOutModel::direct(L));
  Rng rng(97);

  auto random_vector = [&](std::size_t s) {
    atpg::TestVector v;
    v.pi.resize(nl.num_inputs());
    for (auto& b : v.pi) b = rng.bit();
    v.ppi.resize(L);
    // One identity-ordered chain: position p holds flip-flop p.
    for (std::size_t p = 0; p < L; ++p)
      v.ppi[p] = (s < L && p >= s) ? tracker.chain().at(p - s)
                                   : static_cast<std::uint8_t>(rng.bit());
    return v;
  };

  row.counters = obs::scoped_counters([&] {
    const Stopwatch sw;
    tracker.apply_first(random_vector(L));
    // Small shifts keep the hidden set populated (big shifts flush it), so
    // the advance phase stays busy for the whole walk.
    const std::size_t max_s = L < 8 ? L : L / 4;
    for (std::size_t c = 1; c < cycles; ++c) {
      const std::size_t s = 1 + rng.below(max_s);
      tracker.apply_stitched(random_vector(s), s);
    }
    row.seconds = sw.seconds();
  });

  const core::PhaseProfile& p = tracker.profile();
  if (p.classify_seconds > 0)
    row.classify_faults_per_sec =
        double(p.faults_classified) / p.classify_seconds;
  if (p.advance_seconds > 0)
    row.advance_lanes_per_sec = double(p.hidden_advanced) / p.advance_seconds;
  row.shift_seconds = p.shift_seconds;
  return row;
}

std::string write_json(const std::vector<TrackerRow>& rows) {
  const char* env = std::getenv("VCOMP_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_tracker.json";
  std::ofstream out(path);
  if (!out.good()) return {};
  out << "{\n"
      << "  \"bench\": \"tracker\",\n"
      << "  \"threads\": " << benchutil::threads_used() << ",\n"
      << "  \"quick\": " << (benchutil::quick_mode() ? "true" : "false")
      << ",\n"
      << "  \"circuits\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TrackerRow& r = rows[i];
    out << "    {\"circuit\": \"" << r.circuit << "\", \"gates\": " << r.gates
        << ", \"chain\": " << r.chain << ", \"faults\": " << r.faults
        << ", \"cycles\": " << r.cycles << ", \"seconds\": " << r.seconds
        << ", \"classify_faults_per_sec\": " << r.classify_faults_per_sec
        << ", \"advance_lanes_per_sec\": " << r.advance_lanes_per_sec
        << ", \"shift_seconds\": " << r.shift_seconds << ", \"counters\": {";
    for (std::size_t c = 0; c < r.counters.values.size(); ++c)
      out << (c > 0 ? ", " : "") << "\"" << r.counters.values[c].first
          << "\": " << r.counters.values[c].second;
    out << "}}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return path;
}

}  // namespace

int main() {
  const bool quick = benchutil::quick_mode();
  const std::size_t cycles = quick ? 60 : 240;

  std::vector<netgen::CircuitProfile> profiles = {
      netgen::profile("s444"), netgen::profile("s526"),
      netgen::profile("s1423")};
  // s38417's 1,636 cells make its shift_seconds the scan layer's gate.
  if (!quick)
    for (const char* name : {"s5378", "s38417"})
      profiles.push_back(netgen::profile(name));
  profiles = benchutil::filter_circuits(std::move(profiles));

  std::vector<TrackerRow> rows;
  std::printf("%-10s %8s %6s %8s %8s %14s %14s %10s\n", "circuit", "gates",
              "chain", "faults", "cycles", "Mclassify/s", "Madvance/s",
              "seconds");
  for (const auto& profile : profiles) {
    rows.push_back(bench_circuit(profile, cycles));
    const TrackerRow& r = rows.back();
    std::printf("%-10s %8zu %6zu %8zu %8zu %14.2f %14.2f %10.3f\n",
                r.circuit.c_str(), r.gates, r.chain, r.faults, r.cycles,
                r.classify_faults_per_sec / 1e6, r.advance_lanes_per_sec / 1e6,
                r.seconds);
  }

  const std::string path = write_json(rows);
  if (!path.empty()) std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
