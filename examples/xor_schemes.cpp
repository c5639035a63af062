// Figures 3 & 4: the vertical-XOR and horizontal-XOR observability aids,
// demonstrated at the bit level and then measured on a benchmark.
//
// Vertical XOR (Figure 3): capture writes response ⊕ current-content into
// each cell, so a hidden fault's chain difference keeps folding into later
// state instead of being overwritten.
//
// Horizontal XOR (Figure 4): the scan-out pin reads the XOR of several
// evenly spaced taps, so a difference deep in the chain reaches the ATE
// within a few shift cycles.
//
// Run:  ./xor_schemes

#include <cstdio>

#include "vcomp/core/experiment.hpp"
#include "vcomp/report/table.hpp"
#include "vcomp/scan/fabric.hpp"

using namespace vcomp;

namespace {

std::string bits_str(const std::vector<std::uint8_t>& b) {
  std::string s;
  for (auto x : b) s += char('0' + x);
  return s;
}

}  // namespace

int main() {
  // ---- Figure 3 mechanics ----------------------------------------------
  std::printf("Vertical XOR capture (Figure 3):\n");
  scan::ChainState plain{std::vector<std::uint8_t>{1, 1, 0}};
  scan::ChainState vxor = plain;
  const std::vector<std::uint8_t> response{0, 1, 1};
  plain.capture(response, scan::CaptureMode::Normal);
  vxor.capture(response, scan::CaptureMode::VXor);
  std::printf("  chain 110, response 011\n");
  std::printf("  normal capture -> %s\n", bits_str(plain.bits()).c_str());
  std::printf("  VXOR capture   -> %s (response folded into content)\n\n",
              bits_str(vxor.bits()).c_str());

  // ---- Figure 4 mechanics ----------------------------------------------
  std::printf("Horizontal XOR scan-out (Figure 4, 6 cells, 3 taps):\n");
  const auto hx = scan::ScanOutModel::hxor(6, 3);
  scan::ChainState chain{std::vector<std::uint8_t>{1, 0, 1, 1, 0, 1}};
  const auto observed =
      chain.shift(std::vector<std::uint8_t>{0, 0}, hx);
  std::printf("  cells a..f = 101101; two shift cycles observe:\n");
  std::printf("  cycle 1: b^d^f = %d,  cycle 2: a^c^e = %d\n\n",
              observed[0], observed[1]);

  // A deep difference is visible immediately under HXOR, invisible under
  // direct observation.
  const scan::FabricState good({scan::ChainState{6}});
  const scan::FabricDiff at_b = {1};  // the faulty machine differs at b
  const auto sees = [&](const scan::ScanOutModel& m) {
    return scan::observes_difference(at_b, good, {1}, {{m}}) ? "yes" : "no";
  };
  std::printf("  difference at cell b, one observation cycle:\n");
  std::printf("    direct scan-out sees it: %s\n",
              sees(scan::ScanOutModel::direct(6)));
  std::printf("    HXOR scan-out sees it:   %s\n\n", sees(hx));

  // ---- Measured effect on a benchmark (Table-3 style) -------------------
  std::printf("Measured on the s526 profile (variable shift, most-faults):\n");
  core::CircuitLab lab(netgen::profile("s526"));
  report::Table t({"scheme", "TV", "ex", "m", "t"});
  struct Cfg {
    const char* name;
    scan::CaptureMode cap;
    std::size_t taps;
  };
  for (const Cfg cfg : {Cfg{"NXOR", scan::CaptureMode::Normal, 0},
                        Cfg{"VXOR", scan::CaptureMode::VXor, 0},
                        Cfg{"HXOR", scan::CaptureMode::Normal, 4}}) {
    core::StitchOptions opts;
    opts.capture = cfg.cap;
    opts.hxor_taps = cfg.taps;
    const auto r = lab.run(opts);
    t.add_row({cfg.name, report::Table::num(r.vectors_applied),
               report::Table::num(r.extra_full_vectors),
               report::Table::ratio(r.memory_ratio),
               report::Table::ratio(r.time_ratio)});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}
