// Evaluation-kernel microbenchmark: raw throughput of the compiled
// evaluation core (EvalGraph + fused kernels) that every simulator in the
// flow runs on.
//
// For a spread of circuit profiles it emits one row per *dispatch width*:
//  * word64        — WordSim::eval, the 64-lane scalar kernel;
//  * block-scalar  — a fault-free BlockLaneSim::eval, the sweep diagnosis
//    and the simulator oracles run: 512 lanes through the portable sweep;
//  * block-avx2 / block-avx512 — the same 512-lane sweep through the
//    vectorized translation units (rows appear only where the CPU + build
//    support the ISA).
// Every row reports gate_evals_per_sec (sweep gate evaluations per second)
// and lane_gate_evals_per_sec (gate evals × lane count — the
// width-comparable throughput number; the ≥4× SIMD acceptance target in
// ISSUE 6 reads this field).  The word64 row additionally carries the
// per-circuit one-offs: compile_seconds, ternary-kernel and DiffSim query
// rates.
//
// Results go to $VCOMP_BENCH_JSON (default BENCH_simkernel.json) so future
// PRs can diff eval throughput; rows are keyed (circuit, dispatch) for
// tools/check_bench.py.  See EXPERIMENTS.md for methodology.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "vcomp/fault/block_lane_sim.hpp"
#include "vcomp/fault/fault.hpp"
#include "vcomp/fault/fault_sim.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/sim/eval_graph.hpp"
#include "vcomp/sim/simd_dispatch.hpp"
#include "vcomp/sim/ternary_sim.hpp"
#include "vcomp/sim/word_sim.hpp"
#include "vcomp/util/rng.hpp"

namespace {

using namespace vcomp;
using benchutil::Stopwatch;
using sim::Word;

struct KernelRow {
  std::string circuit;
  std::string dispatch;
  std::size_t lanes = 0;
  std::size_t gates = 0;
  std::size_t sched = 0;
  double gate_evals_per_sec = 0;
  // One-off per-circuit extras, emitted on the word64 row only (negative =
  // absent from JSON).
  double compile_seconds = -1;
  double trit_evals_per_sec = -1;
  double diff_faults_per_sec = -1;
};

/// Repeats \p body (one "round" = \p per_round units) until the target
/// wall-time is hit; returns units per second.
template <typename Body>
double measure(double target_seconds, double per_round, Body&& body) {
  // Warm-up round: touches every array once before the clock starts.
  body();
  Stopwatch sw;
  std::size_t rounds = 0;
  do {
    body();
    ++rounds;
  } while (sw.seconds() < target_seconds);
  return double(rounds) * per_round / sw.seconds();
}

void bench_circuit(const netgen::CircuitProfile& profile,
                   double target_seconds, std::vector<KernelRow>& rows) {
  const netlist::Netlist nl = netgen::generate(profile);

  Stopwatch compile_sw;
  const auto eg = sim::EvalGraph::compile(nl);
  const double compile_seconds = compile_sw.seconds();
  const std::size_t sched = eg->schedule().size();

  Rng rng(7);

  KernelRow word;
  word.circuit = profile.name;
  word.dispatch = "word64";
  word.lanes = 64;
  word.gates = nl.num_gates();
  word.sched = sched;
  word.compile_seconds = compile_seconds;

  // Word kernel: full combinational sweeps over fresh random stimuli.
  {
    sim::WordSim ws(eg);
    word.gate_evals_per_sec = measure(target_seconds, double(sched), [&] {
      for (std::size_t i = 0; i < nl.num_inputs(); ++i)
        ws.set_input(i, rng.next());
      for (std::size_t i = 0; i < nl.num_dffs(); ++i)
        ws.set_state(i, rng.next());
      ws.eval();
    });
  }

  // Ternary kernel: same sweep shape over three-valued stimuli.
  {
    sim::TernarySim ts(eg);
    auto draw = [&] {
      const auto r = rng.below(3);
      return r == 0 ? sim::Trit::Zero : r == 1 ? sim::Trit::One : sim::Trit::X;
    };
    word.trit_evals_per_sec = measure(target_seconds, double(sched), [&] {
      for (std::size_t i = 0; i < nl.num_inputs(); ++i) ts.set_input(i, draw());
      for (std::size_t i = 0; i < nl.num_dffs(); ++i) ts.set_state(i, draw());
      ts.eval();
    });
  }

  // Diff fault sim: per-fault queries against one committed stimulus.
  {
    fault::DiffSim ds(eg);
    for (std::size_t i = 0; i < nl.num_inputs(); ++i)
      ds.good().set_input(i, rng.next());
    for (std::size_t i = 0; i < nl.num_dffs(); ++i)
      ds.good().set_state(i, rng.next());
    ds.commit_good();
    const auto faults = fault::full_fault_universe(nl);
    volatile Word sink = 0;
    word.diff_faults_per_sec =
        measure(target_seconds, double(faults.size()), [&] {
          Word acc = 0;
          for (const auto& f : faults) acc ^= ds.simulate(f).any();
          sink = sink ^ acc;
        });
  }
  rows.push_back(word);

  // Block kernel, once per available dispatch mode: same sweep, 512 lanes.
  for (sim::SimdMode mode :
       {sim::SimdMode::Scalar, sim::SimdMode::Avx2, sim::SimdMode::Avx512}) {
    if (!sim::simd_available(mode)) continue;
    KernelRow row;
    row.circuit = profile.name;
    row.dispatch = std::string("block-").append(sim::to_string(mode));
    row.lanes = sim::kBlockLanes;
    row.gates = nl.num_gates();
    row.sched = sched;
    fault::BlockLaneSim bs(eg, mode);
    row.gate_evals_per_sec = measure(target_seconds, double(sched), [&] {
      sim::Block b;
      for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
        for (std::size_t k = 0; k < sim::kBlockWords; ++k) b.w[k] = rng.next();
        bs.set_pi_block(i, b);
      }
      for (std::size_t i = 0; i < nl.num_dffs(); ++i)
        for (std::size_t k = 0; k < sim::kBlockWords; ++k)
          bs.set_state_word(i, k, rng.next());
      bs.eval();
    });
    rows.push_back(row);
  }
}

std::string write_json(const std::vector<KernelRow>& rows) {
  const char* env = std::getenv("VCOMP_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_simkernel.json";
  std::ofstream out(path);
  if (!out.good()) return {};
  out << "{\n"
      << "  \"bench\": \"sim_kernel\",\n"
      << "  \"threads\": " << benchutil::threads_used() << ",\n"
      << "  \"quick\": " << (benchutil::quick_mode() ? "true" : "false")
      << ",\n"
      << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& r = rows[i];
    out << "    {\"circuit\": \"" << r.circuit << "\", \"dispatch\": \""
        << r.dispatch << "\", \"lanes\": " << r.lanes
        << ", \"gates\": " << r.gates << ", \"sched\": " << r.sched
        << ", \"gate_evals_per_sec\": " << r.gate_evals_per_sec
        << ", \"lane_gate_evals_per_sec\": "
        << r.gate_evals_per_sec * double(r.lanes);
    if (r.compile_seconds >= 0)
      out << ", \"compile_seconds\": " << r.compile_seconds;
    if (r.trit_evals_per_sec >= 0)
      out << ", \"trit_evals_per_sec\": " << r.trit_evals_per_sec;
    if (r.diff_faults_per_sec >= 0)
      out << ", \"diff_faults_per_sec\": " << r.diff_faults_per_sec;
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return path;
}

}  // namespace

int main() {
  const bool quick = benchutil::quick_mode();
  const double target = quick ? 0.05 : 0.25;

  std::vector<std::string> names = {"s444", "s526", "s1423"};
  if (!quick) {
    names.push_back("s5378");
    names.push_back("s13207");
  }

  std::vector<KernelRow> rows;
  for (const auto& name : names)
    bench_circuit(netgen::profile(name), target, rows);

  std::printf("%-10s %-14s %6s %10s %14s %14s\n", "circuit", "dispatch",
              "lanes", "sched", "Mgate-ev/s", "Glane-ev/s");
  for (const KernelRow& r : rows)
    std::printf("%-10s %-14s %6zu %10zu %14.1f %14.2f\n", r.circuit.c_str(),
                r.dispatch.c_str(), r.lanes, r.sched,
                r.gate_evals_per_sec / 1e6,
                r.gate_evals_per_sec * double(r.lanes) / 1e9);

  const std::string path = write_json(rows);
  if (!path.empty()) std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
