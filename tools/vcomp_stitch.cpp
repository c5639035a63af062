// vcomp_stitch — command-line front end for the stitching flow.
//
// Reads a netlist (.bench, structural Verilog .v / .sv, or gen:<profile>
// for a synthesized netgen circuit), generates the full-shift baseline and
// a stitched test program, reports the compression, and optionally writes
// the test program in the schedule text format (see schedule_io.hpp).
//
// `--help` lists the options.  The job options are the key table of
// serve/job.hpp, the vcomp_serve "config" grammar, and the job runs
// through the daemon's serve::run_spec, so `--row` writes its row.
// Exit code: 0 iff coverage is fully preserved, 1 if it is not, 2 on bad
// input (one "error: …" line on stderr) or any other failure.

#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "vcomp/core/schedule_io.hpp"
#include "vcomp/obs/obs.hpp"
#include "vcomp/serve/job.hpp"
#include "vcomp/serve/protocol.hpp"
#include "vcomp/util/assert.hpp"
#include "vcomp/util/parallel.hpp"

using namespace vcomp;

namespace {

void usage(std::FILE* to) {
  std::fprintf(to, "usage: vcomp_stitch <netlist.bench|.v|.sv|gen:profile> "
                   "[options]\n\njob options (vcomp_serve \"config\" keys, "
                   "'_' written '-'):\n%s",
               serve::job_flags_usage().c_str());
  std::fprintf(to, "\noutput options:\n"
                   "  --out f                write the test program\n"
                   "  --row f                write the result row (-: stdout)\n"
                   "  --metrics f            write the obs metrics snapshot\n"
                   "  --trace f              write Chrome-trace JSON\n"
                   "  --profile              print the per-phase wall times\n"
                   "  --threads n            worker threads\n");
}

/// Writes \p path (if set) through \p body, then reports it as \p what.
void write_out(const std::string& path, const char* what,
               const std::function<void(std::ostream&)>& body) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out.good()) throw InputError("cannot write " + path);
  body(out);
  if (what != nullptr) std::printf("%s written to %s\n", what, path.c_str());
}

void print_profile(const core::PhaseProfile& p) {
  std::printf("phase profile (wall seconds):\n");
  std::printf("  podem     %9.3f\n", p.podem_seconds);
  std::printf("  scoring   %9.3f\n", p.scoring_seconds);
  std::printf("  shift     %9.3f\n", p.shift_seconds);
  if (p.classify_seconds > 0)
    std::printf("  classify  %9.3f  (%zu faults, %.0f/s)\n",
                p.classify_seconds, p.faults_classified,
                double(p.faults_classified) / p.classify_seconds);
  else
    std::printf("  classify  %9.3f  (%zu faults)\n", p.classify_seconds,
                p.faults_classified);
  if (p.advance_seconds > 0)
    std::printf("  advance   %9.3f  (%zu lanes, %.0f/s)\n", p.advance_seconds,
                p.hidden_advanced,
                double(p.hidden_advanced) / p.advance_seconds);
  else
    std::printf("  advance   %9.3f  (%zu lanes)\n", p.advance_seconds,
                p.hidden_advanced);
  std::printf("  terminal  %9.3f\n", p.terminal_seconds);
  std::printf("  total     %9.3f\n", p.total_seconds);
}

int run(const std::vector<std::string>& args) {
  serve::JobSpec spec;
  std::string out_path, row_path, metrics_path, trace_path;
  bool profile = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      usage(stdout);
      return 0;
    }
    if (serve::apply_job_flag(args, i, spec)) continue;
    auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw InputError("missing value for " + a);
      return args[++i];
    };
    if (a == "--out") out_path = value();
    else if (a == "--row") row_path = value();
    else if (a == "--metrics") metrics_path = value();
    else if (a == "--trace") trace_path = value();
    else if (a == "--profile") profile = true;
    else if (a == "--threads")
      util::ThreadPool::instance().configure(
          serve::parse_flag_number<std::size_t>(a, value()));
    else if (a.rfind('-', 0) != 0 && spec.circuit.empty()) {
      spec.circuit = a;
    } else {
      throw InputError("unknown option: " + a + " (see --help)");
    }
  }
  if (spec.circuit.empty()) {
    usage(stderr);
    return 2;
  }
  if (!trace_path.empty()) obs::set_trace_enabled(true);

  netlist::Netlist nl = serve::load_circuit(spec.circuit, spec.full_scale);
  serve::checked_options(nl, spec);  // bad sizes fail before baseline ATPG
  std::printf("netlist: %zu PIs, %zu POs, %zu scan cells, %zu gates  "
              "(%zu threads)\n",
              nl.num_inputs(), nl.num_outputs(), nl.num_dffs(),
              nl.num_comb_gates(), util::parallelism());
  if (spec.options.num_chains > 1)
    std::printf("fabric: %zu chains, %s partition\n", spec.options.num_chains,
                scan::to_string(spec.options.partition));
  const auto engine_kind = atpg::resolve_engine_kind(spec.options.atpg_engine);
  if (engine_kind != atpg::EngineKind::Podem)
    std::printf("atpg engine: %s\n", atpg::to_string(engine_kind));
  const core::CircuitLab lab(
      serve::circuit_label(spec.circuit, spec.full_scale), std::move(nl));
  const auto& base = lab.baseline();
  std::printf("baseline: %zu vectors, %.1f%% coverage (%zu redundant, "
              "%zu aborted)\n",
              lab.atv(), 100.0 * base.coverage(), base.num_redundant,
              base.num_aborted);

  const serve::JobRun job =
      serve::run_spec(lab, spec, [](const std::string& event) {
        std::fprintf(stderr, "%s\n", event.c_str());
      });
  const core::StitchResult& r = job.result;
  if (job.ga) {
    std::printf("ga: %zu generations, %zu evals, best quick m=%.3f "
                "t=%.3f\nga schedule:",
                job.ga->generations, job.ga->evals, job.ga->fitness_m,
                job.ga->fitness_t);
    for (const std::size_t s : job.ga->schedule) std::printf(" %zu", s);
    std::printf("\n");
  }
  std::printf("stitched: TV=%zu ex=%zu  t=%.3f m=%.3f  coverage %s\n",
              r.vectors_applied, r.extra_full_vectors, r.time_ratio,
              r.memory_ratio, r.uncovered == 0 ? "preserved" : "LOST");
  if (profile) print_profile(r.profile);

  if (row_path == "-") std::printf("%s\n", job.row.c_str());
  else write_out(row_path, nullptr, [&](auto& o) { o << job.row << '\n'; });
  write_out(out_path, "test program",
            [&](auto& o) { core::write_schedule(o, r.schedule); });
  write_out(metrics_path, "metrics", [](auto& o) {
    obs::Registry::instance().snapshot().write_json(o);
    o << '\n';
  });
  write_out(trace_path, "trace", [](auto& o) { obs::write_chrome_trace(o); });
  return r.uncovered == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
