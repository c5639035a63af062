// Serve daemon throughput benchmark.
//
// Measures what the vcomp_serve artifact registry buys: N identical jobs
// on the same circuit, submitted
//  * "cold"  — one fresh Server (fresh registry) per job, sequentially:
//              every job pays the full CircuitLab build (baseline ATPG,
//              graph compile, SCOAP, compact model), exactly like N
//              standalone vcomp_stitch invocations;
//  * "serve" — one Server, all N jobs concurrent: the first build is
//              shared, the other N-1 hit the content-addressed cache.
//
// On the 1-CPU CI container the speedup is pure cache sharing — the jobs
// cannot overlap compute — so the serve/cold ratio is the registry's
// figure of merit.  The canonical result row is recorded per workload and
// byte-compared by tools/check_bench.py: every job in every mode must
// produce the identical row (the serve determinism contract).
//
// Results go to $VCOMP_BENCH_JSON (default BENCH_serve.json).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "vcomp/serve/json.hpp"
#include "vcomp/serve/server.hpp"

namespace {

using namespace vcomp;
using benchutil::Stopwatch;

struct Workload {
  std::string circuit;
  std::string config_label;  // row identity key in the bench JSON
  std::string config_json;
};

struct ServeRow {
  std::string circuit, config;
  std::size_t n_jobs = 0;
  double cold_seconds = 0;
  double serve_seconds = 0;
  double speedup = 0;
  double serve_jobs_per_sec = 0;
  std::string row;  // canonical result row, identical across modes
};

/// Submits \p n copies of the workload to \p server and returns the result
/// rows (the "row" object of each result event), in completion order.
std::vector<std::string> run_batch(serve::Server& server, const Workload& w,
                                   std::size_t n) {
  std::vector<std::string> rows;
  const serve::Server::Sink sink = [&rows](const std::string& line) {
    const std::size_t pos = line.find("\"row\":");
    if (line.rfind("{\"event\":\"result\"", 0) == 0 &&
        pos != std::string::npos)
      rows.push_back(line.substr(pos + 6, line.size() - pos - 7));
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::string line = "{\"op\":\"submit\",\"id\":\"j" +
                             std::to_string(i) + "\",\"circuit\":\"" +
                             w.circuit + "\",\"config\":" + w.config_json +
                             "}";
    if (!server.handle_line(line, sink)) std::abort();
  }
  server.drain();
  return rows;
}

ServeRow bench_workload(const Workload& w, std::size_t n) {
  ServeRow row;
  row.circuit = w.circuit;
  row.config = w.config_label;
  row.n_jobs = n;

  // Cold: a fresh registry per job — every job rebuilds the artifacts.
  {
    Stopwatch sw;
    for (std::size_t i = 0; i < n; ++i) {
      serve::Server server(serve::ServeOptions{.max_active_jobs = 1});
      const auto rows = run_batch(server, w, 1);
      if (rows.size() != 1) std::abort();
      if (row.row.empty()) row.row = rows[0];
      if (rows[0] != row.row) std::abort();  // determinism violated
    }
    row.cold_seconds = sw.seconds();
  }

  // Serve: one registry, all jobs in flight — one build, n-1 cache hits.
  {
    serve::Server server(serve::ServeOptions{.max_active_jobs = n});
    Stopwatch sw;
    const auto rows = run_batch(server, w, n);
    row.serve_seconds = sw.seconds();
    if (rows.size() != n) std::abort();
    for (const std::string& r : rows)
      if (r != row.row) std::abort();  // concurrent != sequential
  }

  row.speedup = row.serve_seconds > 0
                    ? row.cold_seconds / row.serve_seconds
                    : 0;
  row.serve_jobs_per_sec =
      row.serve_seconds > 0 ? double(n) / row.serve_seconds : 0;
  return row;
}

}  // namespace

int main() {
  const std::size_t n = 4;
  const std::vector<Workload> workloads = {
      // Realistic single job: full stitched run, modest build share.
      {"gen:s444", "chains=2 seed=3", "{\"chains\":2,\"seed\":3}"},
      // Cache-dominated: capped stitched phase on a larger circuit, so
      // the artifact build dominates and sharing pays off directly.
      {"gen:s5378", "chains=4 seed=3 max_cycles=4",
       "{\"chains\":4,\"seed\":3,\"max_cycles\":4}"},
      // Exact-gated guards for the tracker's other rules: the VXor capture
      // fold, the horizontal-XOR catch rule and the PODEM-then-SAT race.
      {"gen:s1423", "capture=vxor chains=3 seed=3",
       "{\"capture\":\"vxor\",\"chains\":3,\"seed\":3}"},
      {"gen:s1423", "hxor=3 seed=3", "{\"hxor\":3,\"seed\":3}"},
      {"gen:s1423", "atpg=race seed=3", "{\"atpg\":\"race\",\"seed\":3}"},
  };

  Stopwatch total;
  std::vector<ServeRow> rows;
  std::printf("serve throughput (%zu jobs per workload, %zu threads)\n", n,
              benchutil::threads_used());
  for (const Workload& w : workloads) {
    const ServeRow r = bench_workload(w, n);
    std::printf("  %-10s %-28s cold %6.2fs  serve %6.2fs  speedup %.2fx\n",
                r.circuit.c_str(), r.config.c_str(), r.cold_seconds,
                r.serve_seconds, r.speedup);
    rows.push_back(r);
  }

  const char* env = std::getenv("VCOMP_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_serve.json";
  std::ofstream out(path);
  if (!out.good()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"serve\",\n"
      << "  \"threads\": " << benchutil::threads_used() << ",\n"
      << "  \"quick\": " << (benchutil::quick_mode() ? "true" : "false")
      << ",\n"
      << "  \"total_seconds\": " << total.seconds() << ",\n"
      << "  \"jobs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ServeRow& r = rows[i];
    std::string esc;
    serve::append_json_string(esc, r.row);
    out << "    {\"circuit\": \"" << r.circuit << "\", \"config\": \""
        << r.config << "\", \"n_jobs\": " << r.n_jobs
        << ", \"cold_seconds\": " << r.cold_seconds
        << ", \"serve_seconds\": " << r.serve_seconds
        << ", \"speedup\": " << r.speedup
        << ", \"serve_jobs_per_sec\": " << r.serve_jobs_per_sec
        << ", \"row\": " << esc << "}" << (i + 1 < rows.size() ? "," : "")
        << "\n";
  }
  out << "  ]\n}\n";
  std::printf("bench json written to %s\n", path.c_str());
  return 0;
}
