// serve-mix: one in-process serve::Server driven as a closed loop.
//
// Daemon callers wait for their rows, so each of kClients clients submits
// its next job only after the previous one's result event.  The jobs run
// on seven generated circuits written as .bench files, with the artifact
// registry prewarmed, and mix shifts, chain counts, ATPG engines,
// selection policies and job seeds.  Every job runs twice, and the two
// rows must match byte for byte.  This is the only workload that drives
// the serve, registry, .bench-parsing and thread-pool layers, and it uses
// the SAT engine, multi-chain plans and ADI, which s5378-var does not.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "lab.hpp"
#include "vcomp/core/experiment.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/netlist/bench_io.hpp"
#include "vcomp/serve/json.hpp"
#include "vcomp/serve/protocol.hpp"
#include "vcomp/serve/registry.hpp"
#include "vcomp/serve/server.hpp"
#include "vcomp/util/parallel.hpp"
#include "vcomp/util/rng.hpp"

namespace perfbench {

namespace {

using namespace vcomp;

constexpr std::size_t kClients = 2;
constexpr std::size_t kMaxActiveJobs = 2;
constexpr std::size_t kPoolThreads = 2;
constexpr int kPrewarmReps = 5;

const char* const kCircuits[] = {"s444",  "s526",  "s641", "s953",
                                 "s1196", "s1423", "s5378"};

/// One job shape of the mix.  Shapes are named for the per-shape latency
/// metric serve.job_p50_s.<name>.
struct Shape {
  const char* name;
  const char* circuit;
  bool seven_eighths;  ///< fixed shift at the 7/8 info point, else variable
  const char* atpg;
  const char* selection;
  std::size_t chains;
  std::size_t jobs;  ///< jobs of this shape in the mix (even)
};

// Fixed counts, so every seed runs the same mix of shapes.  Sorted by
// latency, the four shapes under ~0.15 s take ranks 1-40, the four around
// 0.2-0.35 s ranks 41-88, s5378 SAT (~1 s) 89-116 and s5378 PODEM (~2 s)
// 117-120.  The median (rank 60) and p90 (rank 108) each lie inside one
// cluster, not on the edge between two; no shape's latency over job seeds
// (measured 1-12) overlaps the s5378 SAT cluster.
const Shape kShapes[] = {
    {"s444-var-podem-mf-c1", "s444", false, "podem", "most-faults", 1, 12},
    {"s526-7of8-podem-mf-c2", "s526", true, "podem", "most-faults", 2, 8},
    {"s641-var-sat-adi-c1", "s641", false, "sat", "adi", 1, 12},
    {"s953-var-podem-mf-c4", "s953", false, "podem", "most-faults", 4, 12},
    {"s1196-7of8-sat-mf-c2", "s1196", true, "sat", "most-faults", 2, 8},
    {"s1423-var-podem-mf-c2", "s1423", false, "podem", "most-faults", 2, 12},
    {"s1423-7of8-podem-adi-c1", "s1423", true, "podem", "adi", 1, 12},
    {"s1423-7of8-sat-mf-c4", "s1423", true, "sat", "most-faults", 4, 12},
    {"s5378-7of8-sat-adi-c4", "s5378", true, "sat", "adi", 4, 28},
    {"s5378-7of8-podem-mf-c2", "s5378", true, "podem", "most-faults", 2, 4},
};

/// The shape whose job the traced run replays and probes.
constexpr std::size_t kReplayedShape = 8;  // s5378-7of8-sat-adi-c4

struct Job {
  std::size_t shape = 0;
  std::string circuit;
  std::string config;  ///< the submit's config object
  std::string line;    ///< the submit request
  std::string span;    ///< trace span name: serve.job/<shape>

  /// Jobs with equal keys must return byte-identical rows.
  std::string key() const { return circuit + ' ' + config; }
};

std::string bench_path(const std::string& dir, const char* circuit) {
  return dir + "/" + circuit + ".bench";
}

std::string config_json(const Shape& s, std::uint64_t job_seed) {
  std::string c = "{\"chains\":" + std::to_string(s.chains) +
                  ",\"partition\":\"round-robin\"";
  c += s.seven_eighths ? ",\"info\":0.875" : ",\"shift\":0";
  c += std::string(",\"atpg\":\"") + s.atpg + "\",\"selection\":\"" +
       s.selection + "\",\"capture\":\"normal\",\"seed\":" +
       std::to_string(job_seed) + "}";
  return c;
}

Job make_job(const std::string& id, std::size_t shape,
             const std::string& circuit, const std::string& config) {
  Job j;
  j.shape = shape;
  j.circuit = circuit;
  j.config = config;
  j.line = "{\"op\":\"submit\",\"id\":\"" + id + "\",\"circuit\":";
  serve::append_json_string(j.line, circuit);
  j.line += ",\"config\":" + config + "}";
  j.span = std::string("serve.job/") + kShapes[shape].name;
  return j;
}

/// The seeded job stream.  A shape's jobs come in pairs with equal job
/// seeds, so every (shape, job seed) pair runs exactly twice.  The seed
/// picks the job seeds (1 .. jobs/2 at the default seed) and the order.
/// With only a few distinct job seeds per shape, the median and p90
/// inherited single jobs' spread: over seeds 0-9 job seeds 1-4 gave
/// job_p50_s an IQR of 22% of its median.
std::vector<Job> make_jobs(const std::string& dir, std::uint64_t seed) {
  std::size_t stride = 0;
  for (const Shape& s : kShapes) stride = std::max(stride, s.jobs / 2);
  const std::uint64_t first_job_seed =
      1 + stride * ((seed - kDefaultSeed) % (1ULL << 40));
  std::vector<std::pair<std::size_t, std::uint64_t>> picks;
  for (std::size_t k = 0; k < std::size(kShapes); ++k)
    for (std::size_t n = 0; n < kShapes[k].jobs; ++n)
      picks.emplace_back(k, first_job_seed + n / 2);
  Rng rng(derive_seed(0x5e7e'0001, seed));
  rng.shuffle(picks);
  std::vector<Job> jobs;
  for (const auto& [k, job_seed] : picks) {
    std::string id = "j";
    id += std::to_string(jobs.size());
    jobs.push_back(make_job(id, k, bench_path(dir, kShapes[k].circuit),
                            config_json(kShapes[k], job_seed)));
  }
  return jobs;
}

/// A closed-loop client's mailbox for the final event of its one
/// outstanding job.
struct Client {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;       // guarded by m
  std::string final_line;  // guarded by m
  double t_final = 0;      // guarded by m
};

struct JobRecord {
  double latency_s = 0;  ///< submit to result/error event
  double submit_s = 0;   ///< Server::handle_line call
  std::string final_line;
};

struct LoopOutcome {
  std::vector<JobRecord> records;
  double wall_s = 0;
  double cpu_s = 0;
};

LoopOutcome run_closed_loop(serve::Server& server,
                            const std::vector<Job>& jobs, std::size_t clients,
                            Tracer& tracer) {
  LoopOutcome out;
  out.records.resize(jobs.size());
  // Clients outlive drain(): a runner thread may still be leaving a sink
  // when its client has already moved on.
  std::vector<std::unique_ptr<Client>> mailboxes;
  for (std::size_t c = 0; c < clients; ++c)
    mailboxes.push_back(std::make_unique<Client>());
  std::atomic<std::size_t> next{0};

  auto client_loop = [&](Client& cl) {
    const serve::Server::Sink sink = [&cl](const std::string& line) {
      if (line.rfind("{\"event\":\"result\"", 0) != 0 &&
          line.rfind("{\"event\":\"error\"", 0) != 0)
        return;
      const std::lock_guard<std::mutex> lk(cl.m);
      cl.final_line = line;
      cl.t_final = wall_now();
      cl.done = true;
      cl.cv.notify_all();
    };
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= jobs.size()) return;
      {
        const std::lock_guard<std::mutex> lk(cl.m);
        cl.done = false;
      }
      const long span = tracer.begin(jobs[i].span.c_str(), i + 1);
      const double t0 = wall_now();
      {
        const Tracer::Scope s(tracer, "serve.Server::handle_line", i + 1);
        server.handle_line(jobs[i].line, sink);
      }
      const double t1 = wall_now();
      std::unique_lock<std::mutex> lk(cl.m);
      cl.cv.wait(lk, [&cl] { return cl.done; });
      tracer.end(span);
      out.records[i] = {cl.t_final - t0, t1 - t0, cl.final_line};
    }
  };

  const double w0 = wall_now(), c0 = cpu_now();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c)
      threads.emplace_back(client_loop, std::ref(*mailboxes[c]));
    for (std::thread& t : threads) t.join();
  }
  server.drain();
  out.wall_s = wall_now() - w0;
  out.cpu_s = cpu_now() - c0;
  return out;
}

/// A parsed result row.
struct Row {
  std::string text;
  double m = 0, t = 0;
  std::uint64_t uncovered = 0;
  std::uint64_t hidden_peak = 0;
  /// The job's scoped obs counters; rows leave out zero counters.
  std::map<std::string, std::uint64_t> counters;
};

std::optional<Row> parse_row(const std::string& final_line) {
  const std::size_t pos = final_line.find("\"row\":");
  if (final_line.rfind("{\"event\":\"result\"", 0) != 0 ||
      pos == std::string::npos || final_line.size() < pos + 8)
    return std::nullopt;
  Row row;
  row.text = final_line.substr(pos + 6, final_line.size() - pos - 7);
  const std::optional<serve::Json> doc = serve::Json::parse(row.text);
  if (!doc || !doc->is_object()) return std::nullopt;
  const serve::Json* m = doc->find("m");
  const serve::Json* t = doc->find("t");
  const serve::Json* unc = doc->find("uncovered");
  const serve::Json* peak = doc->find("hidden_peak");
  const serve::Json* counters = doc->find("counters");
  if (m == nullptr || t == nullptr || unc == nullptr || peak == nullptr ||
      counters == nullptr || !counters->is_object())
    return std::nullopt;
  row.m = m->as_double();
  row.t = t->as_double();
  row.uncovered = std::uint64_t(unc->as_int());
  row.hidden_peak = std::uint64_t(peak->as_int());
  for (const auto& [name, v] : counters->members())
    row.counters[name] = std::uint64_t(v.as_int());
  return row;
}

/// The per-layer work counts a result row carries: the metric, and the
/// job's obs counter that is summed into it.  atpg.calls counts calls of
/// either engine, as PhaseProfile::podem_calls does.
const std::pair<const char*, const char*> kRowCounters[] = {
    {"atpg.calls", "podem.calls"},
    {"atpg.calls", "atpg.sat_calls"},
    {"atpg.cubes", "stitch.cubes_found"},
    {"atpg.backtracks", "podem.backtracks"},
    {"atpg.aborted", "stitch.aborted"},
    {"podem.implications", "podem.implications"},
    {"podem.constrained_untestable", "podem.constrained_untestable"},
    {"atpg.sat_calls", "atpg.sat_calls"},
    {"atpg.sat_conflicts", "atpg.sat_conflicts"},
    {"core.candidates_scored", "stitch.candidates_scored"},
    {"core.faults_classified", "tracker.faults_classified"},
    {"core.hidden_advanced", "tracker.hidden_advanced"},
    {"core.cycles", "tracker.cycles"},
};

/// Sums the work counts of \p rows into \p layers, with atpg.yield and the
/// highest core.hidden_peak.
void add_row_counters(const std::vector<std::optional<Row>>& rows,
                      std::map<std::string, double>& layers) {
  std::map<std::string, double> sums;
  double hidden_peak = 0;
  for (const auto& row : rows) {
    if (!row) continue;
    for (const auto& [metric, counter] : kRowCounters) {
      const auto it = row->counters.find(counter);
      sums[metric] += it == row->counters.end() ? 0.0 : double(it->second);
    }
    hidden_peak = std::max(hidden_peak, double(row->hidden_peak));
  }
  for (const auto& [name, v] : sums) layers[name] = v;
  layers["atpg.yield"] =
      sums["atpg.calls"] > 0 ? sums["atpg.cubes"] / sums["atpg.calls"] : 0;
  layers["core.hidden_peak"] = hidden_peak;
}

/// Counts every job as one attempt and checks its outcome: an error event,
/// an unparsable row, uncovered faults, or a duplicate whose row differs
/// from the first row with the same key each fail it.  Returns the rows of
/// the jobs that passed.
std::vector<std::optional<Row>> check_jobs(const std::vector<Job>& jobs,
                                           const LoopOutcome& loop,
                                           Result& result) {
  std::vector<std::optional<Row>> rows(jobs.size());
  std::map<std::string, std::string> first_row;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ++result.attempted;
    const std::string& line = loop.records[i].final_line;
    const std::string id = "job " + std::to_string(i) + ": ";
    if (line.rfind("{\"event\":\"error\"", 0) == 0) {
      result.attempt_failed(id + line);
      continue;
    }
    std::optional<Row> row = parse_row(line);
    if (!row) {
      result.attempt_failed(id + "no result row");
      continue;
    }
    if (row->uncovered > 0) {
      result.attempt_failed(id + "uncovered faults");
      continue;
    }
    const auto [it, inserted] = first_row.emplace(jobs[i].key(), row->text);
    if (!inserted && it->second != row->text) {
      result.attempt_failed(id + "row differs from an identical earlier job");
      continue;
    }
    rows[i] = std::move(row);
  }
  return rows;
}

/// What ArtifactRegistry::lab_for_spec does for a new .bench file, stage by
/// stage through the public calls: parse, hash, then the lab's own stages
/// (see decompose_setup).  Returns the stages' CPU seconds.
double decompose(const std::string& path, Tracer& tracer,
                 std::map<std::string, double>& stage_cpu) {
  double sum = 0;
  const netlist::Netlist nl =
      stage("netlist.read_bench_file", "netlist.parse_s", tracer, stage_cpu,
            sum, [&] { return netlist::read_bench_file(path); });
  stage("serve.canonical_netlist_hash", "serve.hash_s", tracer, stage_cpu, sum,
        [&] { return serve::canonical_netlist_hash(nl); });
  return sum + decompose_setup(nl, tracer, stage_cpu);
}

}  // namespace

void run_serve_mix(const Args& args, Tracer& tracer, Result& result) {
  util::ThreadPool::instance().configure(kPoolThreads);

  // Inputs: the mix's circuits as .bench files, and the job stream.
  const std::string dir = args.work_dir + "/serve-mix";
  std::filesystem::create_directories(dir);
  for (const char* c : kCircuits) {
    std::ofstream out(bench_path(dir, c));
    netlist::write_bench(out, netgen::generate(netgen::profile(c)));
    if (!out.good())
      throw std::runtime_error("cannot write " + bench_path(dir, c));
  }
  const std::vector<Job> jobs = make_jobs(dir, args.seed);

  // Set-up: prewarm a registry with every circuit.  Earlier repetitions
  // use throwaway registries; the last prewarms the server's own.  The
  // traced run decomposes each circuit's set-up (parse, hash, lab stages)
  // right after the program's, so both see the same state of the host;
  // obs.setup_coverage is the ratio of their sums.
  serve::Server server(serve::ServeOptions{.max_active_jobs = kMaxActiveJobs,
                                           .registry_budget = 0,
                                           .progress_every = 0});
  std::map<std::string, double> stage_cpu;
  std::vector<double> prewarm_wall;
  double decomposed_cpu = 0;
  for (int rep = 0; rep < kPrewarmReps; ++rep) {
    std::optional<serve::ArtifactRegistry> scratch;
    serve::ArtifactRegistry* reg = &server.registry();
    if (rep + 1 < kPrewarmReps) reg = &scratch.emplace();
    const Tracer::Scope s(tracer, "serve.prewarm");
    Interval prewarm;
    for (const char* c : kCircuits) {
      const Interval iv = timed([&] {
        const Tracer::Scope s2(tracer, "serve.ArtifactRegistry::lab_for_spec");
        reg->lab_for_spec(bench_path(dir, c), false);
      });
      prewarm.wall_s += iv.wall_s;
      prewarm.cpu_s += iv.cpu_s;
      if (args.trace)
        decomposed_cpu += decompose(bench_path(dir, c), tracer, stage_cpu);
    }
    result.samples["setup_s"].push_back(prewarm.cpu_s);
    prewarm_wall.push_back(prewarm.wall_s);
  }

  // The loop: one pass over the job stream.
  const LoopOutcome loop = run_closed_loop(server, jobs, kClients, tracer);
  result.samples["stitch_cpu_s"].push_back(loop.cpu_s);
  result.values["peak_rss_mb"] = peak_rss_mb();
  const serve::ArtifactRegistry::Stats cache = server.registry().stats();
  const std::vector<std::optional<Row>> rows = check_jobs(jobs, loop, result);

  double m_sum = 0, t_sum = 0;
  std::size_t ok = 0;
  for (const auto& row : rows)
    if (row) {
      m_sum += row->m;
      t_sum += row->t;
      ++ok;
    }
  for (const JobRecord& r : loop.records)
    result.samples["job_latency_s"].push_back(r.latency_s);
  result.values["jobs"] = double(jobs.size());
  result.values["loop_wall_s"] = loop.wall_s;
  result.values["m"] = ok > 0 ? m_sum / double(ok) : 0;
  result.values["t"] = ok > 0 ? t_sum / double(ok) : 0;
  if (!args.trace) return;

  // ---- traced run: per-layer metrics and cross-checks ---------------------
  auto& L = result.layers;
  L["serve.prewarm_s"] = median(prewarm_wall);
  L["serve.registry_hits"] = double(cache.hits);
  L["serve.registry_misses"] = double(cache.misses);
  {
    std::vector<double> submit_us;
    for (const JobRecord& r : loop.records)
      submit_us.push_back(1e6 * r.submit_s);
    L["serve.submit_us"] = median(submit_us);
  }
  for (std::size_t k = 0; k < std::size(kShapes); ++k) {
    std::vector<double> lat;
    for (std::size_t i = 0; i < jobs.size(); ++i)
      if (jobs[i].shape == k) lat.push_back(loop.records[i].latency_s);
    L[std::string("serve.job_p50_s.") + kShapes[k].name] = median(lat);
  }
  L["util.threads"] = double(util::parallelism());
  L["util.busy_cores"] = loop.cpu_s / std::max(loop.wall_s, 1e-9);

  for (const auto& [name, cpu] : stage_cpu) L[name] = cpu / kPrewarmReps;
  double prewarm_cpu = 0;
  for (double v : result.samples["setup_s"]) prewarm_cpu += v;
  L["obs.setup_coverage"] = decomposed_cpu / prewarm_cpu;
  for (const char* c : kCircuits) {
    const auto lab = server.registry().lab_for_spec(bench_path(dir, c), false);
    L["atpg.baseline_vectors"] += double(lab->atv());
    L["fault.collapsed"] += double(lab->faults().size());
  }

  // Stitch decomposition: the first job of each shape once more,
  // sequentially on the server's cached labs.  The rows carry counters but
  // no times, so these runs' profiles split the stitch time by layer, each
  // counted as often as its shape ran in the loop.  Each run's row must
  // also equal the loop's byte for byte: the serve contract that a daemon
  // row matches a sequential run of the same job.
  std::vector<std::size_t> first_of(std::size(kShapes), jobs.size());
  std::vector<std::size_t> count_of(std::size(kShapes), 0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    first_of[jobs[i].shape] = std::min(first_of[jobs[i].shape], i);
    ++count_of[jobs[i].shape];
  }
  StitchLayers stitch;
  for (std::size_t k = 0; k < std::size(kShapes); ++k) {
    const std::size_t i = first_of[k];
    const Job& job = jobs[i];
    serve::JobSpec spec;
    std::string error;
    const std::optional<serve::Json> cfg = serve::Json::parse(job.config);
    if (!cfg || !serve::apply_config(*cfg, spec, error))
      throw std::runtime_error("bad job config: " + error);
    const auto lab = server.registry().lab_for_spec(job.circuit, false);
    core::StitchOptions opts = spec.options;
    if (spec.info > 0.0)
      core::apply_info_ratio(opts, lab->netlist(), spec.info);
    const auto [r, counters] = run_in_scope([&] { return lab->run(opts); });
    stitch.add(r, counters, double(count_of[k]));
    if (rows[i] && serve::result_row(serve::circuit_label(job.circuit, false),
                                     r, counters) != rows[i]->text)
      result.attempt_failed("job " + std::to_string(i) +
                            ": row differs from a sequential run");
    // Replay and probe the s5378 SAT job, which adds the SAT engine and a
    // 4-chain plan to what s5378-var checks.
    if (k == kReplayedShape)
      add_replay_layers(replay_and_probe(*lab, opts, r, args.seed, tracer),
                        result);
  }
  // Times and atpg.us_per_call from the re-runs; work counts are the loop's
  // own, summed from its result rows.
  stitch.write(L);
  add_row_counters(rows, L);
  const double setup_s = median(result.samples["setup_s"]);
  L["obs.layer_coverage"] =
      (L["obs.setup_coverage"] * setup_s + stitch.phase_seconds()) /
      (setup_s + stitch.total_seconds());
}

void run_reject_check(const Args&, Tracer& tracer, Result& result) {
  util::ThreadPool::instance().configure(1);
  serve::Server server(serve::ServeOptions{.max_active_jobs = 1});
  const std::vector<Job> jobs = {
      make_job("valid", 0, "gen:s444", config_json(kShapes[0], 1)),
      make_job("rejected", 0, "gen:s444", "{\"chains\":0}"),
  };
  const LoopOutcome loop = run_closed_loop(server, jobs, 1, tracer);
  check_jobs(jobs, loop, result);
}

}  // namespace perfbench
