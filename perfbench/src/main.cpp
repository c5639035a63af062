// vcomp_perfbench — runs one benchmark workload in-process through the
// library's public API and prints its raw measurements as one JSON line.
//
// Usage:
//   vcomp_perfbench --workload <name> --seed <n> --trace <0|1>
//                   --work-dir <dir> [--trace-out <file>]
//
// Workloads: s5378-var, serve-mix, and reject-check (the self-test of the
// failure counting, not a benchmark workload).  Each does a fixed amount
// of work.  run.py builds this program, runs it and turns its output into
// metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "vcomp/obs/metrics.hpp"
#include "vcomp/serve/json.hpp"
#include "vcomp/util/parallel.hpp"

extern char** environ;

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t seed) {
  return base ^ vcomp::util::splitmix64(seed) ^
         vcomp::util::splitmix64(kDefaultSeed);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Tracer ---------------------------------------------------------------

namespace {
thread_local std::vector<long> t_open;  // this thread's open span ids
}  // namespace

Tracer::Tracer(bool on) : on_(on), t0_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

long Tracer::begin(const char* name, std::uint64_t job) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.job = job;
  long id = 0;
  {
    const std::lock_guard<std::mutex> lk(m_);
    s.start_us = now_us();
    id = long(spans_.size());
    spans_.push_back(std::move(s));
  }
  t_open.push_back(id);
  return id;
}

void Tracer::end(long id) {
  if (id < 0) return;
  const double t = now_us();
  {
    const std::lock_guard<std::mutex> lk(m_);
    spans_[std::size_t(id)].end_us = t;
  }
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

void Tracer::write_json(std::ostream& os) const {
  const std::lock_guard<std::mutex> lk(m_);
  os << "[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                  "\"end_us\":%.3f,\"parent\":%ld,\"job\":%llu}",
                  i == 0 ? "" : ",", i, s.name.c_str(), s.start_us, s.end_us,
                  s.parent, static_cast<unsigned long long>(s.job));
    os << buf;
  }
  os << "\n]\n";
}

// ---- Result ---------------------------------------------------------------

void Result::attempt_failed(std::string why) {
  ++failed;
  failures.push_back(std::move(why));
}

namespace {

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_map(std::string& out, const std::map<std::string, double>& m) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ',';
    first = false;
    vcomp::serve::append_json_string(out, k);
    out += ':';
    append_number(out, v);
  }
  out += '}';
}

}  // namespace

void Result::write_json(std::ostream& os) const {
  std::string out = "{\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) +
                    ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) out += ',';
    vcomp::serve::append_json_string(out, failures[i]);
  }
  out += "],\"samples\":{";
  bool first = true;
  for (const auto& [k, vs] : samples) {
    if (!first) out += ',';
    first = false;
    vcomp::serve::append_json_string(out, k);
    out += ":[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) out += ',';
      append_number(out, vs[i]);
    }
    out += ']';
  }
  out += "},\"values\":";
  append_map(out, values);
  out += ",\"layers\":";
  append_map(out, layers);
  out += ",\"reference_counters\":{";
  for (std::size_t i = 0; i < reference_counters.size(); ++i) {
    if (i > 0) out += ',';
    vcomp::serve::append_json_string(out, reference_counters[i].first);
    out += ':' + std::to_string(reference_counters[i].second);
  }
  out += "}}";
  os << out << '\n';
}

}  // namespace perfbench

namespace {

using namespace vcomp;

int usage() {
  std::fprintf(stderr,
               "usage: vcomp_perfbench --workload <name> --seed <n> "
               "--trace <0|1> --work-dir <dir> [--trace-out <file>]\n");
  return 2;
}

/// No VCOMP_* variable of the caller may change a workload: every knob the
/// library would read from the environment is dropped before the first
/// library call, so each one takes its built-in default unless the
/// workload sets it in code.  The one knob only the environment sets,
/// compaction (read by CircuitArtifacts::build), is pinned on here.
void set_vcomp_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "VCOMP_", 6) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? std::size_t(eq - *e)
                                           : std::strlen(*e));
    }
  for (const std::string& n : names) unsetenv(n.c_str());
  setenv("VCOMP_COMPACT", "1", 1);
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  set_vcomp_environment();
  perfbench::Args args;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      if (!parse_u64(v, args.seed)) return usage();
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        return usage();
      args.trace = v[0] == '1';
    } else if (a == "--work-dir") {
      args.work_dir = v;
    } else if (a == "--trace-out") {
      trace_out = v;
    } else {
      return usage();
    }
  }
  if (args.workload.empty() || args.work_dir.empty()) return usage();

  obs::set_metrics_enabled(true);
  perfbench::Tracer tracer(args.trace);
  perfbench::Result result;
  try {
    if (args.workload == "s5378-var")
      perfbench::run_s5378_var(args, tracer, result);
    else if (args.workload == "serve-mix")
      perfbench::run_serve_mix(args, tracer, result);
    else if (args.workload == "reject-check")
      perfbench::run_reject_check(args, tracer, result);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vcomp_perfbench: %s\n", e.what());
    return 1;
  }

  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    tracer.write_json(out);
    if (!out.good()) {
      std::fprintf(stderr, "vcomp_perfbench: cannot write %s\n",
                   trace_out.c_str());
      return 1;
    }
  }
  result.write_json(std::cout);
  return std::cout.good() ? 0 : 1;
}
