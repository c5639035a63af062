#pragma once

// Shared pieces of vcomp_perfbench: clocks, the in-memory span recorder,
// seed derivation and the raw result it prints for run.py to turn into
// metrics.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Steady-clock seconds since an arbitrary epoch.
double wall_now();
/// CPU seconds consumed by the whole process (all threads).
double cpu_now();
/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// The benchmark seed drives the serve-mix job seeds and submission order
/// and the traced runs' probe samples.  It leaves the circuits alone: they
/// stay the repository's netgen profiles, because m, t and stitch time
/// differ more between circuits of one profile than any bound the benchmark
/// could hold (s5378: m 0.61-0.75 over three netgen seeds).  s5378-var's
/// stitched run is fixed too (see s5378_var.cpp).  At kDefaultSeed every
/// input equals the repository's own.
constexpr std::uint64_t kDefaultSeed = 1;

/// Derives a per-input seed from \p base (the value the repository uses)
/// and the benchmark seed; returns \p base itself at kDefaultSeed.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t seed);

struct Interval {
  double wall_s = 0;
  double cpu_s = 0;
};

/// Runs \p f and returns its wall and process-CPU duration.
template <class F>
Interval timed(F&& f) {
  const double w0 = wall_now(), c0 = cpu_now();
  f();
  return {wall_now() - w0, cpu_now() - c0};
}

double median(std::vector<double> v);

/// In-memory span recorder for the traced run.  A span has a name, start
/// and end (steady clock, microseconds since the tracer was made), the
/// span that caused it (the innermost open span of the same thread) and a
/// job id shared by the spans of one serve job.  Spans are written out
/// once, at exit.  A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool on);

  /// Opens a span on the calling thread; returns its id (or -1 when off).
  long begin(const char* name, std::uint64_t job = 0);
  /// Closes span \p id, which must be the calling thread's innermost.
  void end(long id);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t job = 0)
        : t_(t), id_(t.begin(name, job)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    long id_;
  };

  /// JSON array of spans: {"id","name","start_us","end_us","parent","job"}.
  void write_json(std::ostream& os) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = -1;
    long parent = -1;
    std::uint64_t job = 0;
  };

  double now_us() const;

  bool on_;
  std::chrono::steady_clock::time_point t0_;
  mutable std::mutex m_;
  std::vector<Span> spans_;  // guarded by m_
};

/// Raw outcome of one workload run.  run.py derives the printed metrics
/// from the samples and values; vcomp_perfbench itself only measures.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one reason per failed attempt
  /// Repeated measurements, reduced by run.py (median, percentiles).
  std::map<std::string, std::vector<double>> samples;
  /// Single end-to-end quantities (m, t, loop wall time, ...).
  std::map<std::string, double> values;
  /// Per-layer metrics of the traced run.
  std::map<std::string, double> layers;
  /// Work counters of the checked stitched run, compared by run.py with
  /// the committed BENCH_stitch.json row at the default seed.
  std::vector<std::pair<std::string, std::uint64_t>> reference_counters;

  /// Counts one attempt that failed for \p why.
  void attempt_failed(std::string why);
  void write_json(std::ostream& os) const;
};

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  bool trace = false;
  std::string work_dir;  ///< scratch space for generated inputs
};

void run_s5378_var(const Args& args, Tracer& tracer, Result& result);
void run_serve_mix(const Args& args, Tracer& tracer, Result& result);
/// Self-test of the failure counting: one valid and one rejected submit.
void run_reject_check(const Args& args, Tracer& tracer, Result& result);

}  // namespace perfbench
