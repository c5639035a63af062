// vcomp_fuzz — randomized differential-test driver (the check harness).
//
// Runs N seeded random scenarios through every oracle: the four compiled
// simulators against naive reference evaluators, and the stitched-cycle
// tracker against a brute-force full-shift fault simulation of the same
// schedule.  Failing cases are greedily shrunk and written as
// self-contained reproducer files; --replay re-checks such a file.
//
// Usage:
//   vcomp_fuzz [options]
//     --cases <n>       scenarios to run (default 100; 0 = unbounded)
//     --minutes <m>     wall-clock budget (fractional ok; 0 = no limit)
//     --seed <n>        master seed (default 1); case i's seed is a pure
//                       function of (seed, i), independent of threads/time
//     --identity <k>    per case, require byte-identical tracker digests
//                       at 1 thread and at k threads
//     --threads <n>     worker threads for the run itself
//     --repro-dir <d>   write reproducers for failing cases into <d>
//     --replay <file>   replay one reproducer file instead of fuzzing
//     --max-failures <n>  stop after n failures (default 1)
//     --no-shrink       keep failing scenarios as found
//     --metrics <file>  write an obs metrics snapshot (JSON) on exit
//     --trace <file>    record spans, write Chrome-trace JSON on exit
//     --quiet           suppress progress logging
//     --help            print this usage and exit 0
//
// Exit code: 0 clean, 1 failures found, 2 usage error.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "vcomp/check/repro.hpp"
#include "vcomp/check/runner.hpp"
#include "vcomp/obs/obs.hpp"
#include "vcomp/serve/job.hpp"
#include "vcomp/util/parallel.hpp"

using namespace vcomp;

namespace {

/// Prints the usage to \p to; returns the exit code of a usage error.
int usage(std::FILE* to, const char* argv0) {
  std::fprintf(to,
               "usage: %s [--cases n] [--minutes m] [--seed n]\n"
               "       [--identity k] [--threads n] [--repro-dir d]\n"
               "       [--replay file] [--max-failures n] [--no-shrink]\n"
               "       [--metrics file] [--trace file] [--quiet] [--help]\n",
               argv0);
  return 2;
}

int replay(const std::string& path) {
  const check::Reproducer r = check::read_reproducer_file(path);
  std::printf("replaying %s\n  %s\n", path.c_str(),
              check::describe(r.scenario).c_str());
  if (auto f = check::replay_reproducer(r)) {
    std::printf("FAIL [%s] %s\n", f->oracle.c_str(), f->detail.c_str());
    return 1;
  }
  std::printf("clean: every oracle agrees\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  check::FuzzOptions opts;
  opts.log = &std::cerr;
  std::string replay_path;
  std::string metrics_path, trace_path;
  std::size_t threads = 0;

  // Writes the metrics snapshot / Chrome trace (if requested) and passes
  // the exit code through, so every successful exit path reports them.
  auto finish = [&](int code) -> int {
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      obs::Registry::instance().snapshot().write_json(out);
      out << '\n';
      if (!out.good()) {
        std::fprintf(stderr, "error: cannot write %s\n", metrics_path.c_str());
        return 2;
      }
      std::printf("metrics snapshot: %s\n", metrics_path.c_str());
    }
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      obs::write_chrome_trace(out);
      if (!out.good()) {
        std::fprintf(stderr, "error: cannot write %s\n", trace_path.c_str());
        return 2;
      }
      std::printf("chrome trace: %s\n", trace_path.c_str());
    }
    return code;
  };

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto need = [&]() -> std::string {
        if (i + 1 >= argc) throw InputError("missing value for " + a);
        return argv[++i];
      };
      auto number = [&] {
        return serve::parse_flag_number<std::uint64_t>(a, need());
      };
      if (a == "--help" || a == "-h") {
        usage(stdout, argv[0]);
        return 0;
      }
      if (a == "--cases") {
        opts.cases = number();
      } else if (a == "--minutes") {
        opts.minutes = serve::parse_flag_number<double>(a, need());
        if (opts.cases == 100) opts.cases = 0;  // default flips to unbounded
      } else if (a == "--seed") {
        opts.seed = number();
      } else if (a == "--identity") {
        opts.identity_threads = number();
      } else if (a == "--threads") {
        threads = number();
      } else if (a == "--repro-dir") {
        opts.repro_dir = need();
      } else if (a == "--replay") {
        replay_path = need();
      } else if (a == "--max-failures") {
        opts.max_failures = number();
      } else if (a == "--no-shrink") {
        opts.shrink_failures = false;
      } else if (a == "--metrics") {
        metrics_path = need();
      } else if (a == "--trace") {
        trace_path = need();
      } else if (a == "--quiet") {
        opts.log = nullptr;
      } else {
        std::fprintf(stderr, "unknown option: %s\n", a.c_str());
        return usage(stderr, argv[0]);
      }
    }

    if (!trace_path.empty()) obs::set_trace_enabled(true);

    std::optional<util::ScopedParallelism> scoped;
    if (threads > 0) scoped.emplace(threads);

    if (!replay_path.empty()) return finish(replay(replay_path));

    if (opts.cases == 0 && opts.minutes == 0) {
      std::fprintf(stderr, "refusing to run unbounded: give --cases or "
                           "--minutes\n");
      return 2;
    }

    const check::FuzzStats stats = check::run_fuzz(opts);
    std::printf("%zu cases, %zu failures\n", stats.cases_run, stats.failures);
    if (stats.failures > 0) {
      std::printf("first failure: %s\n", stats.first_failure.c_str());
      for (const auto& p : stats.repro_paths)
        std::printf("reproducer: %s\n", p.c_str());
      return finish(1);
    }
    return finish(0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
