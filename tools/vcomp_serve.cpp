// vcomp_serve — stitching-as-a-service job daemon.
//
// Accepts stitching jobs as line-delimited JSON (see serve/protocol.hpp),
// runs them concurrently over a content-addressed artifact cache, and
// streams progress plus canonical Table-2-style result rows.  Rows are
// byte-identical to `vcomp_stitch --row` for the same job, at every
// VCOMP_THREADS value and arrival order — the CI serve smoke literally
// diffs the two.
//
// Usage:
//   vcomp_serve [options]
//     --port <n>       listen on 127.0.0.1:<n> (0 = ephemeral; the bound
//                      port is printed as "listening on 127.0.0.1:<p>").
//                      Default: serve stdin/stdout as a pipe.
//     --max-jobs <n>   concurrent job limit (default 2)
//     --cache <n>      artifact registry budget in circuits (default
//                      unlimited; LRU eviction, in-flight builds pinned)
//     --progress <n>   default progress event cadence in cycles (0 = only
//                      when a job sets progress_every)
//     --threads <n>    worker pool size (default: VCOMP_THREADS or all
//                      hardware threads; shared by all jobs via malleable
//                      fair-share caps)
//     --metrics <f>    write the process obs metrics snapshot on exit
//     --trace <f>      write Chrome-trace JSON on exit (per-job events
//                      carry the job's scope token as the trace pid)
//
// Example session (pipe mode):
//   {"op":"submit","id":"a","circuit":"gen:c432","config":{"chains":4}}
//   {"op":"status"}
//   {"op":"shutdown"}

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "vcomp/obs/obs.hpp"
#include "vcomp/serve/job.hpp"
#include "vcomp/serve/net.hpp"
#include "vcomp/util/parallel.hpp"

using namespace vcomp;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port n] [--max-jobs n] [--cache n]\n"
               "       [--progress n] [--threads n] [--metrics f] "
               "[--trace f]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServeOptions opts;
  std::optional<std::uint16_t> port;  // unset = stdio pipe mode
  std::string metrics_path, trace_path;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto need = [&]() -> std::string {
        if (i + 1 >= argc) throw InputError("missing value for " + a);
        return argv[++i];
      };
      auto number = [&] {
        return serve::parse_flag_number<std::size_t>(a, need());
      };
      if (a == "--port")
        port = serve::parse_flag_number<std::uint16_t>(a, need());
      else if (a == "--max-jobs") opts.max_active_jobs = number();
      else if (a == "--cache") opts.registry_budget = number();
      else if (a == "--progress") opts.progress_every = number();
      else if (a == "--threads")
        util::ThreadPool::instance().configure(number());
      else if (a == "--metrics") metrics_path = need();
      else if (a == "--trace") trace_path = need();
      else return usage(argv[0]);
    }

    if (!trace_path.empty()) obs::set_trace_enabled(true);

    serve::Server server(opts);
    if (port) {
      serve::TcpListener listener(*port);
      // Printed (and flushed) before the accept loop starts, so scripts
      // can parse the port and connect without racing.
      std::printf("listening on 127.0.0.1:%u\n", unsigned(listener.port()));
      std::fflush(stdout);
      listener.serve(server);
    } else {
      serve_stdio(server, std::cin, std::cout);
    }

    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (!out.good()) {
        std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
        return 2;
      }
      obs::Registry::instance().snapshot().write_json(out);
      out << '\n';
    }
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (!out.good()) {
        std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
        return 2;
      }
      obs::write_chrome_trace(out);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
