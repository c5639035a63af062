// The two front ends run for real: the vcomp_stitch binary and an
// in-process serve::Server must give the same row for the same job, and
// the same one-line message for the same bad input.

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "vcomp/netgen/example_circuit.hpp"
#include "vcomp/netlist/bench_io.hpp"
#include "vcomp/serve/job.hpp"
#include "vcomp/serve/json.hpp"
#include "vcomp/serve/server.hpp"
#include "vcomp/util/parallel.hpp"

namespace vcomp::serve {
namespace {

struct CliRun {
  int status = -1;     ///< exit code; -1 if the process did not exit
  std::string output;  ///< stdout and stderr together
};

/// Runs \p bin (default vcomp_stitch) with \p args (shell words) under
/// \p env assignments.
CliRun run_cli(const std::string& args, const std::string& env = "",
               const std::string& bin = VCOMP_STITCH_BIN) {
  const std::string cmd = env + " " + bin + " " + args + " 2>&1 </dev/null";
  CliRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
    run.output.append(buf, n);
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.status = WEXITSTATUS(status);
  return run;
}

/// Submits one job to a fresh server and returns its final event line.
std::string daemon_final(const std::string& circuit,
                         const std::string& config) {
  std::string submit = R"({"op":"submit","id":"t","circuit":)";
  append_json_string(submit, circuit);
  submit += ",\"config\":" + config + "}";
  std::string final_line;
  {
    Server server(ServeOptions{.max_active_jobs = 1});
    const Server::Sink sink = [&final_line](const std::string& line) {
      if (line.find("\"event\":\"result\"") != std::string::npos ||
          line.find("\"event\":\"error\"") != std::string::npos)
        final_line = line;
    };
    server.handle_line(submit, sink);
    server.drain();
  }
  return final_line;
}

std::string example_bench_path() {
  static const std::string path = [] {
    const std::string p = testing::TempDir() + "cli_example.bench";
    std::ofstream(p) << netlist::write_bench_string(netgen::example_circuit());
    return p;
  }();
  return path;
}

TEST(CliParity, GaShiftRowMatchesDaemonAtEveryThreadCount) {
  const std::string row_path = testing::TempDir() + "cli_ga_row.json";
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const CliRun cli = run_cli(
        "gen:s444 --shift ga --ga-pop 4 --ga-gens 2 --ga-genes 4 --seed 3 "
        "--row " + row_path,
        "VCOMP_THREADS=" + std::to_string(threads));
    ASSERT_EQ(cli.status, 0) << cli.output;
    std::stringstream cli_row;
    cli_row << std::ifstream(row_path).rdbuf();

    const util::ScopedParallelism scoped(threads);
    const std::string event = daemon_final(
        "gen:s444",
        R"({"shift":"ga","ga_pop":4,"ga_gens":2,"ga_genes":4,"seed":3})");
    const std::size_t row = event.find("\"row\":");
    ASSERT_NE(row, std::string::npos) << event;
    // The row object runs to the event's closing brace.
    EXPECT_EQ(cli_row.str(),
              event.substr(row + 6, event.size() - row - 7) + "\n")
        << "threads=" << threads;
  }
}

TEST(CliParity, BadInputsGetOneMessageOnBothSurfaces) {
  const std::string missing = testing::TempDir() + "no_such_circuit.bench";
  const std::string example = example_bench_path();
  const std::string malformed = testing::TempDir() + "malformed.bench";
  std::ofstream(malformed) << "INPUT(a)\nb = MUX(a, a)\n";
  const std::string no_ffs = testing::TempDir() + "no_ffs.bench";
  std::ofstream(no_ffs) << "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n";
  struct Case {
    std::string cli;      ///< vcomp_stitch arguments
    std::string circuit;  ///< the same job for the daemon
    std::string config;
    std::string message;
  };
  const Case cases[] = {
      {"gen:s444 --chains abc", "gen:s444", R"({"chains":"abc"})",
       "chains must be a positive integer"},
      {"gen:s444 --seed x", "gen:s444", R"({"seed":"x"})",
       "seed must be a non-negative integer"},
      {"gen:s444 --chains 0", "gen:s444", R"({"chains":0})",
       "chains must be a positive integer"},
      {"gen:s444 --chains 99", "gen:s444", R"({"chains":99})",
       "chains 99 exceeds the circuit's 21 scan cells"},
      {"gen:s444 --info 2", "gen:s444", R"({"info":2})",
       "info must be a number in (0,1]"},
      {"gen:s444 --shift 1000", "gen:s444", R"({"shift":1000})",
       "shift 1000 exceeds the circuit's 21 scan cells"},
      {"gen:s444 --info 0.1", "gen:s444", R"({"info":0.1})",
       "info point 0.1 is unattainable for this circuit"},
      {"gen:s444 --ga-pop 0", "gen:s444", R"({"ga_pop":0})",
       "ga_pop must be an integer >= 3"},
      {"gen:nosuch", "gen:nosuch", "{}", "unknown circuit profile: nosuch"},
      {missing, missing, "{}", "cannot open bench file: " + missing},
      {example + " --full-scale", example, R"({"full_scale":true})",
       "full_scale only applies to gen:<profile> circuits"},
      {malformed, malformed, "{}",
       "bench parse error at line 2: unknown gate type 'MUX'"},
      {no_ffs, no_ffs, "{}", no_ffs + " has no flip-flops to scan"},
  };
  for (const Case& c : cases) {
    const CliRun cli = run_cli(c.cli);
    EXPECT_EQ(cli.status, 2) << c.cli << "\n" << cli.output;
    EXPECT_NE(cli.output.find("error: " + c.message + "\n"),
              std::string::npos)
        << c.cli << "\n" << cli.output;
    EXPECT_EQ(cli.output.find("precondition failed"), std::string::npos)
        << cli.output;
    // Every bad input fails before the lab's baseline ATPG runs.
    EXPECT_EQ(cli.output.find("baseline:"), std::string::npos)
        << c.cli << "\n" << cli.output;

    const std::optional<Json> event =
        Json::parse(daemon_final(c.circuit, c.config));
    ASSERT_TRUE(event.has_value()) << c.circuit << " " << c.config;
    ASSERT_NE(event->find("message"), nullptr) << c.config;
    EXPECT_EQ(event->find("message")->as_string(), c.message)
        << c.circuit << " " << c.config;
  }
}

TEST(CliParity, ToolFlagsFailCleanly) {
  // The tools' own numeric flags: one "error:" line and exit 2, never an
  // uncaught exception.
  struct Case {
    const char* bin;
    std::string args;
    std::string message;
  };
  const std::string port = "port must be an integer from 0 to 65535";
  const Case cases[] = {
      {VCOMP_STITCH_BIN, "gen:s444 --threads x",
       "threads must be a non-negative integer"},
      {VCOMP_SERVE_BIN, "--port abc", port},
      {VCOMP_SERVE_BIN, "--port 70000", port},
      {VCOMP_SERVE_BIN, "--port -1", port},
      {VCOMP_SERVE_BIN, "--max-jobs 2x",
       "max-jobs must be a non-negative integer"},
      {VCOMP_SERVE_BIN, "--threads", "missing value for --threads"},
      {VCOMP_FUZZ_BIN, "--cases x", "cases must be a non-negative integer"},
      {VCOMP_FUZZ_BIN, "--seed -3", "seed must be a non-negative integer"},
      {VCOMP_FUZZ_BIN, "--minutes nan",
       "minutes must be a non-negative number"},
      {VCOMP_FUZZ_BIN, "--identity", "missing value for --identity"},
  };
  for (const Case& c : cases) {
    const CliRun run = run_cli(c.args, "", c.bin);
    EXPECT_EQ(run.status, 2) << c.bin << " " << c.args << "\n" << run.output;
    EXPECT_EQ(run.output, "error: " + c.message + "\n")
        << c.bin << " " << c.args;
  }
}

TEST(CliParity, HelpPrintsTheKeyTableAndExitsZero) {
  for (const char* flag : {"--help", "-h"}) {
    const CliRun cli = run_cli(flag);
    EXPECT_EQ(cli.status, 0) << cli.output;
    EXPECT_NE(cli.output.find(job_flags_usage()), std::string::npos);
  }
  const CliRun none = run_cli("");
  EXPECT_EQ(none.status, 2);
  EXPECT_NE(none.output.find("usage:"), std::string::npos);
}

TEST(CliParity, ToolsPrintUsageOnHelpAndExitZero) {
  // --help is a request, not an unknown option: the usage goes to stdout
  // and the exit code is 0, on every tool.
  for (const char* bin : {VCOMP_FUZZ_BIN, VCOMP_SERVE_BIN}) {
    for (const char* flag : {"--help", "-h"}) {
      const std::string cmd = std::string(bin) + " " + flag + " 2>/dev/null";
      std::string out;
      FILE* pipe = popen(cmd.c_str(), "r");
      ASSERT_NE(pipe, nullptr);
      char buf[4096];
      std::size_t n = 0;
      while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
      const int status = pclose(pipe);
      ASSERT_TRUE(WIFEXITED(status)) << bin << " " << flag;
      EXPECT_EQ(WEXITSTATUS(status), 0) << bin << " " << flag;
      EXPECT_EQ(out.rfind("usage: ", 0), 0u) << bin << " " << flag << "\n"
                                              << out;
      EXPECT_NE(out.find("--help"), std::string::npos) << bin;
    }
  }
  // An unknown option is still a usage error.
  const CliRun bad = run_cli("--bogus", "", VCOMP_FUZZ_BIN);
  EXPECT_EQ(bad.status, 2);
  EXPECT_NE(bad.output.find("unknown option: --bogus"), std::string::npos);
}

}  // namespace
}  // namespace vcomp::serve
