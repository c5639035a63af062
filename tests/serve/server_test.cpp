#include "vcomp/serve/server.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "vcomp/netgen/example_circuit.hpp"
#include "vcomp/netlist/bench_io.hpp"
#include "vcomp/serve/json.hpp"
#include "vcomp/util/parallel.hpp"

namespace vcomp::serve {
namespace {

/// Writes the paper's example circuit to a temp .bench file once; jobs
/// reference it by path so tests stay fast (no netgen baseline ATPG).
/// ctest runs every test in its own process, so the name carries the pid:
/// a shared name would let one process truncate the file while another
/// reads it.  Rows are compared within one process only.  The file is
/// removed when the process exits.
std::string example_bench_path() {
  struct TempBench {
    std::string path = testing::TempDir() + "serve_example." +
                       std::to_string(::getpid()) + ".bench";
    TempBench() {
      std::ofstream(path) << netlist::write_bench_string(
          netgen::example_circuit());
    }
    ~TempBench() { std::remove(path.c_str()); }
  };
  static const TempBench file;
  return file.path;
}

std::vector<std::string> submit_lines() {
  const std::string c = example_bench_path();
  auto submit = [&c](const std::string& id, const std::string& config) {
    return "{\"op\":\"submit\",\"id\":\"" + id + "\",\"circuit\":\"" + c +
           "\",\"config\":" + config + "}";
  };
  return {
      submit("j1", "{\"chains\":2}"),
      submit("j2", "{\"seed\":7,\"selection\":\"random\"}"),
      submit("j3", "{\"capture\":\"vxor\",\"atpg\":\"race\"}"),
      submit("j4", "{\"chains\":2}"),  // identical to j1: same row expected
  };
}

/// Runs the lines through one server and returns id → result/error line.
std::map<std::string, std::string> run_jobs(
    const std::vector<std::string>& lines, std::size_t max_jobs) {
  Server server(ServeOptions{.max_active_jobs = max_jobs});
  std::vector<std::string> events;
  const Server::Sink sink = [&events](const std::string& line) {
    events.push_back(line);  // serialized by the server's emit lock
  };
  for (const std::string& line : lines)
    EXPECT_TRUE(server.handle_line(line, sink));
  server.drain();
  std::map<std::string, std::string> rows;
  for (const std::string& e : events) {
    const auto j = Json::parse(e);
    if (!j.has_value()) {
      ADD_FAILURE() << "unparseable event: " << e;
      continue;
    }
    const std::string& ev = j->find("event")->as_string();
    if (ev != "result" && ev != "error") continue;
    rows[j->find("id")->as_string()] = e;
  }
  return rows;
}

TEST(Server, ConcurrentMatchesSequentialAtEveryThreadCount) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const util::ScopedParallelism scoped(threads);
    const auto lines = submit_lines();
    const auto concurrent = run_jobs(lines, 4);
    // Sequential reference: one job at a time, reversed arrival order.
    auto reversed = lines;
    std::reverse(reversed.begin(), reversed.end());
    const auto sequential = run_jobs(reversed, 1);
    ASSERT_EQ(concurrent.size(), 4u);
    // Byte-identical result lines per job id, independent of concurrency
    // and arrival order (and, across loop iterations, of thread count —
    // checked below).
    EXPECT_EQ(concurrent, sequential) << "threads=" << threads;
    for (const auto& [id, line] : concurrent)
      EXPECT_NE(line.find("\"event\":\"result\""), std::string::npos)
          << id << ": " << line;
  }
}

TEST(Server, ThreadCountInvariantRows) {
  std::map<std::string, std::string> at1, at4;
  {
    const util::ScopedParallelism scoped(1);
    at1 = run_jobs(submit_lines(), 2);
  }
  {
    const util::ScopedParallelism scoped(4);
    at4 = run_jobs(submit_lines(), 2);
  }
  EXPECT_EQ(at1, at4);
}

TEST(Server, IdenticalJobsShareArtifactsAndAgree) {
  Server server(ServeOptions{.max_active_jobs = 4});
  std::vector<std::string> events;
  const Server::Sink sink = [&events](const std::string& line) {
    events.push_back(line);
  };
  for (const std::string& line : submit_lines())
    ASSERT_TRUE(server.handle_line(line, sink));
  server.drain();
  // All four jobs name the same .bench file: one cache miss, three hits.
  const ArtifactRegistry::Stats st = server.registry().stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 3u);
  // j1 and j4 ran the same config — identical rows modulo the id.
  std::string r1, r4;
  for (const std::string& e : events) {
    if (e.find("\"event\":\"result\"") == std::string::npos) continue;
    if (e.find("\"id\":\"j1\"") != std::string::npos) r1 = e;
    if (e.find("\"id\":\"j4\"") != std::string::npos) r4 = e;
  }
  ASSERT_FALSE(r1.empty());
  const auto row_of = [](const std::string& e) {
    return e.substr(e.find("\"row\":"));
  };
  EXPECT_EQ(row_of(r1), row_of(r4));
}

TEST(Server, StreamsProgressEvents) {
  Server server(ServeOptions{.max_active_jobs = 1});
  std::vector<std::string> events;
  const Server::Sink sink = [&events](const std::string& line) {
    events.push_back(line);
  };
  const std::string line =
      "{\"op\":\"submit\",\"id\":\"p\",\"circuit\":\"" +
      example_bench_path() + "\",\"config\":{\"progress_every\":1}}";
  ASSERT_TRUE(server.handle_line(line, sink));
  server.drain();
  std::size_t progress = 0, last_cycle = 0;
  bool result = false;
  for (const std::string& e : events) {
    const auto j = Json::parse(e);
    ASSERT_TRUE(j.has_value()) << e;
    const std::string& ev = j->find("event")->as_string();
    if (ev == "progress") {
      const auto cycle = std::size_t(j->find("cycle")->as_int());
      EXPECT_GT(cycle, last_cycle);  // cycles strictly increase
      last_cycle = cycle;
      ++progress;
    } else if (ev == "result") {
      result = true;
    }
  }
  EXPECT_TRUE(result);
  EXPECT_GT(progress, 0u);
}

TEST(Server, BadJobEmitsErrorAndServerSurvives) {
  Server server;
  std::vector<std::string> events;
  const Server::Sink sink = [&events](const std::string& line) {
    events.push_back(line);
  };
  ASSERT_TRUE(server.handle_line(
      "{\"op\":\"submit\",\"id\":\"bad\",\"circuit\":\"gen:nosuch\"}",
      sink));
  server.drain();
  ASSERT_TRUE(server.handle_line(
      "{\"op\":\"submit\",\"id\":\"ok\",\"circuit\":\"" +
          example_bench_path() + "\"}",
      sink));
  server.drain();
  bool saw_error = false, saw_result = false;
  for (const std::string& e : events) {
    if (e.find("\"event\":\"error\"") != std::string::npos &&
        e.find("\"id\":\"bad\"") != std::string::npos)
      saw_error = true;
    if (e.find("\"event\":\"result\"") != std::string::npos &&
        e.find("\"id\":\"ok\"") != std::string::npos)
      saw_result = true;
  }
  EXPECT_TRUE(saw_error);
  EXPECT_TRUE(saw_result);
}

TEST(Server, BadSizeFailsBeforeAnyLabIsBuilt) {
  // The daemon checks sizes on the loaded netlist, as the CLI does, so a
  // rejected job builds no lab (no baseline ATPG) and caches nothing.
  Server server;
  std::vector<std::string> events;
  const Server::Sink sink = [&events](const std::string& line) {
    events.push_back(line);
  };
  ASSERT_TRUE(server.handle_line(
      "{\"op\":\"submit\",\"id\":\"big\",\"circuit\":\"gen:s444\","
      "\"config\":{\"shift\":99999}}",
      sink));
  server.drain();
  std::string message;
  for (const std::string& e : events) {
    const auto j = Json::parse(e);
    ASSERT_TRUE(j.has_value()) << e;
    EXPECT_NE(j->find("event")->as_string(), "result") << e;
    if (j->find("event")->as_string() == "error")
      message = j->find("message")->as_string();
  }
  EXPECT_EQ(message, "shift 99999 exceeds the circuit's 21 scan cells");
  const ArtifactRegistry::Stats st = server.registry().stats();
  EXPECT_EQ(st.misses, 0u);
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(server.registry().size(), 0u);

  // A good job on the same circuit builds it once; a bad one after it is
  // checked against the cached lab's netlist and leaves the cache alone.
  for (const char* line :
       {"{\"op\":\"submit\",\"id\":\"ok\",\"circuit\":\"gen:s444\"}",
        "{\"op\":\"submit\",\"id\":\"big2\",\"circuit\":\"gen:s444\","
        "\"config\":{\"chains\":99}}"}) {
    ASSERT_TRUE(server.handle_line(line, sink));
    server.drain();
  }
  EXPECT_EQ(server.registry().stats().misses, 1u);
  EXPECT_EQ(server.registry().size(), 1u);
  EXPECT_NE(events.back().find("chains 99 exceeds the circuit's 21 scan "
                               "cells"),
            std::string::npos)
      << events.back();
}

TEST(Server, ControlOps) {
  Server server;
  std::vector<std::string> events;
  const Server::Sink sink = [&events](const std::string& line) {
    events.push_back(line);
  };
  EXPECT_TRUE(server.handle_line("{\"op\":\"ping\"}", sink));
  EXPECT_TRUE(server.handle_line("{\"op\":\"status\"}", sink));
  EXPECT_TRUE(server.handle_line("", sink));          // blank keep-alive
  EXPECT_TRUE(server.handle_line("garbage", sink));   // error event, alive
  EXPECT_FALSE(server.handle_line("{\"op\":\"shutdown\"}", sink));
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0], "{\"event\":\"pong\"}");
  EXPECT_NE(events[1].find("\"event\":\"status\""), std::string::npos);
  EXPECT_NE(events[2].find("\"event\":\"error\""), std::string::npos);
  EXPECT_EQ(events[3], "{\"event\":\"bye\"}");
}

}  // namespace
}  // namespace vcomp::serve
