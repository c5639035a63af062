#include "vcomp/serve/protocol.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "vcomp/serve/job.hpp"
#include "vcomp/util/assert.hpp"

namespace vcomp::serve {
namespace {

TEST(Protocol, ParsesControlOps) {
  RequestError err;
  EXPECT_EQ(parse_request(R"({"op":"ping"})", err)->op, Request::Op::Ping);
  EXPECT_EQ(parse_request(R"({"op":"status"})", err)->op,
            Request::Op::Status);
  EXPECT_EQ(parse_request(R"({"op":"shutdown"})", err)->op,
            Request::Op::Shutdown);
}

TEST(Protocol, ParsesSubmitWithFullConfig) {
  RequestError err;
  const auto req = parse_request(
      R"({"op":"submit","id":"j7","circuit":"gen:s444","config":{)"
      R"("chains":4,"partition":"contiguous","partition_seed":9,)"
      R"("shift":12,"selection":"hardness","atpg":"race",)"
      R"("capture":"vxor","hxor":3,"seed":5,"max_cycles":100,)"
      R"("full_scale":true,"progress_every":8}})",
      err);
  ASSERT_TRUE(req.has_value()) << err.message;
  EXPECT_EQ(req->op, Request::Op::Submit);
  const JobSpec& j = req->job;
  EXPECT_EQ(j.id, "j7");
  EXPECT_EQ(j.circuit, "gen:s444");
  EXPECT_TRUE(j.full_scale);
  EXPECT_EQ(j.progress_every, 8u);
  EXPECT_EQ(j.options.num_chains, 4u);
  EXPECT_EQ(j.options.partition, scan::PartitionPolicy::Contiguous);
  EXPECT_EQ(j.options.partition_seed, 9u);
  EXPECT_EQ(j.options.fixed_shift, 12u);
  EXPECT_EQ(j.options.selection, core::SelectionPolicy::Hardness);
  EXPECT_EQ(j.options.atpg_engine, atpg::EngineKind::Race);
  EXPECT_EQ(j.options.capture, scan::CaptureMode::VXor);
  EXPECT_EQ(j.options.hxor_taps, 3u);
  EXPECT_EQ(j.options.seed, 5u);
  EXPECT_EQ(j.options.max_cycles, 100u);
}

TEST(Protocol, RejectsBadRequests) {
  RequestError err;
  EXPECT_FALSE(parse_request("not json", err).has_value());
  EXPECT_FALSE(parse_request(R"([1,2])", err).has_value());
  EXPECT_FALSE(parse_request(R"({"op":"frob"})", err).has_value());
  // submit without id / circuit
  EXPECT_FALSE(parse_request(R"({"op":"submit"})", err).has_value());
  EXPECT_FALSE(
      parse_request(R"({"op":"submit","id":"a"})", err).has_value());
  EXPECT_FALSE(
      parse_request(R"({"op":"submit","id":"","circuit":"x"})", err)
          .has_value());
}

TEST(Protocol, RejectsUnknownConfigKeyAndBadValues) {
  RequestError err;
  EXPECT_FALSE(parse_request(R"({"op":"submit","id":"a","circuit":"x",)"
                             R"("config":{"chians":4}})",
                             err)
                   .has_value());
  EXPECT_NE(err.message.find("chians"), std::string::npos);  // typo echoed back
  EXPECT_FALSE(parse_request(R"({"op":"submit","id":"a","circuit":"x",)"
                             R"("config":{"chains":0}})",
                             err)
                   .has_value());
  EXPECT_FALSE(parse_request(R"({"op":"submit","id":"a","circuit":"x",)"
                             R"("config":{"seed":-1}})",
                             err)
                   .has_value());
  EXPECT_FALSE(parse_request(R"({"op":"submit","id":"a","circuit":"x",)"
                             R"("config":{"info":1.5}})",
                             err)
                   .has_value());
  EXPECT_FALSE(parse_request(R"({"op":"submit","id":"a","circuit":"x",)"
                             R"("config":{"selection":"best"}})",
                             err)
                   .has_value());
}

TEST(Protocol, RejectsUnknownTopLevelSubmitKeys) {
  RequestError err;
  EXPECT_FALSE(parse_request(R"({"op":"submit","id":"a",)"
                             R"("circuit":"gen:s444","chains":-1})",
                             err)
                   .has_value());
  EXPECT_NE(err.message.find("chains"), std::string::npos);
  EXPECT_NE(err.message.find("config"), std::string::npos);  // the hint
}

TEST(Protocol, SubmitErrorsCarryTheParsedId) {
  RequestError err;
  // Rejected after the id parsed: the error names the job.
  EXPECT_FALSE(parse_request(R"({"op":"submit","id":"b6",)"
                             R"("circuit":"gen:s444","chains":-1})",
                             err)
                   .has_value());
  EXPECT_EQ(err.id, "b6");
  EXPECT_NE(err.message.find("chains"), std::string::npos);
  EXPECT_FALSE(parse_request(R"({"op":"submit","id":"b7"})", err)
                   .has_value());
  EXPECT_EQ(err.id, "b7");
  EXPECT_FALSE(parse_request(R"({"op":"submit","id":"b8","circuit":"x",)"
                             R"("config":{"chains":0}})",
                             err)
                   .has_value());
  EXPECT_EQ(err.id, "b8");
  EXPECT_EQ(err.message, "chains must be a positive integer");
  // No usable id: the error carries none, and a previous one never leaks.
  EXPECT_FALSE(parse_request(R"({"op":"submit","id":7,"circuit":"x"})", err)
                   .has_value());
  EXPECT_EQ(err.id, "");
  EXPECT_FALSE(parse_request("not json", err).has_value());
  EXPECT_EQ(err.id, "");
}

/// A job key's value in both spellings: the CLI token (nullptr for the
/// boolean flag, which takes none) and the JSON member value.
struct KeyCase {
  const char* key;
  const char* cli;
  const char* json;
};

/// The spec `--<key> <cli>` gives; the error text if it is rejected.
std::string spec_from_cli(const KeyCase& c, JobSpec& spec) {
  std::string flag = std::string("--") + c.key;
  std::replace(flag.begin(), flag.end(), '_', '-');
  std::vector<std::string> args = {flag};
  if (c.cli != nullptr) args.emplace_back(c.cli);
  try {
    std::size_t i = 0;
    EXPECT_TRUE(apply_job_flag(args, i, spec)) << flag;
    EXPECT_EQ(i, args.size() - 1) << flag;
  } catch (const InputError& e) {
    return e.what();
  }
  return "";
}

/// The spec `{"<key>":<json>}` gives; the error text if it is rejected.
std::string spec_from_json(const KeyCase& c, JobSpec& spec) {
  const std::string config = std::string("{\"") + c.key + "\":" + c.json + "}";
  const std::optional<Json> doc = Json::parse(config);
  EXPECT_TRUE(doc.has_value()) << config;
  std::string err;
  if (!doc || apply_config(*doc, spec, err)) return "";
  EXPECT_FALSE(err.empty());
  return err;
}

/// Every field a job key can set, rendered for comparison.
std::string fields(const JobSpec& s) {
  const core::StitchOptions& o = s.options;
  std::ostringstream out;
  out << s.full_scale << ' ' << s.info << ' ' << s.ga_shift << ' '
      << s.ga.population << ' ' << s.ga.generations << ' ' << s.ga.genes
      << ' ' << s.progress_every << ' ' << o.num_chains << ' '
      << int(o.partition) << ' ' << o.partition_seed << ' ' << o.fixed_shift
      << ' ' << int(o.selection) << ' ' << int(o.atpg_engine) << ' '
      << int(o.capture) << ' ' << o.hxor_taps << ' ' << o.seed << ' '
      << o.max_cycles;
  return out.str();
}

// One accepted value per key that differs from its default, plus the
// other spellings of shift.
const KeyCase kAccepted[] = {
    {"chains", "4", "4"},
    {"partition", "contiguous", "\"contiguous\""},
    {"partition_seed", "9", "9"},
    {"shift", "12", "12"},
    {"shift", "ga", "\"ga\""},
    {"info", "0.875", "0.875"},
    {"ga_pop", "4", "4"},
    {"ga_gens", "2", "2"},
    {"ga_genes", "4", "4"},
    {"selection", "adi", "\"adi\""},
    {"atpg", "sat", "\"sat\""},
    {"capture", "vxor", "\"vxor\""},
    {"hxor", "3", "3"},
    {"seed", "5", "5"},
    {"max_cycles", "100", "100"},
    {"full_scale", nullptr, "true"},
    {"progress_every", "8", "8"},
};

TEST(JobKeys, CliAndJsonSpellingsGiveIdenticalSpecs) {
  std::set<std::string> covered;
  for (const KeyCase& c : kAccepted) {
    JobSpec from_cli, from_json;
    EXPECT_EQ(spec_from_cli(c, from_cli), "") << c.key;
    EXPECT_EQ(spec_from_json(c, from_json), "") << c.key;
    EXPECT_EQ(fields(from_cli), fields(from_json)) << c.key;
    EXPECT_NE(fields(from_cli), fields(JobSpec{})) << c.key << " had no effect";
    covered.insert(c.key);
  }
  // A key added to the table must get a case here: the usage text has
  // one line per key.
  const std::string usage = job_flags_usage();
  EXPECT_EQ(std::size_t(std::count(usage.begin(), usage.end(), '\n')),
            covered.size());
  for (std::string key : covered) {
    std::replace(key.begin(), key.end(), '_', '-');
    EXPECT_NE(usage.find("  --" + key + ' '), std::string::npos) << key;
  }

  // shift var undoes shift ga and a fixed size alike.
  JobSpec s;
  set_job_key(s, "shift", Json::string("ga"));
  set_job_key(s, "shift", Json::string("var"));
  EXPECT_EQ(fields(s), fields(JobSpec{}));
}

TEST(JobKeys, BadValuesGetOneMessageOnBothSurfaces) {
  const std::pair<KeyCase, const char*> kRejected[] = {
      {{"chains", "0", "0"}, "chains must be a positive integer"},
      {{"chains", "abc", "\"abc\""}, "chains must be a positive integer"},
      {{"chains", "-1", "-1"}, "chains must be a positive integer"},
      {{"chains", "2.5", "2.5"}, "chains must be a positive integer"},
      {{"partition", "zigzag", "\"zigzag\""},
       "partition must be round-robin | contiguous | random"},
      {{"partition_seed", "x", "\"x\""},
       "partition_seed must be a non-negative integer"},
      {{"shift", "fast", "\"fast\""},
       "shift must be a non-negative integer, \"var\" or \"ga\""},
      {{"shift", "-3", "-3"},
       "shift must be a non-negative integer, \"var\" or \"ga\""},
      {{"info", "2", "2"}, "info must be a number in (0,1]"},
      {{"info", "0", "0"}, "info must be a number in (0,1]"},
      {{"ga_pop", "0", "0"}, "ga_pop must be an integer >= 3"},
      {{"ga_pop", "2", "2"}, "ga_pop must be an integer >= 3"},
      {{"ga_gens", "x", "\"x\""}, "ga_gens must be a non-negative integer"},
      {{"ga_genes", "0", "0"}, "ga_genes must be a positive integer"},
      {{"selection", "best", "\"best\""},
       "selection must be random | hardness | most-faults | adi"},
      {{"atpg", "magic", "\"magic\""}, "atpg must be podem | sat | race"},
      {{"capture", "hxor", "\"hxor\""}, "capture must be normal | vxor"},
      {{"hxor", "x", "\"x\""}, "hxor must be a non-negative integer"},
      {{"seed", "x", "\"x\""}, "seed must be a non-negative integer"},
      {{"seed", "-1", "-1"}, "seed must be a non-negative integer"},
      {{"max_cycles", "-1", "-1"},
       "max_cycles must be a non-negative integer"},
      {{"progress_every", "x", "\"x\""},
       "progress_every must be a non-negative integer"},
  };
  for (const auto& [c, message] : kRejected) {
    JobSpec a, b;
    EXPECT_EQ(spec_from_cli(c, a), message) << c.key << " " << c.cli;
    EXPECT_EQ(spec_from_json(c, b), message) << c.key << " " << c.json;
  }
  // The boolean key has no CLI value to get wrong.
  JobSpec s;
  EXPECT_EQ(spec_from_json({"full_scale", nullptr, "1"}, s),
            "full_scale must be a boolean");
}

TEST(JobKeys, GaShiftExcludesInfoInEitherOrder) {
  const std::string message = "shift ga and info are mutually exclusive";
  std::string err;
  for (const char* config : {R"({"shift":"ga","info":0.5})",
                             R"({"info":0.5,"shift":"ga"})"}) {
    JobSpec s;
    EXPECT_FALSE(apply_config(*Json::parse(config), s, err)) << config;
    EXPECT_EQ(err, message);
  }
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--shift", "ga", "--info", "0.5"},
        std::vector<std::string>{"--info", "0.5", "--shift", "ga"}}) {
    JobSpec s;
    try {
      for (std::size_t i = 0; i < args.size(); ++i) apply_job_flag(args, i, s);
      ADD_FAILURE() << "accepted " << args[0];
    } catch (const InputError& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }
}

TEST(JobKeys, CliFlagEdgeCases) {
  JobSpec s;
  std::size_t i = 0;
  // Tokens that name no job key are left to the caller.
  for (const char* token : {"--out", "gen:s444", "--chians", "-h"}) {
    const std::vector<std::string> args = {token, "1"};
    EXPECT_FALSE(apply_job_flag(args, i, s)) << token;
    EXPECT_EQ(i, 0u);
  }
  const std::vector<std::string> args = {"--chains"};
  EXPECT_THROW(apply_job_flag(args, i, s), InputError);
  EXPECT_THROW(set_job_key(s, "chians", Json::integer(4)), InputError);
}

TEST(Protocol, CircuitLabel) {
  EXPECT_EQ(circuit_label("gen:s444", false), "gen:s444");
  EXPECT_EQ(circuit_label("gen:s38417", true), "gen:s38417#full");
}

TEST(Protocol, ResultRowIsCanonical) {
  core::StitchResult r;
  r.vectors_applied = 10;
  r.extra_full_vectors = 2;
  r.baseline_vectors = 8;
  r.time_ratio = 0.5;
  r.memory_ratio = 0.25;
  r.cost.shift_cycles = 100;
  r.cost.stim_bits = 60;
  r.cost.resp_bits = 40;
  r.targets = 99;
  r.caught_stitched = 90;
  r.caught_flush = 5;
  r.caught_extra = 4;
  r.hidden_peak = 7;
  obs::CounterSet cs;
  cs.values.emplace_back("b.one", 1);
  const std::string row = result_row("gen:x", r, cs);
  EXPECT_EQ(row,
            "{\"circuit\":\"gen:x\",\"tv\":10,\"ex\":2,\"atv\":8,"
            "\"t\":0.500000,\"m\":0.250000,\"shift_cycles\":100,"
            "\"memory_bits\":100,\"targets\":99,\"caught_stitched\":90,"
            "\"caught_flush\":5,\"caught_extra\":4,\"uncovered\":0,"
            "\"hidden_peak\":7,\"counters\":{\"b.one\":1}}");
  // The row is itself valid single-line JSON.
  EXPECT_TRUE(Json::parse(row).has_value());
  EXPECT_EQ(row.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace vcomp::serve
