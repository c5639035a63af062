#include "vcomp/serve/protocol.hpp"

#include "vcomp/util/assert.hpp"

namespace vcomp::serve {

bool apply_config(const Json& config, JobSpec& spec, std::string& error) {
  try {
    if (!config.is_object()) throw InputError("config must be an object");
    for (const auto& [key, v] : config.members()) set_job_key(spec, key, v);
    return true;
  } catch (const InputError& e) {
    error = e.what();
    return false;
  }
}

std::optional<Request> parse_request(const std::string& line,
                                     RequestError& error) {
  error = {};
  const std::optional<Json> doc = Json::parse(line);
  if (!doc || !doc->is_object()) {
    error.message = "request is not a JSON object";
    return std::nullopt;
  }
  const Json* id = doc->find("id");
  if (id != nullptr && id->is_string()) error.id = id->as_string();
  const Json* op = doc->find("op");
  if (op == nullptr || !op->is_string()) {
    error.message = "missing \"op\"";
    return std::nullopt;
  }
  Request req;
  const std::string& o = op->as_string();
  if (o == "status") {
    req.op = Request::Op::Status;
    return req;
  }
  if (o == "ping") {
    req.op = Request::Op::Ping;
    return req;
  }
  if (o == "shutdown") {
    req.op = Request::Op::Shutdown;
    return req;
  }
  if (o != "submit") {
    error.message = "unknown op: " + o;
    return std::nullopt;
  }
  req.op = Request::Op::Submit;
  for (const auto& [key, v] : doc->members())
    if (key != "op" && key != "id" && key != "circuit" && key != "config") {
      error.message =
          "unknown submit key: " + key + " (job keys go in \"config\")";
      return std::nullopt;
    }
  if (error.id.empty()) {
    error.message = "submit requires a non-empty string \"id\"";
    return std::nullopt;
  }
  req.job.id = error.id;
  const Json* circuit = doc->find("circuit");
  if (circuit == nullptr || !circuit->is_string() ||
      circuit->as_string().empty()) {
    error.message = "submit requires a non-empty string \"circuit\"";
    return std::nullopt;
  }
  req.job.circuit = circuit->as_string();
  if (const Json* config = doc->find("config"))
    if (!apply_config(*config, req.job, error.message)) return std::nullopt;
  return req;
}

std::string circuit_label(const std::string& circuit, bool full_scale) {
  return full_scale ? circuit + "#full" : circuit;
}

std::string result_row(const std::string& label, const core::StitchResult& r,
                       const obs::CounterSet& counters) {
  // Built by direct string appends (not via Json) so the byte layout is
  // pinned by this function alone; keys in fixed order, doubles as %.6f.
  std::string out = "{\"circuit\":";
  append_json_string(out, label);
  auto field_u = [&out](const char* key, std::uint64_t v) {
    out += ",\"";
    out += key;
    out += "\":";
    out += std::to_string(v);
  };
  auto field_d = [&out](const char* key, double v) {
    out += ",\"";
    out += key;
    out += "\":";
    append_json_double(out, v);
  };
  field_u("tv", r.vectors_applied);
  field_u("ex", r.extra_full_vectors);
  field_u("atv", r.baseline_vectors);
  field_d("t", r.time_ratio);
  field_d("m", r.memory_ratio);
  field_u("shift_cycles", r.cost.shift_cycles);
  field_u("memory_bits", r.cost.memory_bits());
  field_u("targets", r.targets);
  field_u("caught_stitched", r.caught_stitched);
  field_u("caught_flush", r.caught_flush);
  field_u("caught_extra", r.caught_extra);
  field_u("uncovered", r.uncovered);
  field_u("hidden_peak", r.hidden_peak);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters.values) {
    if (!first) out += ',';
    append_json_string(out, name);
    out += ':';
    out += std::to_string(value);
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace vcomp::serve
