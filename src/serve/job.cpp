#include "vcomp/serve/job.hpp"

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <utility>

#include "vcomp/netgen/netgen.hpp"
#include "vcomp/netlist/bench_io.hpp"
#include "vcomp/netlist/verilog_io.hpp"
#include "vcomp/obs/metrics.hpp"
#include "vcomp/scan/fabric.hpp"
#include "vcomp/serve/protocol.hpp"
#include "vcomp/util/parallel.hpp"

namespace vcomp::serve {

namespace {

using V = const Json&;

template <class T>
bool to_uint(V v, T& out, std::int64_t min = 0) {
  if (v.kind() != Json::Kind::Int || v.as_int() < min) return false;
  out = static_cast<T>(v.as_int());
  return true;
}

template <class E>
bool to_enum(V v, E& out,
             std::initializer_list<std::pair<const char*, E>> names) {
  for (const auto& [name, e] : names)
    if (v.is_string() && v.as_string() == name) {
      out = e;
      return true;
    }
  return false;
}

bool set_shift(JobSpec& s, V v) {
  bool ga = false;
  if (to_enum(v, ga, {{"var", false}, {"ga", true}})) s.options.fixed_shift = 0;
  else if (!to_uint(v, s.options.fixed_shift)) return false;
  s.ga_shift = ga;
  return true;
}

/// One row of the job key table.
struct JobKey {
  const char* name;    ///< JSON spelling; the CLI flag is --name, '_' as '-'
  const char* value;   ///< usage placeholder; "" for the boolean flag
  const char* help;    ///< usage text
  const char* expect;  ///< the message on a bad value: "<name> must be …"
  bool (*set)(JobSpec&, V);  ///< false on a bad value, spec untouched
};

const JobKey kKeys[] = {
    {"chains", "n", "parallel scan chains (default 1)", "a positive integer",
     [](JobSpec& s, V v) { return to_uint(v, s.options.num_chains, 1); }},
    {"partition", "p", "DFF-to-chain order: round-robin (default), "
     "contiguous or random", "round-robin | contiguous | random",
     [](JobSpec& s, V v) {
       return v.is_string() &&
              scan::partition_from_string(v.as_string(), s.options.partition);
     }},
    {"partition_seed", "n", "seed of the random partition",
     "a non-negative integer",
     [](JobSpec& s, V v) { return to_uint(v, s.options.partition_seed); }},
    {"shift", "n|var|ga", "fixed shift size n; var = escalating variable "
     "shift (default); ga = evolve a per-cycle schedule, run the winner",
     "a non-negative integer, \"var\" or \"ga\"", set_shift},
    {"info", "r", "fixed shift at Table-2 info point r in (0,1]",
     "a number in (0,1]",
     [](JobSpec& s, V v) {
       if (!v.is_number() || v.as_double() <= 0.0 || v.as_double() > 1.0)
         return false;
       s.info = v.as_double();
       return true;
     }},
    // Two elites plus room to breed.
    {"ga_pop", "n", "GA population (default 12)", "an integer >= 3",
     [](JobSpec& s, V v) { return to_uint(v, s.ga.population, 3); }},
    {"ga_gens", "n", "GA generations (default 8)", "a non-negative integer",
     [](JobSpec& s, V v) { return to_uint(v, s.ga.generations); }},
    {"ga_genes", "n", "GA chromosome length (default 10)", "a positive integer",
     [](JobSpec& s, V v) { return to_uint(v, s.ga.genes, 1); }},
    {"selection", "s", "target order: random, hardness, most-faults "
     "(default) or adi", "random | hardness | most-faults | adi",
     [](JobSpec& s, V v) {
       using P = core::SelectionPolicy;
       return to_enum(v, s.options.selection,
                      {{"random", P::Random}, {"hardness", P::Hardness},
                       {"most-faults", P::MostFaults}, {"adi", P::Adi}});
     }},
    {"atpg", "e", "ATPG engine: podem, sat or race (default: VCOMP_ATPG, "
     "else podem)", "podem | sat | race",
     [](JobSpec& s, V v) {
       return v.is_string() && atpg::engine_kind_from_string(
                                   v.as_string(), s.options.atpg_engine);
     }},
    {"capture", "c", "capture mode: normal (default) or vxor",
     "normal | vxor",
     [](JobSpec& s, V v) {
       return to_enum(v, s.options.capture,
                      {{"normal", scan::CaptureMode::Normal},
                       {"vxor", scan::CaptureMode::VXor}});
     }},
    {"hxor", "taps", "horizontal-XOR scan-out taps (default 0: direct)",
     "a non-negative integer",
     [](JobSpec& s, V v) { return to_uint(v, s.options.hxor_taps); }},
    {"seed", "n", "run seed (default 1)", "a non-negative integer",
     [](JobSpec& s, V v) { return to_uint(v, s.options.seed); }},
    {"max_cycles", "n", "cap on stitched cycles (default 0: 6 aTV + 64)",
     "a non-negative integer",
     [](JobSpec& s, V v) { return to_uint(v, s.options.max_cycles); }},
    {"full_scale", "", "lift the gate-budget cap of gen:s38417/s38584",
     "a boolean",
     [](JobSpec& s, V v) {
       if (v.is_bool()) s.full_scale = v.as_bool();
       return v.is_bool();
     }},
    {"progress_every", "n", "progress event every n cycles (default 0: "
     "none; the CLI prints them to stderr)", "a non-negative integer",
     [](JobSpec& s, V v) { return to_uint(v, s.progress_every); }},
};

const JobKey* find_key(std::string_view name) {
  for (const JobKey& k : kKeys)
    if (name == k.name) return &k;
  return nullptr;
}

}  // namespace

void set_job_key(JobSpec& spec, std::string_view key, const Json& value) {
  const JobKey* k = find_key(key);
  if (k == nullptr) throw InputError("unknown job key: " + std::string(key));
  if (!k->set(spec, value))
    throw InputError(std::string(key) + " must be " + k->expect);
  if (spec.ga_shift && spec.info > 0.0)
    throw InputError("shift ga and info are mutually exclusive");
}

bool apply_job_flag(const std::vector<std::string>& args, std::size_t& i,
                    JobSpec& spec) {
  const std::string& flag = args[i];
  std::string key = flag.rfind("--", 0) == 0 ? flag.substr(2) : "";
  std::replace(key.begin(), key.end(), '-', '_');
  const JobKey* k = find_key(key);
  if (k == nullptr) return false;
  const bool bare = *k->value == '\0';  // the boolean key takes no value
  if (!bare && i + 1 >= args.size())
    throw InputError("missing value for " + flag);
  const std::string text = bare ? "true" : args[++i];
  const std::optional<Json> v = Json::parse(text);
  set_job_key(spec, key,
              v && !v->is_array() && !v->is_object() ? *v : Json::string(text));
  return true;
}

std::string job_flags_usage() {
  std::string out;
  for (const JobKey& k : kKeys) {
    std::string flag = std::string("--") + k.name + ' ' + k.value;
    std::replace(flag.begin(), flag.end(), '_', '-');
    flag.resize(std::max<std::size_t>(flag.size(), 22), ' ');
    out += "  " + flag + ' ' + k.help + '\n';
  }
  return out;
}

netlist::Netlist load_circuit(const std::string& circuit, bool full_scale) {
  const bool generated = circuit.rfind("gen:", 0) == 0;
  if (full_scale && !generated)
    throw InputError("full_scale only applies to gen:<profile> circuits");
  netlist::Netlist nl;
  if (generated) {
    const std::string name = circuit.substr(4);
    const std::optional<netgen::CircuitProfile> p = netgen::find_profile(name);
    if (!p) throw InputError("unknown circuit profile: " + name);
    nl = netgen::generate(full_scale ? netgen::full_scale_profile(name) : *p);
  } else if (circuit.ends_with(".v") || circuit.ends_with(".sv")) {
    nl = netlist::read_verilog_file(circuit);
  } else {
    nl = netlist::read_bench_file(circuit);
  }
  if (nl.num_dffs() == 0)
    throw InputError(circuit + " has no flip-flops to scan");
  return nl;
}

core::StitchOptions checked_options(const netlist::Netlist& nl,
                                    const JobSpec& spec) {
  core::StitchOptions opts = spec.options;
  for (const auto& [key, n] : {std::pair{"chains", opts.num_chains},
                               std::pair{"shift", opts.fixed_shift}})
    if (n > nl.num_dffs())
      throw InputError(std::string(key) + " " + std::to_string(n) +
                       " exceeds the circuit's " +
                       std::to_string(nl.num_dffs()) + " scan cells");
  if (spec.info > 0.0 && !core::apply_info_ratio(opts, nl, spec.info)) {
    char msg[80];
    std::snprintf(msg, sizeof msg,
                  "info point %g is unattainable for this circuit", spec.info);
    throw InputError(msg);
  }
  return opts;
}

JobRun run_spec(const core::CircuitLab& lab, const JobSpec& spec,
                const std::function<void(const std::string&)>& progress,
                const std::atomic<std::size_t>* cap) {
  core::StitchOptions opts = checked_options(lab.netlist(), spec);
  JobRun run;
  if (spec.ga_shift) {
    // The search runs outside the row's counter window: it chooses the
    // schedule, the row reports the run of the winner.
    const util::ScopedTaskContext ambient(util::TaskContext{0, cap});
    core::GaOptions ga = spec.ga;
    ga.seed = opts.seed;
    run.ga = core::evolve_schedule(lab, opts, ga);
    opts = core::apply_ga_schedule(opts, *run.ga);
  }
  if (spec.progress_every > 0 && progress) {
    opts.on_cycle = [every = spec.progress_every, id = spec.id, progress](
                        std::size_t cycle, const core::CycleStats& st) {
      if (cycle % every != 0) return;
      std::string out = "{\"event\":\"progress\",\"id\":";
      append_json_string(out, id);
      out += ",\"cycle\":" + std::to_string(cycle) +
             ",\"caught_shift\":" + std::to_string(st.caught_at_shift) +
             ",\"caught_po\":" + std::to_string(st.caught_at_po) +
             ",\"hidden\":" + std::to_string(st.hidden_after) + '}';
      progress(out);
    };
  }
  const obs::CounterSet counters =
      obs::scoped_counters([&] { run.result = lab.run(opts); }, cap);
  run.row = result_row(circuit_label(spec.circuit, spec.full_scale),
                       run.result, counters);
  return run;
}

}  // namespace vcomp::serve
