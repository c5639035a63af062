#include "vcomp/netlist/bench_io.hpp"

#include <cctype>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "vcomp/util/assert.hpp"

namespace vcomp::netlist {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
         c == '[' || c == ']' || c == '-';
}

/// Intermediate representation of one "LHS = TYPE(args)" line.
struct Def {
  std::string lhs;
  GateType type;
  std::vector<std::string> args;
  std::size_t line;
};

}  // namespace

Netlist read_bench(std::istream& in) {
  std::vector<std::string> input_names;
  std::vector<std::string> output_names;
  std::vector<Def> defs;

  std::string raw;
  std::size_t lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    std::string_view line = raw;
    if (auto hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    auto parse_paren_arg = [&](std::string_view l,
                               std::string_view kw) -> std::string {
      std::string_view rest = trim(l.substr(kw.size()));
      if (rest.empty() || rest.front() != '(' || rest.back() != ')')
        throw BenchParseError(lineno, std::string(kw) + " expects (name)");
      std::string name(trim(rest.substr(1, rest.size() - 2)));
      if (name.empty())
        throw BenchParseError(lineno, std::string(kw) + " with empty name");
      return name;
    };

    if (line.size() >= 5 && (line.substr(0, 5) == "INPUT" ||
                             line.substr(0, 5) == "input")) {
      input_names.push_back(parse_paren_arg(line, "INPUT"));
      continue;
    }
    if (line.size() >= 6 && (line.substr(0, 6) == "OUTPUT" ||
                             line.substr(0, 6) == "output")) {
      output_names.push_back(parse_paren_arg(line, "OUTPUT"));
      continue;
    }

    auto eq = line.find('=');
    if (eq == std::string_view::npos)
      throw BenchParseError(lineno, "expected '=' in gate definition");
    std::string lhs(trim(line.substr(0, eq)));
    if (lhs.empty() || !is_name_char(lhs.front()))
      throw BenchParseError(lineno, "bad signal name on LHS");
    std::string_view rhs = trim(line.substr(eq + 1));
    auto open = rhs.find('(');
    if (open == std::string_view::npos || rhs.back() != ')')
      throw BenchParseError(lineno, "expected TYPE(arg, ...) on RHS");
    std::string_view kw = trim(rhs.substr(0, open));
    auto type = gate_type_from_string(kw);
    if (!type)
      throw BenchParseError(lineno, "unknown gate type '" + std::string(kw) +
                                        "'");
    std::string_view args = rhs.substr(open + 1, rhs.size() - open - 2);

    Def def{std::move(lhs), *type, {}, lineno};
    std::string cur;
    for (char c : args) {
      if (c == ',') {
        std::string a(trim(cur));
        if (a.empty()) throw BenchParseError(lineno, "empty fanin name");
        def.args.push_back(std::move(a));
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
    std::string last(trim(cur));
    if (!last.empty()) def.args.push_back(std::move(last));
    if (def.args.empty())
      throw BenchParseError(lineno, "gate with no fanins");
    defs.push_back(std::move(def));
  }

  // Pass 1: create all signal-producing nodes so forward references resolve.
  Netlist nl;
  for (auto& n : input_names) nl.add_input(n);
  for (auto& d : defs) {
    if (d.type == GateType::Dff) {
      if (d.args.size() != 1)
        throw BenchParseError(d.line, "DFF takes exactly one argument");
      if (nl.find(d.lhs) != kNoGate)
        throw BenchParseError(d.line, "redefinition of '" + d.lhs + "'");
      nl.add_dff(d.lhs);
    }
  }
  // Combinational gates must be created after their fanins exist as ids; we
  // create placeholders in order of definition, resolving names lazily by
  // first creating every LHS.  Easiest: two sub-passes — declare, then wire.
  // Netlist requires fanins at add_gate time, so instead topologically defer:
  // create comb gates in an order where all fanins already exist.
  std::unordered_map<std::string, const Def*> comb_by_name;
  for (const auto& d : defs)
    if (d.type != GateType::Dff) {
      if (comb_by_name.count(d.lhs) || nl.find(d.lhs) != kNoGate)
        throw BenchParseError(d.line, "redefinition of '" + d.lhs + "'");
      comb_by_name.emplace(d.lhs, &d);
    }

  // Iteratively add gates whose fanins are all resolvable.
  std::size_t remaining = comb_by_name.size();
  bool progress = true;
  std::vector<const Def*> pending;
  pending.reserve(remaining);
  for (const auto& d : defs)
    if (d.type != GateType::Dff) pending.push_back(&d);
  while (remaining > 0 && progress) {
    progress = false;
    for (const Def*& dp : pending) {
      if (dp == nullptr) continue;
      bool ok = true;
      for (const auto& a : dp->args)
        if (nl.find(a) == kNoGate) { ok = false; break; }
      if (!ok) continue;
      std::vector<GateId> fanin;
      fanin.reserve(dp->args.size());
      for (const auto& a : dp->args) fanin.push_back(nl.find(a));
      nl.add_gate(dp->type, dp->lhs, std::move(fanin));
      dp = nullptr;
      --remaining;
      progress = true;
    }
  }
  if (remaining > 0) {
    for (const Def* dp : pending)
      if (dp != nullptr)
        throw BenchParseError(dp->line,
                              "unresolved fanin (undefined signal or "
                              "combinational cycle) for '" + dp->lhs + "'");
  }

  // Wire DFF next-state inputs.
  for (const auto& d : defs) {
    if (d.type != GateType::Dff) continue;
    GateId src = nl.find(d.args[0]);
    if (src == kNoGate)
      throw BenchParseError(d.line, "undefined DFF input '" + d.args[0] + "'");
    nl.set_dff_input(nl.find(d.lhs), src);
  }

  for (const auto& n : output_names) {
    GateId g = nl.find(n);
    if (g == kNoGate)
      throw BenchParseError(0, "undefined OUTPUT signal '" + n + "'");
    nl.mark_output(g);
  }

  nl.finalize();
  return nl;
}

Netlist read_bench_string(std::string_view text) {
  std::istringstream in{std::string(text)};
  return read_bench(in);
}

Netlist read_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw InputError("cannot open bench file: " + path);
  return read_bench(in);
}

void write_bench(std::ostream& out, const Netlist& nl) {
  VCOMP_REQUIRE(nl.finalized(), "write_bench requires a finalized netlist");
  for (GateId id : nl.inputs()) out << "INPUT(" << nl.gate(id).name << ")\n";
  for (GateId id : nl.outputs()) out << "OUTPUT(" << nl.gate(id).name << ")\n";
  out << "\n";
  for (GateId id : nl.dffs()) {
    const Gate& g = nl.gate(id);
    out << g.name << " = DFF(" << nl.gate(g.fanin[0]).name << ")\n";
  }
  for (GateId id : nl.topo_order()) {
    const Gate& g = nl.gate(id);
    out << g.name << " = " << to_string(g.type) << "(";
    for (std::size_t i = 0; i < g.fanin.size(); ++i) {
      if (i) out << ", ";
      out << nl.gate(g.fanin[i]).name;
    }
    out << ")\n";
  }
}

std::string write_bench_string(const Netlist& nl) {
  std::ostringstream out;
  write_bench(out, nl);
  return out.str();
}

}  // namespace vcomp::netlist
