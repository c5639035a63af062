#include "vcomp/netlist/verilog_io.hpp"

#include <cctype>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "vcomp/util/assert.hpp"

namespace vcomp::netlist {

namespace {

struct Token {
  std::string text;
  std::size_t line;
};

/// Lexes the supported subset: identifiers and single-char punctuation,
/// with // and /* */ comments stripped.
std::vector<Token> lex(std::istream& in) {
  std::vector<Token> tokens;
  std::string line;
  std::size_t lineno = 0;
  bool in_block_comment = false;
  while (std::getline(in, line)) {
    ++lineno;
    std::size_t i = 0;
    while (i < line.size()) {
      if (in_block_comment) {
        const auto end = line.find("*/", i);
        if (end == std::string::npos) {
          i = line.size();
        } else {
          i = end + 2;
          in_block_comment = false;
        }
        continue;
      }
      const char c = line[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (c == '/' && i + 1 < line.size()) {
        if (line[i + 1] == '/') break;  // rest of line
        if (line[i + 1] == '*') {
          in_block_comment = true;
          i += 2;
          continue;
        }
      }
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '$' || c == '.' || c == '[' || c == ']') {
        std::size_t j = i;
        while (j < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[j])) ||
                line[j] == '_' || line[j] == '$' || line[j] == '.' ||
                line[j] == '[' || line[j] == ']'))
          ++j;
        tokens.push_back({line.substr(i, j - i), lineno});
        i = j;
        continue;
      }
      if (c == '(' || c == ')' || c == ',' || c == ';') {
        tokens.push_back({std::string(1, c), lineno});
        ++i;
        continue;
      }
      throw VerilogParseError(lineno,
                              std::string("unexpected character '") + c +
                                  "'");
    }
  }
  return tokens;
}

struct Def {
  std::string out;
  GateType type;
  std::vector<std::string> ins;
  std::size_t line;
};

bool is_keyword(const std::string& s) {
  return s == "module" || s == "endmodule" || s == "input" ||
         s == "output" || s == "wire";
}

std::optional<GateType> primitive(const std::string& s) {
  if (s == "and") return GateType::And;
  if (s == "nand") return GateType::Nand;
  if (s == "or") return GateType::Or;
  if (s == "nor") return GateType::Nor;
  if (s == "xor") return GateType::Xor;
  if (s == "xnor") return GateType::Xnor;
  if (s == "not") return GateType::Not;
  if (s == "buf") return GateType::Buf;
  if (s == "dff" || s == "DFF") return GateType::Dff;
  return std::nullopt;
}

}  // namespace

Netlist read_verilog(std::istream& in) {
  const auto tokens = lex(in);
  std::size_t pos = 0;
  auto peek = [&]() -> const Token& {
    static const Token eof{"<eof>", 0};
    return pos < tokens.size() ? tokens[pos] : eof;
  };
  auto next = [&]() -> const Token& {
    if (pos >= tokens.size())
      throw VerilogParseError(0, "unexpected end of input");
    return tokens[pos++];
  };
  auto expect = [&](const std::string& what) {
    const Token& t = next();
    if (t.text != what)
      throw VerilogParseError(t.line, "expected '" + what + "', got '" +
                                          t.text + "'");
  };

  // module NAME ( ports ) ;
  expect("module");
  next();  // module name (unused)
  if (peek().text == "(") {
    next();
    while (peek().text != ")") next();
    next();  // ')'
  }
  expect(";");

  std::vector<std::string> inputs, outputs;
  std::unordered_set<std::string> wires;
  std::vector<Def> defs;

  while (peek().text != "endmodule") {
    const Token head = next();
    if (head.text == "input" || head.text == "output" ||
        head.text == "wire") {
      for (;;) {
        const Token name = next();
        if (is_keyword(name.text) || name.text == ";" || name.text == ",")
          throw VerilogParseError(name.line, "bad name in declaration");
        if (head.text == "input") inputs.push_back(name.text);
        else if (head.text == "output") outputs.push_back(name.text);
        else wires.insert(name.text);
        const Token sep = next();
        if (sep.text == ";") break;
        if (sep.text != ",")
          throw VerilogParseError(sep.line, "expected ',' or ';'");
      }
      continue;
    }
    const auto type = primitive(head.text);
    if (!type)
      throw VerilogParseError(head.line,
                              "unknown primitive '" + head.text + "'");
    // [instance name] ( out, in... ) ;
    Token t = next();
    if (t.text != "(") {
      // instance name consumed; next must be '('
      const Token paren = next();
      if (paren.text != "(")
        throw VerilogParseError(paren.line, "expected '('");
    }
    std::vector<std::string> args;
    for (;;) {
      const Token arg = next();
      if (arg.text == ")") break;
      if (arg.text == ",") continue;
      args.push_back(arg.text);
    }
    expect(";");
    if (args.size() < 2)
      throw VerilogParseError(head.line, "primitive needs >= 2 terminals");
    Def def{args[0], *type, {args.begin() + 1, args.end()}, head.line};
    if (*type == GateType::Dff && def.ins.size() != 1)
      throw VerilogParseError(head.line, "dff takes (q, d)");
    defs.push_back(std::move(def));
  }

  // Build (two-phase, like the .bench reader, to honour forward refs).
  Netlist nl;
  for (const auto& n : inputs) nl.add_input(n);
  for (const auto& d : defs)
    if (d.type == GateType::Dff) {
      if (nl.find(d.out) != kNoGate)
        throw VerilogParseError(d.line, "redefinition of '" + d.out + "'");
      nl.add_dff(d.out);
    }

  std::vector<const Def*> pending;
  for (const auto& d : defs)
    if (d.type != GateType::Dff) pending.push_back(&d);
  std::size_t remaining = pending.size();
  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (const Def*& dp : pending) {
      if (dp == nullptr) continue;
      bool ok = true;
      for (const auto& a : dp->ins)
        if (nl.find(a) == kNoGate) {
          ok = false;
          break;
        }
      if (!ok) continue;
      if (nl.find(dp->out) != kNoGate)
        throw VerilogParseError(dp->line,
                                "redefinition of '" + dp->out + "'");
      std::vector<GateId> fanin;
      for (const auto& a : dp->ins) fanin.push_back(nl.find(a));
      nl.add_gate(dp->type, dp->out, std::move(fanin));
      dp = nullptr;
      --remaining;
      progress = true;
    }
  }
  if (remaining > 0)
    for (const Def* dp : pending)
      if (dp != nullptr)
        throw VerilogParseError(
            dp->line, "unresolved net (undefined or combinational cycle) "
                      "driving '" + dp->out + "'");

  for (const auto& d : defs) {
    if (d.type != GateType::Dff) continue;
    const GateId src = nl.find(d.ins[0]);
    if (src == kNoGate)
      throw VerilogParseError(d.line, "undefined dff input '" + d.ins[0] +
                                          "'");
    nl.set_dff_input(nl.find(d.out), src);
  }
  for (const auto& n : outputs) {
    const GateId g = nl.find(n);
    if (g == kNoGate)
      throw VerilogParseError(0, "undriven output '" + n + "'");
    nl.mark_output(g);
  }
  nl.finalize();
  return nl;
}

Netlist read_verilog_string(std::string_view text) {
  std::istringstream in{std::string(text)};
  return read_verilog(in);
}

Netlist read_verilog_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw InputError("cannot open verilog file: " + path);
  return read_verilog(in);
}

void write_verilog(std::ostream& out, const Netlist& nl,
                   const std::string& module_name) {
  VCOMP_REQUIRE(nl.finalized(), "write_verilog requires a finalized netlist");
  out << "module " << module_name << " (";
  bool first = true;
  for (GateId g : nl.inputs()) {
    out << (first ? "" : ", ") << nl.gate(g).name;
    first = false;
  }
  for (GateId g : nl.outputs()) {
    out << (first ? "" : ", ") << nl.gate(g).name;
    first = false;
  }
  out << ");\n";

  auto emit_decl = [&](const char* kw, const std::vector<GateId>& ids) {
    if (ids.empty()) return;
    out << "  " << kw << " ";
    for (std::size_t i = 0; i < ids.size(); ++i)
      out << (i ? ", " : "") << nl.gate(ids[i]).name;
    out << ";\n";
  };
  emit_decl("input", nl.inputs());
  emit_decl("output", nl.outputs());

  std::unordered_set<GateId> is_output(nl.outputs().begin(),
                                       nl.outputs().end());
  std::vector<GateId> wires;
  for (GateId g : nl.dffs())
    if (!is_output.count(g)) wires.push_back(g);
  for (GateId g : nl.topo_order())
    if (!is_output.count(g)) wires.push_back(g);
  emit_decl("wire", wires);

  std::size_t inst = 0;
  for (GateId g : nl.dffs())
    out << "  dff ff" << inst++ << " (" << nl.gate(g).name << ", "
        << nl.gate(nl.gate(g).fanin[0]).name << ");\n";
  for (GateId g : nl.topo_order()) {
    const auto& gate = nl.gate(g);
    std::string kw;
    switch (gate.type) {
      case GateType::And: kw = "and"; break;
      case GateType::Nand: kw = "nand"; break;
      case GateType::Or: kw = "or"; break;
      case GateType::Nor: kw = "nor"; break;
      case GateType::Xor: kw = "xor"; break;
      case GateType::Xnor: kw = "xnor"; break;
      case GateType::Not: kw = "not"; break;
      case GateType::Buf: kw = "buf"; break;
      default: VCOMP_ENSURE(false, "unexpected gate type");
    }
    out << "  " << kw << " g" << inst++ << " (" << gate.name;
    for (GateId f : gate.fanin) out << ", " << nl.gate(f).name;
    out << ");\n";
  }
  out << "endmodule\n";
}

std::string write_verilog_string(const Netlist& nl,
                                 const std::string& module_name) {
  std::ostringstream os;
  write_verilog(os, nl, module_name);
  return os.str();
}

}  // namespace vcomp::netlist
