#pragma once

/// \file verilog_io.hpp
/// Reader / writer for structural gate-level Verilog, the other common
/// exchange format for the ISCAS benchmarks:
///
///     module top (A, B, Y);
///       input A, B;
///       output Y;
///       wire n1;
///       nand g1 (n1, A, B);   // output first, then inputs
///       dff  ff1 (Q, D);      // Q = output, D = next-state
///       not  g2 (Y, n1);
///     endmodule
///
/// Supported subset: one module; `input` / `output` / `wire` declarations
/// (comma lists, repeated); gate primitives and, nand, or, nor, xor, xnor,
/// not, buf with output-first argument order; `dff` instances (output,
/// data).  Comments // and /* */ are stripped.  Instance names are
/// optional, as in primitive instantiations.

#include <iosfwd>
#include <string>
#include <string_view>

#include "vcomp/netlist/netlist.hpp"
#include "vcomp/util/assert.hpp"

namespace vcomp::netlist {

class VerilogParseError : public InputError {
 public:
  VerilogParseError(std::size_t line, const std::string& what)
      : InputError("verilog parse error at line " + std::to_string(line) +
                   ": " + what),
        line_(line) {}
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// Parses the supported structural subset into a finalized netlist.
Netlist read_verilog(std::istream& in);
Netlist read_verilog_string(std::string_view text);
Netlist read_verilog_file(const std::string& path);

/// Serializes a finalized netlist as a single structural module
/// (re-parseable by read_verilog).
void write_verilog(std::ostream& out, const Netlist& nl,
                   const std::string& module_name = "top");
std::string write_verilog_string(const Netlist& nl,
                                 const std::string& module_name = "top");

}  // namespace vcomp::netlist
