#pragma once

/// \file bench_io.hpp
/// Reader / writer for the ISCAS89 ".bench" netlist format:
///
///     # comment
///     INPUT(G0)
///     OUTPUT(G17)
///     G10 = DFF(G14)
///     G17 = NAND(G0, G10)
///
/// Forward references are allowed (a signal may be used before its defining
/// line).  The reader produces a finalized Netlist.

#include <iosfwd>
#include <string>
#include <string_view>

#include "vcomp/netlist/netlist.hpp"
#include "vcomp/util/assert.hpp"

namespace vcomp::netlist {

/// Parse error with 1-based line information.
class BenchParseError : public InputError {
 public:
  BenchParseError(std::size_t line, const std::string& what)
      : InputError("bench parse error at line " + std::to_string(line) +
                   ": " + what),
        line_(line) {}
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// Parses .bench text into a finalized netlist.
Netlist read_bench(std::istream& in);

/// Convenience overload for in-memory text.
Netlist read_bench_string(std::string_view text);

/// Reads a .bench file from disk (InputError when it cannot be opened).
Netlist read_bench_file(const std::string& path);

/// Serializes a finalized netlist to .bench text (stable, re-parseable).
void write_bench(std::ostream& out, const Netlist& nl);

/// Convenience overload returning a string.
std::string write_bench_string(const Netlist& nl);

}  // namespace vcomp::netlist
