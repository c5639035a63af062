#pragma once

/// \file assert.hpp
/// Precondition / invariant checking for the vcomp library.
///
/// Violations throw vcomp::ContractError instead of aborting so they can be
/// exercised by the test suite (and so library users get a catchable error
/// with a useful message rather than a core dump).

#include <stdexcept>
#include <string>

namespace vcomp {

/// Error thrown when a VCOMP_REQUIRE / VCOMP_ENSURE contract is violated.
class ContractError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Error thrown for bad user input: a job key or value, a circuit name, a
/// netlist file, a size the circuit cannot hold.  Unlike ContractError (a
/// bug in the library or its caller), the message is meant for the user
/// and is shown as is by the CLI and the serve daemon.
class InputError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {
[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line,
                                       const std::string& msg) {
  std::string what = std::string(kind) + " failed: " + expr + " at " + file +
                     ":" + std::to_string(line);
  if (!msg.empty()) what += " — " + msg;
  throw ContractError(what);
}
}  // namespace detail

}  // namespace vcomp

/// Check a precondition; throws vcomp::ContractError on failure.
#define VCOMP_REQUIRE(cond, msg)                                             \
  do {                                                                       \
    if (!(cond))                                                             \
      ::vcomp::detail::contract_fail("precondition", #cond, __FILE__,        \
                                     __LINE__, (msg));                       \
  } while (false)

/// Check an internal invariant / postcondition.
#define VCOMP_ENSURE(cond, msg)                                              \
  do {                                                                       \
    if (!(cond))                                                             \
      ::vcomp::detail::contract_fail("invariant", #cond, __FILE__, __LINE__, \
                                     (msg));                                 \
  } while (false)

/// Debug-build-only invariant check for hot paths: compiled out under
/// NDEBUG, a full VCOMP_ENSURE otherwise.
#ifdef NDEBUG
#define VCOMP_DASSERT(cond, msg) \
  do {                           \
  } while (false)
#else
#define VCOMP_DASSERT(cond, msg) VCOMP_ENSURE(cond, msg)
#endif
