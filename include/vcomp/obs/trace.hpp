#pragma once
// vcomp::obs -- lightweight scoped spans exported as Chrome-trace JSON.
//
// Tracing is opt-in (set_trace_enabled(true), or the --trace flag on the
// CLI tools) and entirely separate from the metrics gate: metrics stay
// exact and deterministic whether or not a trace is being captured.
// Events are complete-style ("ph":"X") records {name, ts, dur, tid}
// appended to a mutex-guarded global buffer -- span granularity here is
// per phase / per engine call, not per gate, so a lock per event is
// cheap relative to the work being timed.  write_chrome_trace() emits a
// JSON object loadable by chrome://tracing and Perfetto.
//
// Span names must be string literals (or otherwise outlive the trace
// buffer); they are stored as const char*.

#include <cstdint>
#include <iosfwd>
#include <optional>

#include "vcomp/obs/metrics.hpp"

namespace vcomp::obs {

/// True when span capture is active (off by default).
bool trace_enabled();
void set_trace_enabled(bool on);
/// Drop all buffered events (epoch is kept).
void clear_trace();
/// Emit the buffered events as Chrome-trace JSON ({"traceEvents":[...]}).
void write_chrome_trace(std::ostream& os);

/// RAII span: reads the monotonic clock once when it starts and once when
/// it ends, and hands that one duration to every sink it has -- a trace
/// event (when tracing was on at the start), the Timer it was given, and
/// the seconds accumulator it was given.  A phase timed by one Span
/// therefore reports the same seconds in a trace, in the metrics registry
/// and in the caller's profile record.
class Span {
 public:
  explicit Span(const char* name) : Span(name, std::nullopt, nullptr) {}
  Span(const char* name, Timer timer) : Span(name, timer, nullptr) {}
  /// Also adds the span's seconds to \p seconds when it ends, whether or
  /// not metrics or tracing are on.
  Span(const char* name, Timer timer, double& seconds)
      : Span(name, timer, &seconds) {}
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Span(const char* name, std::optional<Timer> timer, double* seconds);
  const char* name_;
  std::optional<Timer> timer_;
  double* seconds_;
  bool traced_;
  std::int64_t start_ns_;  // steady_clock nanoseconds
};

}  // namespace vcomp::obs
