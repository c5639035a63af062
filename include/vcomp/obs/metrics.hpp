#pragma once
// vcomp::obs -- process-wide metrics registry.
//
// The registry hands out small value-type handles (Counter, Gauge,
// Histogram, Timer) identified by a stable slot index.  Updates go to a
// per-thread sink (a deque of atomics, so slot addresses never move while
// the owning thread appends), which keeps the hot path to one relaxed
// atomic add with zero contention.  Snapshots merge the per-thread sinks
// in registration order under the registry mutex, then sort by metric
// name, so the merged result is independent of thread count and thread
// interleaving for every kind whose merge is commutative+associative:
//
//   counter    sum
//   gauge      max (high-water mark)
//   histogram  per-bucket sum + count/sum/min/max
//   timer      sum of double seconds -- NOT deterministic, and therefore
//              excluded from Snapshot::counters_only() and every digest.
//
// Determinism contract: as long as the instrumented code performs the
// same multiset of metric updates regardless of VCOMP_THREADS (which the
// engine's parallel layer guarantees), counters_only() is byte-identical
// across thread counts.
//
// Collection is always compiled in and on: no build option or environment
// variable turns it off, so a result row that carries counters never
// depends on how the program was built or launched.  set_metrics_enabled()
// is the one gate (the handles check one relaxed atomic bool); tests and
// benchmark harnesses use it to leave a stretch of work uncounted.

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vcomp::obs {

namespace detail {
/// The runtime gate, true from the start.  Constant-initialised, so it is
/// safe to consult from any dynamic initialiser or thread without ordering
/// concerns.
extern std::atomic<bool> g_metrics_on;
inline bool enabled() { return g_metrics_on.load(std::memory_order_relaxed); }
void counter_add(std::uint32_t slot, std::uint64_t n);
void gauge_max(std::uint32_t slot, std::uint64_t v);
void histogram_record(std::uint32_t slot, std::uint64_t v);
void timer_add(std::uint32_t slot, double seconds);
}  // namespace detail

/// True when metric collection is active (the default).
bool metrics_enabled();
/// Flip the runtime gate.
void set_metrics_enabled(bool on);

/// Monotonic event count.  Merge across threads: sum.
class Counter {
 public:
  Counter() = default;
  void inc() const { add(1); }
  void add(std::uint64_t n) const {
    if (n != 0 && detail::enabled()) detail::counter_add(slot_, n);
  }

 private:
  friend class Registry;
  explicit Counter(std::uint32_t slot) : slot_(slot) {}
  std::uint32_t slot_ = 0;
};

/// High-water mark.  Merge across threads: max, which (unlike last-write)
/// is order-independent and therefore deterministic.
class Gauge {
 public:
  Gauge() = default;
  void record(std::uint64_t v) const {
    if (detail::enabled()) detail::gauge_max(slot_, v);
  }

 private:
  friend class Registry;
  explicit Gauge(std::uint32_t slot) : slot_(slot) {}
  std::uint32_t slot_ = 0;
};

/// Power-of-two bucketed value distribution (bucket k counts values whose
/// bit width is k, i.e. v==0 -> bucket 0, v in [2^(k-1), 2^k) -> bucket k).
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t v) const {
    if (detail::enabled()) detail::histogram_record(slot_, v);
  }

 private:
  friend class Registry;
  explicit Histogram(std::uint32_t slot) : slot_(slot) {}
  std::uint32_t slot_ = 0;
};

/// Accumulated wall-clock seconds.  Inherently nondeterministic; excluded
/// from counters_only() and digests, reported only for humans.
class Timer {
 public:
  Timer() = default;
  void add_seconds(double s) const {
    if (detail::enabled()) detail::timer_add(slot_, s);
  }

 private:
  friend class Registry;
  explicit Timer(std::uint32_t slot) : slot_(slot) {}
  std::uint32_t slot_ = 0;
};

/// Deterministic slice of a snapshot: name-sorted integer metrics only
/// (counters, gauges, and histogram summaries; no wall-clock values).
/// This is the type tests compare and digests hash.
class CounterSet {
 public:
  std::vector<std::pair<std::string, std::uint64_t>> values;

  bool operator==(const CounterSet&) const = default;
  /// "name=value\n" lines in sorted order; stable across platforms.
  std::string digest() const;
  std::uint64_t get(std::string_view name) const;  // 0 when absent
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // 0 when count == 0
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;  // trailing zeros trimmed

  bool operator==(const HistogramSnapshot&) const = default;
};

/// Point-in-time merged view of every registered metric, sorted by name.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::uint64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;
  std::vector<std::pair<std::string, double>> timings;  // seconds

  /// Deterministic view: counters + gauges + histogram summaries
  /// (name.count/.sum/.min/.max), timings and zero values excluded, so a
  /// scoped snapshot lists only what its task touched.
  CounterSet counters_only() const;
  /// Pretty JSON object {"counters":{...},"gauges":{...},
  /// "histograms":{...},"timings_seconds":{...}}.
  void write_json(std::ostream& os, int indent = 0) const;
};

/// Process-wide metric registry.  Handle creation and snapshotting are
/// mutex-guarded cold paths; handle updates are lock-free.
class Registry {
 public:
  static Registry& instance();

  /// Idempotent by name: the same name always yields the same slot.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name);
  Timer timer(std::string_view name);

  /// Merge all per-thread sinks (live + retired) in registration order.
  Snapshot snapshot() const;
  /// Zero every value (names and slots survive).  Caller must ensure no
  /// concurrent updates are in flight (quiescent point between runs).
  void reset();

  /// \name Scoped snapshots
  /// Metric updates are attributed to the calling thread's task token
  /// (util::task_token(), propagated to pool workers), so a logical task
  /// tree — e.g. one serve job — can be snapshotted in isolation while the
  /// plain snapshot() keeps reporting process-wide totals.
  ///
  /// Lifecycle: begin_scope(t) activates retention for token t BEFORE any
  /// update runs under it; snapshot_scope(t) may be taken once the scope's
  /// work has quiesced; end_scope(t) folds the scope's totals into the
  /// process-wide ones and frees its retention state.  Tokens must not be
  /// reused after end_scope (use monotonically increasing ids).
  ///
  /// Determinism: a scope's snapshot merges the same multiset of updates
  /// regardless of which threads carried them, so — by the engine's
  /// thread-invariance contract — a job's counter snapshot is
  /// byte-identical to the same run executed alone in a fresh process.
  /// @{
  void begin_scope(std::uint64_t token);
  Snapshot snapshot_scope(std::uint64_t token) const;
  void end_scope(std::uint64_t token);
  /// @}

 private:
  Registry();
  ~Registry() = delete;  // leaked singleton: outlives thread-exit hooks
};

/// Runs \p body under a fresh task token (util::new_task_token) with its own
/// counter window, and returns the window's deterministic counters: the
/// begin_scope / snapshot_scope / end_scope sequence in one place.  \p cap
/// bounds the pool workers the body's parallel loops recruit (nullptr =
/// uncapped).  The window is closed on every exit path.
CounterSet scoped_counters(const std::function<void()>& body,
                           const std::atomic<std::size_t>* cap = nullptr);

/// Shorthands for function-local static handles at instrumentation sites.
inline Counter counter(std::string_view name) {
  return Registry::instance().counter(name);
}
inline Gauge gauge(std::string_view name) {
  return Registry::instance().gauge(name);
}
inline Histogram histogram(std::string_view name) {
  return Registry::instance().histogram(name);
}
inline Timer timer(std::string_view name) {
  return Registry::instance().timer(name);
}

}  // namespace vcomp::obs
