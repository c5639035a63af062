#include "vcomp/obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "vcomp/util/parallel.hpp"

namespace vcomp::obs {

namespace {

void write_escaped(std::ostream& os, std::string_view sv) {
  os << '"';
  for (const char c : sv) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

void write_double(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  os << buf;
}

}  // namespace

std::string CounterSet::digest() const {
  std::string d;
  for (const auto& [name, value] : values) {
    d += name;
    d += '=';
    d += std::to_string(value);
    d += '\n';
  }
  return d;
}

std::uint64_t CounterSet::get(std::string_view name) const {
  for (const auto& [n, v] : values) {
    if (n == name) return v;
  }
  return 0;
}

CounterSet Snapshot::counters_only() const {
  CounterSet out;
  out.values.reserve(counters.size() + gauges.size() + 4 * histograms.size());
  for (const auto& kv : counters) out.values.push_back(kv);
  for (const auto& kv : gauges) out.values.push_back(kv);
  for (const auto& h : histograms) {
    out.values.emplace_back(h.name + ".count", h.count);
    out.values.emplace_back(h.name + ".sum", h.sum);
    out.values.emplace_back(h.name + ".min", h.min);
    out.values.emplace_back(h.name + ".max", h.max);
  }
  std::sort(out.values.begin(), out.values.end());
  return out;
}

void Snapshot::write_json(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string in1 = pad + "  ";
  const std::string in2 = pad + "    ";
  auto write_u64_map = [&](const char* key, const auto& pairs, bool comma) {
    os << in1;
    write_escaped(os, key);
    os << ": {";
    bool first = true;
    for (const auto& [name, value] : pairs) {
      os << (first ? "\n" : ",\n") << in2;
      write_escaped(os, name);
      os << ": " << value;
      first = false;
    }
    if (!first) os << '\n' << in1;
    os << (comma ? "}," : "}") << '\n';
  };

  os << pad << "{\n";
  write_u64_map("counters", counters, true);
  write_u64_map("gauges", gauges, true);

  os << in1 << "\"histograms\": {";
  bool first = true;
  for (const auto& h : histograms) {
    os << (first ? "\n" : ",\n") << in2;
    write_escaped(os, h.name);
    os << ": {\"count\": " << h.count << ", \"sum\": " << h.sum
       << ", \"min\": " << h.min << ", \"max\": " << h.max
       << ", \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i != 0) os << ", ";
      os << h.buckets[i];
    }
    os << "]}";
    first = false;
  }
  if (!first) os << '\n' << in1;
  os << "},\n";

  os << in1 << "\"timings_seconds\": {";
  first = true;
  for (const auto& [name, seconds] : timings) {
    os << (first ? "\n" : ",\n") << in2;
    write_escaped(os, name);
    os << ": ";
    write_double(os, seconds);
    first = false;
  }
  if (!first) os << '\n' << in1;
  os << "}\n" << pad << "}";
}

namespace {

constexpr std::uint64_t kNoMin = std::numeric_limits<std::uint64_t>::max();
// std::bit_width of a uint64_t is 0..64, one bucket per width.
constexpr std::size_t kHistBuckets = 65;

struct HistCell {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> min{kNoMin};
  std::atomic<std::uint64_t> max{0};
  std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
};

// One sink per thread.  Deques keep element addresses stable while the
// owning thread appends, so lock-free updates to existing slots can run
// concurrently with growth (growth itself takes the registry mutex to
// exclude snapshot/reset readers).
//
// Each sink is tagged with the task-scope token its values belong to
// (util::task_token()).  When the owning thread starts writing under a
// different token it folds the sink into the matching retired bucket under
// the mutex and retags it, so one sink per thread suffices for any number
// of scopes and per-scope attribution is exact.
struct ThreadSink {
  std::deque<std::atomic<std::uint64_t>> counters;
  std::deque<std::atomic<std::uint64_t>> gauges;  // merged by max
  std::deque<HistCell> hists;
  std::deque<std::atomic<double>> timers;
  std::uint64_t token = 0;  // guarded by the state mutex
};

struct State {
  std::mutex m;
  std::vector<std::string> counter_names, gauge_names, hist_names, timer_names;
  std::map<std::string, std::uint32_t, std::less<>> counter_ids, gauge_ids,
      hist_ids, timer_ids;
  std::vector<ThreadSink*> sinks;  // live threads, registration order
  ThreadSink retired;              // accumulated totals of exited threads
  /// Per-active-scope retirement buckets: totals folded out of live sinks
  /// that moved on to another token (or exited) while the scope was still
  /// active.  end_scope folds the bucket into `retired` so process-wide
  /// totals are preserved.
  std::map<std::uint64_t, ThreadSink> scoped_retired;
};

/// Retirement destination for a sink tagged \p token (call under the
/// mutex): active scopes keep their own bucket; everything else — token 0
/// and scopes already ended — folds into the process-wide totals.
ThreadSink& retired_for(State& s, std::uint64_t token) {
  if (token != 0) {
    auto it = s.scoped_retired.find(token);
    if (it != s.scoped_retired.end()) return it->second;
  }
  return s.retired;
}

// Leaked: thread-exit destructors (SinkHolder below) may run arbitrarily
// late, after static destruction would have torn a non-leaked State down.
State& state() {
  static State* s = new State;
  return *s;
}

void atomic_max(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

template <class Deque>
void grow_to(Deque& d, std::size_t n) {
  while (d.size() < n) d.emplace_back();
}

// Merge src into dst (called under the state mutex; dst grows as needed).
void merge_into(ThreadSink& dst, const ThreadSink& src) {
  grow_to(dst.counters, src.counters.size());
  for (std::size_t i = 0; i < src.counters.size(); ++i) {
    dst.counters[i].fetch_add(src.counters[i].load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
  }
  grow_to(dst.gauges, src.gauges.size());
  for (std::size_t i = 0; i < src.gauges.size(); ++i) {
    atomic_max(dst.gauges[i], src.gauges[i].load(std::memory_order_relaxed));
  }
  grow_to(dst.hists, src.hists.size());
  for (std::size_t i = 0; i < src.hists.size(); ++i) {
    const HistCell& h = src.hists[i];
    HistCell& d = dst.hists[i];
    d.count.fetch_add(h.count.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    d.sum.fetch_add(h.sum.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    atomic_min(d.min, h.min.load(std::memory_order_relaxed));
    atomic_max(d.max, h.max.load(std::memory_order_relaxed));
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      d.buckets[b].fetch_add(h.buckets[b].load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    }
  }
  grow_to(dst.timers, src.timers.size());
  for (std::size_t i = 0; i < src.timers.size(); ++i) {
    dst.timers[i].fetch_add(src.timers[i].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
  }
}

void reset_sink(ThreadSink& sink) {
  for (auto& c : sink.counters) c.store(0, std::memory_order_relaxed);
  for (auto& g : sink.gauges) g.store(0, std::memory_order_relaxed);
  for (auto& h : sink.hists) {
    h.count.store(0, std::memory_order_relaxed);
    h.sum.store(0, std::memory_order_relaxed);
    h.min.store(kNoMin, std::memory_order_relaxed);
    h.max.store(0, std::memory_order_relaxed);
    for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
  }
  for (auto& t : sink.timers) t.store(0.0, std::memory_order_relaxed);
}

// Registered in `sinks` on first metric update from a thread; on thread
// exit the sink's totals fold into the retirement bucket of the token it
// last wrote under, so no data is lost.
struct SinkHolder {
  ThreadSink* sink = nullptr;
  ~SinkHolder() {
    if (!sink) return;
    State& s = state();
    const std::lock_guard<std::mutex> lk(s.m);
    merge_into(retired_for(s, sink->token), *sink);
    std::erase(s.sinks, sink);
    delete sink;
    sink = nullptr;
  }
};

thread_local SinkHolder t_holder;

ThreadSink& local_sink() {
  const std::uint64_t token = util::task_token();
  ThreadSink* sink = t_holder.sink;
  if (sink == nullptr) {
    sink = new ThreadSink;
    sink->token = token;
    State& s = state();
    const std::lock_guard<std::mutex> lk(s.m);
    s.sinks.push_back(sink);
    t_holder.sink = sink;
  } else if (sink->token != token) {
    // The thread moved to another task scope: fold the accumulated values
    // into the old scope's retirement bucket and retag.  Only the owning
    // thread ever writes this sink, so the fold cannot race an update.
    State& s = state();
    const std::lock_guard<std::mutex> lk(s.m);
    merge_into(retired_for(s, sink->token), *sink);
    reset_sink(*sink);
    sink->token = token;
  }
  return *sink;
}

// Only the owning thread grows its sink, so the unlocked size check is
// safe; the growth itself is mutex-guarded against snapshot()/reset().
template <class Deque>
void ensure_slot(Deque& d, std::uint32_t slot) {
  if (slot < d.size()) return;
  State& s = state();
  const std::lock_guard<std::mutex> lk(s.m);
  grow_to(d, static_cast<std::size_t>(slot) + 1);
}

}  // namespace

namespace detail {

std::atomic<bool> g_metrics_on{true};

void counter_add(std::uint32_t slot, std::uint64_t n) {
  ThreadSink& sink = local_sink();
  ensure_slot(sink.counters, slot);
  sink.counters[slot].fetch_add(n, std::memory_order_relaxed);
}

void gauge_max(std::uint32_t slot, std::uint64_t v) {
  ThreadSink& sink = local_sink();
  ensure_slot(sink.gauges, slot);
  atomic_max(sink.gauges[slot], v);
}

void histogram_record(std::uint32_t slot, std::uint64_t v) {
  ThreadSink& sink = local_sink();
  ensure_slot(sink.hists, slot);
  HistCell& h = sink.hists[slot];
  h.count.fetch_add(1, std::memory_order_relaxed);
  h.sum.fetch_add(v, std::memory_order_relaxed);
  atomic_min(h.min, v);
  atomic_max(h.max, v);
  h.buckets[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
}

void timer_add(std::uint32_t slot, double seconds) {
  ThreadSink& sink = local_sink();
  ensure_slot(sink.timers, slot);
  sink.timers[slot].fetch_add(seconds, std::memory_order_relaxed);
}

}  // namespace detail

bool metrics_enabled() { return detail::enabled(); }

void set_metrics_enabled(bool on) {
  detail::g_metrics_on.store(on, std::memory_order_relaxed);
}

Registry::Registry() = default;

Registry& Registry::instance() {
  // Leaked for the same reason as State: handles may be used from
  // function-local statics whose first call happens during thread exit.
  static Registry* r = new Registry;
  return *r;
}

namespace {

std::uint32_t register_named(
    std::string_view name, std::vector<std::string>& names,
    std::map<std::string, std::uint32_t, std::less<>>& ids) {
  State& s = state();
  const std::lock_guard<std::mutex> lk(s.m);
  auto it = ids.find(name);
  if (it == ids.end()) {
    const auto slot = static_cast<std::uint32_t>(names.size());
    it = ids.emplace(std::string(name), slot).first;
    names.emplace_back(name);
  }
  return it->second;
}

}  // namespace

Counter Registry::counter(std::string_view name) {
  State& s = state();
  return Counter(register_named(name, s.counter_names, s.counter_ids));
}

Gauge Registry::gauge(std::string_view name) {
  State& s = state();
  return Gauge(register_named(name, s.gauge_names, s.gauge_ids));
}

Histogram Registry::histogram(std::string_view name) {
  State& s = state();
  return Histogram(register_named(name, s.hist_names, s.hist_ids));
}

Timer Registry::timer(std::string_view name) {
  State& s = state();
  return Timer(register_named(name, s.timer_names, s.timer_ids));
}

namespace {

// Merge the given sink parts into one name-sorted snapshot.  Called under
// the state mutex; which parts go in decides the view (process-wide vs one
// scope), the assembly is identical either way.
Snapshot build_snapshot(const State& s,
                        const std::vector<const ThreadSink*>& parts) {
  Snapshot out;

  auto slot_u64 = [](const std::deque<std::atomic<std::uint64_t>>& d,
                     std::size_t i) -> std::uint64_t {
    return i < d.size() ? d[i].load(std::memory_order_relaxed) : 0;
  };

  out.counters.reserve(s.counter_names.size());
  for (std::size_t i = 0; i < s.counter_names.size(); ++i) {
    std::uint64_t total = 0;
    for (const ThreadSink* sink : parts) total += slot_u64(sink->counters, i);
    out.counters.emplace_back(s.counter_names[i], total);
  }

  out.gauges.reserve(s.gauge_names.size());
  for (std::size_t i = 0; i < s.gauge_names.size(); ++i) {
    std::uint64_t hi = 0;
    for (const ThreadSink* sink : parts) {
      hi = std::max(hi, slot_u64(sink->gauges, i));
    }
    out.gauges.emplace_back(s.gauge_names[i], hi);
  }

  out.histograms.reserve(s.hist_names.size());
  for (std::size_t i = 0; i < s.hist_names.size(); ++i) {
    HistogramSnapshot hs;
    hs.name = s.hist_names[i];
    std::uint64_t mn = kNoMin;
    std::vector<std::uint64_t> buckets(kHistBuckets, 0);
    for (const ThreadSink* sink : parts) {
      if (i >= sink->hists.size()) continue;
      const HistCell& h = sink->hists[i];
      hs.count += h.count.load(std::memory_order_relaxed);
      hs.sum += h.sum.load(std::memory_order_relaxed);
      mn = std::min(mn, h.min.load(std::memory_order_relaxed));
      hs.max = std::max(hs.max, h.max.load(std::memory_order_relaxed));
      for (std::size_t b = 0; b < kHistBuckets; ++b) {
        buckets[b] += h.buckets[b].load(std::memory_order_relaxed);
      }
    }
    hs.min = hs.count == 0 ? 0 : mn;
    while (!buckets.empty() && buckets.back() == 0) buckets.pop_back();
    hs.buckets = std::move(buckets);
    out.histograms.push_back(std::move(hs));
  }

  out.timings.reserve(s.timer_names.size());
  for (std::size_t i = 0; i < s.timer_names.size(); ++i) {
    double total = 0.0;
    for (const ThreadSink* sink : parts) {
      if (i < sink->timers.size()) {
        total += sink->timers[i].load(std::memory_order_relaxed);
      }
    }
    out.timings.emplace_back(s.timer_names[i], total);
  }

  auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  std::sort(out.timings.begin(), out.timings.end(), by_name);
  return out;
}

}  // namespace

Snapshot Registry::snapshot() const {
  State& s = state();
  const std::lock_guard<std::mutex> lk(s.m);
  std::vector<const ThreadSink*> parts;
  parts.reserve(1 + s.scoped_retired.size() + s.sinks.size());
  parts.push_back(&s.retired);
  for (const auto& [token, bucket] : s.scoped_retired) parts.push_back(&bucket);
  for (const ThreadSink* sink : s.sinks) parts.push_back(sink);
  return build_snapshot(s, parts);
}

void Registry::reset() {
  State& s = state();
  const std::lock_guard<std::mutex> lk(s.m);
  reset_sink(s.retired);
  for (auto& [token, bucket] : s.scoped_retired) reset_sink(bucket);
  for (ThreadSink* sink : s.sinks) reset_sink(*sink);
}

void Registry::begin_scope(std::uint64_t token) {
  if (token == 0) return;  // token 0 is the ambient process scope
  State& s = state();
  const std::lock_guard<std::mutex> lk(s.m);
  s.scoped_retired.try_emplace(token);
}

Snapshot Registry::snapshot_scope(std::uint64_t token) const {
  State& s = state();
  const std::lock_guard<std::mutex> lk(s.m);
  std::vector<const ThreadSink*> parts;
  parts.reserve(1 + s.sinks.size());
  const auto it = s.scoped_retired.find(token);
  if (it != s.scoped_retired.end()) parts.push_back(&it->second);
  for (const ThreadSink* sink : s.sinks) {
    if (sink->token == token) parts.push_back(sink);
  }
  return build_snapshot(s, parts);
}

void Registry::end_scope(std::uint64_t token) {
  State& s = state();
  const std::lock_guard<std::mutex> lk(s.m);
  const auto it = s.scoped_retired.find(token);
  if (it == s.scoped_retired.end()) return;
  merge_into(s.retired, it->second);
  s.scoped_retired.erase(it);
}

CounterSet scoped_counters(const std::function<void()>& body,
                           const std::atomic<std::size_t>* cap) {
  Registry& reg = Registry::instance();
  const std::uint64_t token = util::new_task_token();
  reg.begin_scope(token);
  try {
    // The scoped context rides onto every pool worker body() recruits; the
    // parallel primitives join before returning, so once body() returns no
    // worker still carries this token and the snapshot is complete.
    const util::ScopedTaskContext scope(util::TaskContext{token, cap});
    body();
  } catch (...) {
    reg.end_scope(token);
    throw;
  }
  CounterSet counters = reg.snapshot_scope(token).counters_only();
  reg.end_scope(token);
  return counters;
}

}  // namespace vcomp::obs
