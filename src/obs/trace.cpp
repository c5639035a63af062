#include "vcomp/obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <vector>

#include "vcomp/util/parallel.hpp"

namespace vcomp::obs {

namespace {

struct TraceEvent {
  const char* name;
  double ts_us;
  double dur_us;
  int tid;
  // Task-scope token at record time (util::task_token()); emitted as the
  // Chrome-trace "pid" so each serve job renders as its own process row.
  std::uint64_t scope;
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct TraceState {
  std::mutex m;
  std::vector<TraceEvent> events;
  std::int64_t epoch_ns = now_ns();
  std::atomic<int> next_tid{0};
};

// Leaked so thread-exit paths can never observe a destroyed buffer.
TraceState& tstate() {
  static TraceState* t = new TraceState;
  return *t;
}

std::atomic<bool> g_trace_on{false};

int thread_tid() {
  thread_local const int tid =
      tstate().next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void write_escaped(std::ostream& os, const char* s) {
  os << '"';
  for (; *s; ++s) {
    const char c = *s;
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
  std::snprintf(buf, sizeof buf, "%.6f", v);
  os << buf;
}

}  // namespace

bool trace_enabled() { return g_trace_on.load(std::memory_order_relaxed); }

void set_trace_enabled(bool on) {
  (void)tstate();  // pin the epoch before the first event
  g_trace_on.store(on, std::memory_order_relaxed);
}

void clear_trace() {
  TraceState& t = tstate();
  const std::lock_guard<std::mutex> lk(t.m);
  t.events.clear();
}

void write_chrome_trace(std::ostream& os) {
  std::vector<TraceEvent> events;
  {
    TraceState& t = tstate();
    const std::lock_guard<std::mutex> lk(t.m);
    events = t.events;
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.tid < b.tid;
            });
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& ev : events) {
    os << (first ? "\n" : ",\n") << "  {\"name\": ";
    write_escaped(os, ev.name);
    os << ", \"cat\": \"vcomp\", \"ph\": \"X\", \"ts\": ";
    write_double(os, ev.ts_us);
    os << ", \"dur\": ";
    write_double(os, ev.dur_us);
    os << ", \"pid\": " << (ev.scope == 0 ? 1 : ev.scope)
       << ", \"tid\": " << ev.tid << "}";
    first = false;
  }
  os << (first ? "]}" : "\n]}") << '\n';
}

Span::Span(const char* name, std::optional<Timer> timer, double* seconds)
    : name_(name),
      timer_(timer),
      seconds_(seconds),
      traced_(trace_enabled()),
      start_ns_(now_ns()) {}

Span::~Span() {
  const std::int64_t end_ns = now_ns();
  const double dur_seconds = static_cast<double>(end_ns - start_ns_) * 1e-9;
  if (timer_) timer_->add_seconds(dur_seconds);
  if (seconds_ != nullptr) *seconds_ += dur_seconds;
  if (!traced_) return;
  TraceState& t = tstate();
  const TraceEvent ev{name_,
                      static_cast<double>(start_ns_ - t.epoch_ns) * 1e-3,
                      dur_seconds * 1e6, thread_tid(), util::task_token()};
  const std::lock_guard<std::mutex> lk(t.m);
  t.events.push_back(ev);
}

}  // namespace vcomp::obs
