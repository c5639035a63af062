// Unit tests for the vcomp::obs metrics registry and trace spans:
// counter/gauge/histogram semantics, deterministic cross-thread merges,
// span nesting, Chrome-trace JSON schema, and registry reset between
// cases.  Every test starts from a reset registry and an enabled runtime
// gate.  A reset zeroes values but keeps every name an earlier test
// registered, so tests look their own entries up by name and never count
// the entries of a snapshot; that keeps them order-independent when the
// binary runs as one process.

#include "vcomp/obs/obs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace vcomp::obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_metrics_enabled(true);  // a failed test may have left it off
    Registry::instance().reset();
    set_trace_enabled(false);
    clear_trace();
  }
};

std::uint64_t counter_value(const Snapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.counters)
    if (n == name) return v;
  return 0;
}

/// The gauge or timing named \p name in one snapshot section, or null.
template <typename V>
const std::pair<std::string, V>* find_named(
    const std::vector<std::pair<std::string, V>>& entries,
    const std::string& name) {
  for (const auto& e : entries)
    if (e.first == name) return &e;
  return nullptr;
}

const HistogramSnapshot* find_histogram(const Snapshot& s,
                                        const std::string& name) {
  for (const auto& h : s.histograms)
    if (h.name == name) return &h;
  return nullptr;
}

TEST_F(ObsTest, CounterSumsAndIgnoresZero) {
  const Counter c = counter("test.counter");
  c.inc();
  c.add(41);
  c.add(0);  // no-op, must not create spurious sink traffic
  EXPECT_EQ(counter_value(Registry::instance().snapshot(), "test.counter"),
            42u);
}

TEST_F(ObsTest, HandlesAreIdempotentByName) {
  const Counter a = counter("test.same");
  const Counter b = counter("test.same");
  a.inc();
  b.inc();
  const Snapshot s = Registry::instance().snapshot();
  EXPECT_EQ(counter_value(s, "test.same"), 2u);
  std::size_t occurrences = 0;
  for (const auto& [n, v] : s.counters) occurrences += n == "test.same";
  EXPECT_EQ(occurrences, 1u);
}

TEST_F(ObsTest, GaugeKeepsHighWaterMark) {
  const Gauge g = gauge("test.gauge");
  g.record(5);
  g.record(9);
  g.record(3);  // below the mark: must not lower it
  const Snapshot s = Registry::instance().snapshot();
  const auto* mark = find_named(s.gauges, "test.gauge");
  ASSERT_NE(mark, nullptr);
  EXPECT_EQ(mark->second, 9u);
}

TEST_F(ObsTest, HistogramBucketsByBitWidth) {
  const Histogram h = histogram("test.hist");
  h.record(0);  // bucket 0
  h.record(1);  // bucket 1
  h.record(2);  // bucket 2
  h.record(3);  // bucket 2
  h.record(7);  // bucket 3
  const Snapshot s = Registry::instance().snapshot();
  const HistogramSnapshot* found = find_histogram(s, "test.hist");
  ASSERT_NE(found, nullptr);
  const HistogramSnapshot& hs = *found;
  EXPECT_EQ(hs.count, 5u);
  EXPECT_EQ(hs.sum, 13u);
  EXPECT_EQ(hs.min, 0u);
  EXPECT_EQ(hs.max, 7u);
  // Trailing zero buckets are trimmed: highest populated bucket is 3.
  EXPECT_EQ(hs.buckets, (std::vector<std::uint64_t>{1, 1, 2, 1}));
}

TEST_F(ObsTest, EmptyHistogramNormalizesMinToZero) {
  (void)histogram("test.hist_empty");
  const Snapshot s = Registry::instance().snapshot();
  const HistogramSnapshot* h = find_histogram(s, "test.hist_empty");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 0u);
  EXPECT_EQ(h->min, 0u);  // not the internal UINT64_MAX sentinel
  EXPECT_TRUE(h->buckets.empty());
}

TEST_F(ObsTest, MergeAcrossThreadsIsDeterministic) {
  // The same multiset of updates, spread over different thread counts,
  // must merge to byte-identical CounterSets.  Registration order is
  // deliberately scrambled per thread: merge order is by slot, output
  // order by name, so neither may matter.
  const auto run = [](std::size_t threads) {
    Registry::instance().reset();
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([t, threads] {
        const Counter first = counter(t % 2 ? "merge.b" : "merge.a");
        const Counter second = counter(t % 2 ? "merge.a" : "merge.b");
        const Counter a = t % 2 ? second : first;  // always merge.a
        const Counter b = t % 2 ? first : second;  // always merge.b
        const Gauge g = gauge("merge.gauge");
        const Histogram h = histogram("merge.hist");
        // Update values are functions of a global index, so the multiset
        // of updates is identical however it is split across threads.
        for (std::uint64_t i = 0; i < 1000 / threads; ++i) {
          const std::uint64_t global = i * threads + t;
          a.inc();
          b.add(2);
          g.record(global);
          h.record(global % 17);
        }
      });
    }
    for (auto& th : pool) th.join();
    return Registry::instance().snapshot().counters_only();
  };
  const CounterSet one = run(1);
  const CounterSet four = run(4);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one.digest(), four.digest());
  EXPECT_EQ(one.get("merge.a"), 1000u);
  EXPECT_EQ(one.get("merge.b"), 2000u);
  EXPECT_EQ(one.get("merge.hist.count"), 1000u);
}

TEST_F(ObsTest, SnapshotSurvivesThreadExit) {
  // Updates from a thread that has already exited must still be counted
  // (its sink retires into the registry, not into the void).
  std::thread([] { counter("test.retired").add(7); }).join();
  EXPECT_EQ(counter_value(Registry::instance().snapshot(), "test.retired"),
            7u);
}

TEST_F(ObsTest, ResetZeroesValuesAndKeepsNames) {
  counter("test.reset").add(5);
  gauge("test.reset_gauge").record(5);
  histogram("test.reset_hist").record(5);
  Registry::instance().reset();
  const Snapshot s = Registry::instance().snapshot();
  EXPECT_EQ(counter_value(s, "test.reset"), 0u);
  const auto* g = find_named(s.gauges, "test.reset_gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->second, 0u);
  const HistogramSnapshot* h = find_histogram(s, "test.reset_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 0u);
  // The slot survives: the old handle keeps working after the reset.
  counter("test.reset").inc();
  EXPECT_EQ(counter_value(Registry::instance().snapshot(), "test.reset"), 1u);
}

TEST_F(ObsTest, RuntimeGateDropsUpdates) {
  const Counter c = counter("test.gated");
  set_metrics_enabled(false);
  EXPECT_FALSE(metrics_enabled());
  c.add(100);
  set_metrics_enabled(true);
  c.inc();
  EXPECT_EQ(counter_value(Registry::instance().snapshot(), "test.gated"), 1u);
}

TEST_F(ObsTest, CountersOnlyExcludesTimingsAndSorts) {
  timer("test.z_timer").add_seconds(1.5);
  counter("test.m_counter").inc();
  gauge("test.a_gauge").record(4);
  histogram("test.k_hist").record(6);
  const Snapshot s = Registry::instance().snapshot();
  const auto* t = find_named(s.timings, "test.z_timer");
  ASSERT_NE(t, nullptr);
  EXPECT_DOUBLE_EQ(t->second, 1.5);

  const CounterSet cs = s.counters_only();
  for (const auto& [name, value] : cs.values)
    EXPECT_EQ(name.find("timer"), std::string::npos) << name;
  // Name-sorted, histograms expanded into .count/.sum/.min/.max.
  ASSERT_TRUE(std::is_sorted(
      cs.values.begin(), cs.values.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  EXPECT_EQ(cs.get("test.a_gauge"), 4u);
  EXPECT_EQ(cs.get("test.k_hist.count"), 1u);
  EXPECT_EQ(cs.get("test.k_hist.sum"), 6u);
  EXPECT_EQ(cs.get("test.m_counter"), 1u);
}

// A scoped window's view names only what its body touched: a counter
// registered elsewhere and a histogram's zero minimum are left out, so a
// result row built from it carries no zero-valued names.
TEST_F(ObsTest, CountersOnlyDropsZeroValues) {
  const Counter untouched = counter("test.untouched");
  (void)untouched;
  const CounterSet cs = scoped_counters([] {
    counter("test.touched").inc();
    histogram("test.zero_min").record(0);
    histogram("test.zero_min").record(3);
  });
  EXPECT_EQ(cs.get("test.touched"), 1u);
  EXPECT_EQ(cs.get("test.zero_min.count"), 2u);
  EXPECT_EQ(cs.get("test.zero_min.max"), 3u);
  for (const auto& [name, value] : cs.values)
    EXPECT_NE(value, 0u) << name;
  EXPECT_EQ(Registry::instance().snapshot().counters_only().get(
                "test.untouched"),
            0u);
}

TEST_F(ObsTest, DigestIsStableText) {
  CounterSet cs;
  cs.values = {{"a", 1}, {"b", 2}};
  EXPECT_EQ(cs.digest(), "a=1\nb=2\n");
  EXPECT_EQ(cs.get("a"), 1u);
  EXPECT_EQ(cs.get("missing"), 0u);
}

TEST_F(ObsTest, SnapshotJsonHasAllSections) {
  counter("test.json").add(3);
  timer("test.json_timer").add_seconds(0.25);
  std::ostringstream os;
  Registry::instance().snapshot().write_json(os);
  const std::string j = os.str();
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  EXPECT_NE(j.find("\"timings_seconds\""), std::string::npos);
  EXPECT_NE(j.find("\"test.json\": 3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace spans and Chrome-trace JSON schema.

/// Minimal extraction of the top-level objects inside "traceEvents":[...].
std::vector<std::string> trace_event_objects(const std::string& json) {
  std::vector<std::string> out;
  const std::size_t key = json.find("\"traceEvents\"");
  if (key == std::string::npos) return out;
  std::size_t i = json.find('[', key);
  int depth = 0;
  std::size_t start = 0;
  for (++i; i < json.size(); ++i) {
    if (json[i] == '{') {
      if (depth++ == 0) start = i;
    } else if (json[i] == '}') {
      if (--depth == 0) out.push_back(json.substr(start, i - start + 1));
    } else if (json[i] == ']' && depth == 0) {
      break;
    }
  }
  return out;
}

/// Value of "key": ... within one event object (trimmed, quotes kept).
std::string field(const std::string& obj, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t k = obj.find(needle);
  if (k == std::string::npos) return {};
  std::size_t b = k + needle.size();
  while (b < obj.size() && obj[b] == ' ') ++b;
  std::size_t e = b;
  if (obj[b] == '"') {
    e = obj.find('"', b + 1) + 1;
  } else {
    while (e < obj.size() && obj[e] != ',' && obj[e] != '}') ++e;
  }
  return obj.substr(b, e - b);
}

TEST_F(ObsTest, TraceDisabledByDefault) {
  EXPECT_FALSE(trace_enabled());
  { const Span s("untraced"); }
  std::ostringstream os;
  write_chrome_trace(os);
  EXPECT_EQ(os.str().find("untraced"), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceSchemaAndSpanNesting) {
  set_trace_enabled(true);
  clear_trace();
  {
    const Span outer("outer");
    {
      const Span inner("inner");
      counter("trace.work").inc();  // keep the spans non-empty
    }
  }
  set_trace_enabled(false);

  std::ostringstream os;
  write_chrome_trace(os);
  const std::string json = os.str();
  const auto events = trace_event_objects(json);
  ASSERT_EQ(events.size(), 2u) << json;

  // Schema: every event is a complete-style record with the fields
  // chrome://tracing requires.
  for (const auto& ev : events) {
    SCOPED_TRACE(ev);
    EXPECT_EQ(field(ev, "ph"), "\"X\"");
    EXPECT_FALSE(field(ev, "name").empty());
    EXPECT_FALSE(field(ev, "ts").empty());
    EXPECT_FALSE(field(ev, "dur").empty());
    EXPECT_FALSE(field(ev, "pid").empty());
    EXPECT_FALSE(field(ev, "tid").empty());
    EXPECT_GE(std::stod(field(ev, "ts")), 0.0);
    EXPECT_GE(std::stod(field(ev, "dur")), 0.0);
  }

  // Nesting: events are ts-sorted, the outer span starts no later than
  // the inner one and fully contains it.
  std::string outer_ev, inner_ev;
  for (const auto& ev : events) {
    if (field(ev, "name") == "\"outer\"") outer_ev = ev;
    if (field(ev, "name") == "\"inner\"") inner_ev = ev;
  }
  ASSERT_FALSE(outer_ev.empty());
  ASSERT_FALSE(inner_ev.empty());
  const double outer_ts = std::stod(field(outer_ev, "ts"));
  const double outer_dur = std::stod(field(outer_ev, "dur"));
  const double inner_ts = std::stod(field(inner_ev, "ts"));
  const double inner_dur = std::stod(field(inner_ev, "dur"));
  EXPECT_LE(outer_ts, inner_ts);
  EXPECT_GE(outer_ts + outer_dur, inner_ts + inner_dur);
  EXPECT_EQ(field(outer_ev, "tid"), field(inner_ev, "tid"));
}

TEST_F(ObsTest, ClearTraceDropsBufferedEvents) {
  set_trace_enabled(true);
  { const Span s("doomed"); }
  clear_trace();
  { const Span s("kept"); }
  set_trace_enabled(false);
  std::ostringstream os;
  write_chrome_trace(os);
  EXPECT_EQ(os.str().find("doomed"), std::string::npos);
  EXPECT_NE(os.str().find("kept"), std::string::npos);
}

TEST_F(ObsTest, SpanFeedsTimerFromOneClockRead) {
  // One pair of clock reads feeds the timer, the caller's accumulator and
  // the trace event the same seconds.
  const Timer t = timer("test.span_timer");
  double seconds = 0;
  set_trace_enabled(true);
  {
    const Span s("timed", t, seconds);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  set_trace_enabled(false);
  const Snapshot before = Registry::instance().snapshot();
  const auto* timing = find_named(before.timings, "test.span_timer");
  ASSERT_NE(timing, nullptr);
  EXPECT_GE(seconds, 1e-3);
  EXPECT_EQ(timing->second, seconds);
  std::ostringstream os;
  write_chrome_trace(os);
  const auto events = trace_event_objects(os.str());
  ASSERT_EQ(events.size(), 1u) << os.str();
  EXPECT_NEAR(std::stod(field(events[0], "dur")), seconds * 1e6, 1e-3);

  // The accumulator adds to what it holds, and keeps adding while metrics
  // are off; the timer is left alone then.
  const double first = seconds;
  set_metrics_enabled(false);
  {
    const Span s("timed", t, seconds);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  set_metrics_enabled(true);
  EXPECT_GE(seconds, first + 1e-3);
  const Snapshot after = Registry::instance().snapshot();
  EXPECT_EQ(find_named(after.timings, "test.span_timer")->second, first);
}

}  // namespace
}  // namespace vcomp::obs
