// obs_test.cpp — the telemetry subsystem: span nesting and cross-thread
// recording, exact counters under concurrency, gauge high-water marks,
// chrome-trace JSON well-formedness, reset semantics, the zero-allocation
// disabled path, and the RuntimeConfig/env surface built on top of it.
// Carries the `threaded` ctest label: spans and counters are recorded
// from pool workers, so the tsan preset exercises the per-thread logs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "tensor/env.h"
#include "tensor/runtime.h"
#include "tensor/thread_pool.h"

// ---- allocation counter (same trick as infer_parity_test) ----
// Counts heap allocations while armed. Global operator new/delete are
// replaced for the whole binary; the counter only moves when armed, so
// the other tests are unaffected.
namespace {
std::atomic<bool> g_alloc_armed{false};
std::atomic<std::int64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_alloc_armed.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (!p) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sne {
namespace {

// Every test leaves capture off and the registry empty, however it exits.
struct ObsGuard {
  ~ObsGuard() {
    obs::disable();
    obs::reset();
    set_num_threads(1);
  }
};

std::vector<obs::SpanRecord> spans_named(const char* name) {
  std::vector<obs::SpanRecord> out;
  for (const obs::SpanRecord& s : obs::snapshot_spans()) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s);
  }
  return out;
}

TEST(Obs, SpanNestingDepthsAndContainment) {
  ObsGuard guard;
  obs::reset();
  obs::enable();
  {
    obs::Span outer("test.outer");
    {
      obs::Span inner("test.inner", 42);
    }
  }
  const auto outer = spans_named("test.outer");
  const auto inner = spans_named("test.inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(outer[0].depth, 0);
  EXPECT_EQ(inner[0].depth, 1);
  EXPECT_EQ(outer[0].arg, obs::kNoArg);
  EXPECT_EQ(inner[0].arg, 42);
  EXPECT_EQ(outer[0].tid, inner[0].tid);
  // The inner interval lies within the outer one.
  EXPECT_GE(inner[0].start_ns, outer[0].start_ns);
  EXPECT_LE(inner[0].start_ns + inner[0].dur_ns,
            outer[0].start_ns + outer[0].dur_ns);
}

TEST(Obs, SpansRecordedAcrossThreads) {
  ObsGuard guard;
  obs::reset();
  set_num_threads(4);
  obs::enable();
  parallel_for(0, 64, [](std::int64_t i) {
    obs::Span span("test.worker", i);
    volatile double x = 0.0;
    for (int k = 0; k < 100; ++k) x = x + static_cast<double>(k);
  });
  obs::disable();
  const auto spans = spans_named("test.worker");
  ASSERT_EQ(spans.size(), 64u);
  for (const obs::SpanRecord& s : spans) {
    EXPECT_EQ(s.depth, 0);
    EXPECT_GE(s.dur_ns, 0);
  }
}

TEST(Obs, CountersExactUnderConcurrency) {
  ObsGuard guard;
  obs::reset();
  set_num_threads(4);
  obs::enable();
  obs::Counter& c = obs::counter("test.concurrent");
  parallel_for(0, 1000, [&c](std::int64_t) { c.add(3); });
  obs::disable();
  EXPECT_EQ(c.value(), 3000);
  bool found = false;
  for (const obs::CounterRecord& rec : obs::snapshot_counters()) {
    if (rec.name == "test.concurrent") {
      found = true;
      EXPECT_EQ(rec.value, 3000);
      EXPECT_FALSE(rec.is_gauge);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Obs, CounterRegistryReturnsStableReferences) {
  ObsGuard guard;
  obs::Counter& a = obs::counter("test.stable");
  obs::Counter& b = obs::counter("test.stable");
  EXPECT_EQ(&a, &b);
  const char* p1 = obs::intern("test.dynamic.name");
  const char* p2 = obs::intern(std::string("test.dynamic.") + "name");
  EXPECT_EQ(p1, p2);
  EXPECT_STREQ(p1, "test.dynamic.name");
}

TEST(Obs, GaugeTracksValueAndHighWaterMark) {
  ObsGuard guard;
  obs::reset();
  obs::enable();
  obs::Gauge& g = obs::gauge("test.gauge");
  g.set(5);
  g.set(9);
  g.set(2);
  obs::disable();
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 9);
  bool found = false;
  for (const obs::CounterRecord& rec : obs::snapshot_counters()) {
    if (rec.name == "test.gauge") {
      found = true;
      EXPECT_TRUE(rec.is_gauge);
      EXPECT_EQ(rec.value, 2);
      EXPECT_EQ(rec.max, 9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Obs, ResetClearsDataButKeepsCaptureState) {
  ObsGuard guard;
  obs::reset();
  obs::enable();
  obs::counter("test.reset").add(7);
  { obs::Span span("test.reset_span"); }
  obs::reset();
  EXPECT_TRUE(obs::enabled());  // capture state survives reset
  EXPECT_EQ(obs::counter("test.reset").value(), 0);
  EXPECT_TRUE(spans_named("test.reset_span").empty());
  // Recording still works after the reset.
  { obs::Span span("test.reset_span"); }
  EXPECT_EQ(spans_named("test.reset_span").size(), 1u);
}

TEST(Obs, ChromeTraceIsWellFormedJson) {
  ObsGuard guard;
  obs::reset();
  set_num_threads(2);
  obs::enable();
  obs::counter("test.trace_counter").add(11);
  {
    obs::Span outer("test.trace_outer", 5);
    parallel_for(0, 8, [](std::int64_t i) {
      obs::Span span("test.trace_worker", i);
    });
  }
  obs::disable();

  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string json = os.str();

  // Structure: one object, one traceEvents array, balanced delimiters.
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  std::int64_t braces = 0, brackets = 0;
  for (const char ch : json) {
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // Content: the spans, the counter, the per-thread metadata rows.
  EXPECT_NE(json.find("\"name\":\"test.trace_outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.trace_worker\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.trace_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"arg\":5}"), std::string::npos);
}

TEST(Obs, SummaryTableListsSpansAndCounters) {
  ObsGuard guard;
  obs::reset();
  obs::enable();
  { obs::Span span("test.summary_span"); }
  obs::counter("test.summary_counter").add(4);
  obs::disable();
  const std::string table = obs::summary_table();
  EXPECT_NE(table.find("test.summary_span"), std::string::npos);
  EXPECT_NE(table.find("test.summary_counter"), std::string::npos);
}

TEST(Obs, DisabledPathDoesNotAllocate) {
  ObsGuard guard;
  obs::disable();
  obs::reset();
  obs::Counter& c = obs::counter("test.noalloc");  // lookup before arming
  obs::Gauge& g = obs::gauge("test.noalloc_gauge");

  g_alloc_count.store(0);
  g_alloc_armed.store(true);
  for (int i = 0; i < 1000; ++i) {
    obs::Span span("test.noalloc_span", i);
    c.add();
    g.set(i);
  }
  g_alloc_armed.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0);
  EXPECT_EQ(c.value(), 0);
  EXPECT_TRUE(obs::snapshot_spans().empty());
}

// ---- the env/runtime surface the telemetry and pool knobs hang off ----

TEST(Env, ParsesAndFallsBack) {
  ::setenv("SNE_OBSTEST_GOOD", "42", 1);
  ::setenv("SNE_OBSTEST_JUNK", "42abc", 1);
  // Would clamp to LLONG_MAX under plain strtoll (the ERANGE bug the
  // shared helper fixes): must fall back instead.
  ::setenv("SNE_OBSTEST_HUGE", "99999999999999999999999", 1);
  ::setenv("SNE_OBSTEST_FLOAT", "2.5", 1);
  EXPECT_EQ(env::int64("OBSTEST_GOOD", 7), 42);
  EXPECT_EQ(env::int64("OBSTEST_JUNK", 7), 7);
  EXPECT_EQ(env::int64("OBSTEST_HUGE", 7), 7);
  EXPECT_EQ(env::int64("OBSTEST_UNSET_NAME", 7), 7);
  EXPECT_DOUBLE_EQ(env::float64("OBSTEST_FLOAT", 1.0), 2.5);
  EXPECT_DOUBLE_EQ(env::float64("OBSTEST_JUNK", 1.0), 1.0);
  EXPECT_EQ(env::string("OBSTEST_GOOD", "x"), "42");
  EXPECT_EQ(env::string("OBSTEST_UNSET_NAME", "x"), "x");
  ::unsetenv("SNE_OBSTEST_GOOD");
  ::unsetenv("SNE_OBSTEST_JUNK");
  ::unsetenv("SNE_OBSTEST_HUGE");
  ::unsetenv("SNE_OBSTEST_FLOAT");
}

// The strict whole-string parser behind both env overrides and the CLI's
// flag values (tools/sne_cli.cpp routes --foo N through these so that
// "--top 20x" is an error naming the flag, not a silent parse of 20).
TEST(Env, StrictParsersRejectJunkTailsAndOverflow) {
  EXPECT_EQ(env::parse_int64("42").value_or(-1), 42);
  EXPECT_EQ(env::parse_int64("-7").value_or(-1), -7);
  EXPECT_EQ(env::parse_int64("  11").value_or(-1), 11);  // strtoll skip-ws
  EXPECT_FALSE(env::parse_int64(""));
  EXPECT_FALSE(env::parse_int64("12junk"));
  EXPECT_FALSE(env::parse_int64("12 "));
  EXPECT_FALSE(env::parse_int64("1e3"));  // not an integer literal
  EXPECT_FALSE(env::parse_int64("99999999999999999999999"));  // ERANGE
  EXPECT_FALSE(env::parse_int64("abc"));

  EXPECT_DOUBLE_EQ(env::parse_float64("2.5").value_or(-1.0), 2.5);
  EXPECT_DOUBLE_EQ(env::parse_float64("1e3").value_or(-1.0), 1000.0);
  EXPECT_FALSE(env::parse_float64(""));
  EXPECT_FALSE(env::parse_float64("0.5x"));
  EXPECT_FALSE(env::parse_float64("1e99999"));   // overflow: ERANGE
  EXPECT_FALSE(env::parse_float64("-1e99999"));  // negative overflow too
  // Underflow also sets ERANGE, but strtod already returns the nearest
  // representable value — tiny magnitudes are legitimate inputs and
  // must be accepted (subnormal), not rejected as unparsable.
  EXPECT_DOUBLE_EQ(env::parse_float64("1e-310").value_or(-1.0), 1e-310);
  EXPECT_DOUBLE_EQ(env::parse_float64("1e-5000").value_or(-1.0), 0.0);
}

TEST(RuntimeConfigTest, TraceToggle) {
  ObsGuard guard;
  const RuntimeConfig saved = RuntimeConfig::current();

  RuntimeConfig rc = saved;
  rc.trace = true;
  RuntimeConfig::set_current(rc);
  EXPECT_TRUE(obs::enabled());

  rc.trace = false;
  RuntimeConfig::set_current(rc);
  EXPECT_FALSE(obs::enabled());

  RuntimeConfig::set_current(saved);
}

}  // namespace
}  // namespace sne
