/**
 * @file
 * Unit tests for the tracing subsystem: the event ring, the latency
 * histograms and percentile math, the Chrome trace JSON exporter, and
 * the RAII trace scopes.
 */

#include "trace/export.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace osh::trace
{
namespace
{

// ---------------------------------------------------------------------------
// TraceBuffer
// ---------------------------------------------------------------------------

TraceEvent
instantAt(Cycles t, std::uint64_t arg0 = 0)
{
    TraceEvent ev;
    ev.category = Category::User;
    ev.name = "ev";
    ev.begin = t;
    ev.end = t;
    ev.arg0 = arg0;
    return ev;
}

TEST(TraceBuffer, EmptyBeforeFirstRecord)
{
    // The ring is allocated on the first record; until then the buffer
    // reports its configured capacity and holds nothing.
    TraceBuffer buf(1 << 16);
    EXPECT_EQ(buf.capacity(), std::size_t{1} << 16);
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.totalRecorded(), 0u);
    EXPECT_FALSE(buf.wrapped());
    EXPECT_TRUE(buf.snapshot().empty());
    buf.clear();
    EXPECT_EQ(buf.capacity(), std::size_t{1} << 16);
    EXPECT_TRUE(buf.snapshot().empty());
}

TEST(TraceBuffer, FillsWithoutWrap)
{
    TraceBuffer buf(8);
    EXPECT_EQ(buf.capacity(), 8u);
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_FALSE(buf.wrapped());

    for (std::uint64_t i = 0; i < 5; ++i)
        buf.record(instantAt(i, i));

    EXPECT_EQ(buf.size(), 5u);
    EXPECT_EQ(buf.totalRecorded(), 5u);
    EXPECT_FALSE(buf.wrapped());

    auto events = buf.snapshot();
    ASSERT_EQ(events.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(events[i].arg0, i);
}

TEST(TraceBuffer, WrapOverwritesOldestKeepsOrder)
{
    TraceBuffer buf(4);
    for (std::uint64_t i = 0; i < 11; ++i)
        buf.record(instantAt(i, i));

    EXPECT_EQ(buf.size(), 4u);
    EXPECT_EQ(buf.totalRecorded(), 11u);
    EXPECT_TRUE(buf.wrapped());

    // The live window is the last 4 events, oldest first.
    auto events = buf.snapshot();
    ASSERT_EQ(events.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(events[i].arg0, 7 + i);
}

TEST(TraceBuffer, ExactCapacityBoundary)
{
    TraceBuffer buf(4);
    for (std::uint64_t i = 0; i < 4; ++i)
        buf.record(instantAt(i, i));
    // Exactly full: nothing overwritten yet.
    EXPECT_FALSE(buf.wrapped());
    auto events = buf.snapshot();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().arg0, 0u);
    EXPECT_EQ(events.back().arg0, 3u);

    // One more wraps.
    buf.record(instantAt(4, 4));
    EXPECT_TRUE(buf.wrapped());
    events = buf.snapshot();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().arg0, 1u);
    EXPECT_EQ(events.back().arg0, 4u);
}

TEST(TraceBuffer, ClearResets)
{
    TraceBuffer buf(4);
    for (int i = 0; i < 6; ++i)
        buf.record(instantAt(i));
    buf.clear();
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.totalRecorded(), 0u);
    EXPECT_FALSE(buf.wrapped());
    EXPECT_TRUE(buf.snapshot().empty());
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, EmptyIsAllZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0u);
    EXPECT_EQ(h.percentile(50), 0u);
    EXPECT_EQ(h.percentile(99), 0u);
}

TEST(LatencyHistogram, BucketRanges)
{
    // Bucket 0 holds zero; bucket i >= 1 holds [2^(i-1), 2^i - 1].
    EXPECT_EQ(LatencyHistogram::bucketLow(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketHigh(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketLow(1), 1u);
    EXPECT_EQ(LatencyHistogram::bucketHigh(1), 1u);
    EXPECT_EQ(LatencyHistogram::bucketLow(2), 2u);
    EXPECT_EQ(LatencyHistogram::bucketHigh(2), 3u);
    EXPECT_EQ(LatencyHistogram::bucketLow(10), 512u);
    EXPECT_EQ(LatencyHistogram::bucketHigh(10), 1023u);
}

TEST(LatencyHistogram, BasicStats)
{
    LatencyHistogram h;
    for (std::uint64_t v : {10u, 20u, 30u, 40u})
        h.record(v);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 100u);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 40u);
    EXPECT_EQ(h.mean(), 25u);
}

TEST(LatencyHistogram, PercentilesOnUniformRange)
{
    // 1..100: the p-th percentile by nearest rank is exactly p, and the
    // log-bucketed estimate must land in the right octave. p50's rank-50
    // sample sits in bucket 6 ([32, 63]); interpolation keeps the
    // estimate inside that bucket.
    LatencyHistogram h;
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.record(v);

    std::uint64_t p50 = h.percentile(50);
    EXPECT_GE(p50, 32u);
    EXPECT_LE(p50, 63u);

    // p95 and p99 fall in bucket 7 ([64, 100 after clamping]).
    std::uint64_t p95 = h.percentile(95);
    EXPECT_GE(p95, 64u);
    EXPECT_LE(p95, 100u);

    std::uint64_t p99 = h.percentile(99);
    EXPECT_GE(p99, p95);
    EXPECT_LE(p99, 100u);

    // p0 and p100 hit the exact extremes via the [min, max] clamp.
    EXPECT_EQ(h.percentile(0), 1u);
    EXPECT_EQ(h.percentile(100), 100u);
}

TEST(LatencyHistogram, AllEqualSamplesCollapse)
{
    LatencyHistogram h;
    for (int i = 0; i < 1000; ++i)
        h.record(42);
    // Every percentile of a constant distribution is that constant —
    // the [min, max] clamp enforces it despite octave-wide buckets.
    EXPECT_EQ(h.percentile(1), 42u);
    EXPECT_EQ(h.percentile(50), 42u);
    EXPECT_EQ(h.percentile(99), 42u);
    EXPECT_EQ(h.min(), 42u);
    EXPECT_EQ(h.max(), 42u);
}

TEST(LatencyHistogram, ZeroSamples)
{
    LatencyHistogram h;
    h.record(0);
    h.record(0);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.percentile(50), 0u);
    EXPECT_EQ(h.max(), 0u);
}

TEST(LatencyHistogram, SkewedTail)
{
    // 99 fast samples and one huge outlier: p50 stays in the fast
    // octave ([8, 15]), max reports the outlier.
    LatencyHistogram h;
    for (int i = 0; i < 99; ++i)
        h.record(8);
    h.record(1'000'000);
    EXPECT_GE(h.percentile(50), 8u);
    EXPECT_LE(h.percentile(50), 15u);
    EXPECT_EQ(h.max(), 1'000'000u);
    EXPECT_GE(h.percentile(100), 524'288u); // outlier's octave or above
}

TEST(LatencyHistogram, ResetClears)
{
    LatencyHistogram h;
    h.record(7);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.percentile(50), 0u);
}

TEST(LatencyHistogram, SummaryMentionsAllFields)
{
    LatencyHistogram h;
    h.record(5);
    std::string s = h.summary();
    EXPECT_NE(s.find("count=1"), std::string::npos);
    EXPECT_NE(s.find("sum=5"), std::string::npos);
    EXPECT_NE(s.find("p50="), std::string::npos);
    EXPECT_NE(s.find("p95="), std::string::npos);
    EXPECT_NE(s.find("p99="), std::string::npos);
    EXPECT_NE(s.find("max=5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CountersAndHistogramsAreSeparate)
{
    MetricsRegistry reg;
    reg.counter(0, "x") += 3;
    reg.histogram(0, "x").record(9);

    EXPECT_EQ(reg.counterValue(0, "x"), 3u);
    const LatencyHistogram* h = reg.findHistogram(0, "x");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 1u);

    // Lookup of absent names does not create anything.
    EXPECT_EQ(reg.counterValue(1, "x"), 0u);
    EXPECT_EQ(reg.findHistogram(0, "y"), nullptr);
    EXPECT_EQ(reg.counters().size(), 1u);
    EXPECT_EQ(reg.histograms().size(), 1u);
}

// ---------------------------------------------------------------------------
// Tracer + TraceScope (with a locally driven fake clock)
// ---------------------------------------------------------------------------

TEST(Tracer, DisabledRecordsNothing)
{
    TraceConfig cfg;
    cfg.enabled = false;
    Tracer tracer(cfg);
    Cycles clock = 0;
    tracer.bindClock(&clock);

    {
        OSH_TRACE_SCOPE(&tracer, Category::User, "span");
        clock += 100;
    }
    OSH_TRACE_INSTANT(&tracer, Category::User, "point");

    EXPECT_EQ(tracer.buffer().size(), 0u);
    EXPECT_TRUE(tracer.metrics().counters().empty());
    EXPECT_TRUE(tracer.metrics().histograms().empty());
}

TEST(Tracer, EnabledLaterMatchesEnabledAtConstruction)
{
    TraceConfig on;
    on.enabled = true;
    TraceConfig off = on;
    off.enabled = false;
    Tracer early(on);
    Tracer late(off);
    Cycles clock = 0;
    early.bindClock(&clock);
    late.bindClock(&clock);

    // Nothing recorded while off: the late tracer's ring is untouched.
    const std::size_t cap = late.buffer().capacity();
    late.instant(Category::User, "ignored");
    EXPECT_EQ(late.buffer().size(), 0u);
    late.setEnabled(true);

    // Three events past the ring's capacity, so both rings wrap.
    for (std::uint64_t i = 0; i < cap + 3; ++i) {
        clock = 10 * i;
        early.instant(Category::User, "point", systemDomain, 0, i);
        late.instant(Category::User, "point", systemDomain, 0, i);
    }
    for (const Tracer* t : {&early, &late}) {
        EXPECT_EQ(t->buffer().capacity(), cap);
        EXPECT_EQ(t->buffer().size(), cap);
        EXPECT_EQ(t->buffer().totalRecorded(), cap + 3);
        EXPECT_TRUE(t->buffer().wrapped());
    }
    auto a = early.buffer().snapshot();
    auto b = late.buffer().snapshot();
    ASSERT_EQ(a.size(), cap);
    ASSERT_EQ(b.size(), cap);
    for (std::size_t i = 0; i < cap; ++i) {
        EXPECT_EQ(a[i].arg0, 3 + i);
        EXPECT_EQ(b[i].arg0, a[i].arg0);
        EXPECT_EQ(b[i].begin, a[i].begin);
        EXPECT_STREQ(b[i].name, a[i].name);
    }
    EXPECT_EQ(late.metrics().counters(), early.metrics().counters());
}

TEST(Tracer, NullTracerPointerIsSafe)
{
    [[maybe_unused]] Tracer* none = nullptr; // unused when compiled out
    {
        OSH_TRACE_SCOPE(none, Category::User, "span");
    }
    OSH_TRACE_INSTANT(none, Category::User, "point");
    SUCCEED();
}

TEST(Tracer, ScopeMeasuresSimulatedDuration)
{
    TraceConfig cfg;
    cfg.enabled = true;
    Tracer tracer(cfg);
    Cycles clock = 1000;
    tracer.bindClock(&clock);

    {
        TraceScope scope(&tracer, Category::Syscall, "getpid",
                         systemDomain, 7, 1, 2);
        clock += 250;
    }

    auto events = tracer.buffer().snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].begin, 1000u);
    EXPECT_EQ(events[0].end, 1250u);
    EXPECT_EQ(events[0].duration(), 250u);
    EXPECT_EQ(events[0].pid, 7);
    EXPECT_EQ(events[0].arg0, 1u);
    EXPECT_FALSE(events[0].isInstant());

    // The same span fed the latency histogram.
    const LatencyHistogram* h = tracer.metrics().findHistogram(
        static_cast<std::uint8_t>(Category::Syscall), "getpid");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 1u);
    EXPECT_EQ(h->sum(), 250u);
}

TEST(Tracer, ScopeRecordsDuringUnwind)
{
    TraceConfig cfg;
    cfg.enabled = true;
    Tracer tracer(cfg);
    Cycles clock = 0;
    tracer.bindClock(&clock);

    try {
        TraceScope scope(&tracer, Category::User, "throwing");
        clock += 33;
        throw std::runtime_error("boom");
    } catch (const std::runtime_error&) {
    }

    auto events = tracer.buffer().snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].duration(), 33u);
}

TEST(Tracer, NamedScopeSetArgs)
{
    TraceConfig cfg;
    cfg.enabled = true;
    Tracer tracer(cfg);
    Cycles clock = 0;
    tracer.bindClock(&clock);

    {
        TraceScope span(&tracer, Category::User, "late_args");
        span.setArgs(11, 22);
    }
    auto events = tracer.buffer().snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].arg0, 11u);
    EXPECT_EQ(events[0].arg1, 22u);
}

TEST(Tracer, InstantBumpsCounter)
{
    TraceConfig cfg;
    cfg.enabled = true;
    Tracer tracer(cfg);
    Cycles clock = 5;
    tracer.bindClock(&clock);

    tracer.instant(Category::Vmm, "guest_fault", 1, 2, 3);
    tracer.instant(Category::Vmm, "guest_fault", 1, 2, 4);

    EXPECT_EQ(tracer.buffer().size(), 2u);
    EXPECT_EQ(tracer.metrics().counterValue(
                  static_cast<std::uint8_t>(Category::Vmm),
                  "guest_fault"),
              2u);
    // Instants are points, not spans: no latency histogram.
    EXPECT_TRUE(tracer.metrics().histograms().empty());

    auto events = tracer.buffer().snapshot();
    EXPECT_TRUE(events[0].isInstant());
    EXPECT_EQ(events[0].begin, 5u);
}

#if OSH_TRACE_ENABLED
TEST(Tracer, MacrosRecordWhenCompiledIn)
{
    TraceConfig cfg;
    cfg.enabled = true;
    Tracer tracer(cfg);
    Cycles clock = 0;
    tracer.bindClock(&clock);

    {
        OSH_TRACE_SCOPE(&tracer, Category::User, "span");
        clock += 10;
        OSH_TRACE_SCOPE_NAMED(inner, &tracer, Category::User, "inner");
        inner.setArgs(1, 2);
    }
    OSH_TRACE_INSTANT(&tracer, Category::User, "point");

    EXPECT_EQ(tracer.buffer().size(), 3u);
    constexpr auto user = static_cast<std::uint8_t>(Category::User);
    EXPECT_EQ(tracer.metrics().counterValue(user, "point"), 1u);
    const LatencyHistogram* span =
        tracer.metrics().findHistogram(user, "span");
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(span->count(), 1u);
    EXPECT_EQ(span->sum(), 10u);
}
#endif // OSH_TRACE_ENABLED

// ---------------------------------------------------------------------------
// Chrome trace JSON exporter
// ---------------------------------------------------------------------------

/**
 * Minimal structural JSON validator: checks balanced braces/brackets
 * outside strings, legal string escapes, and that the document is a
 * single object. Not a full parser, but catches the classes of breakage
 * an exporter can produce (unbalanced nesting, raw control characters,
 * trailing garbage).
 */
bool
structurallyValidJson(const std::string& s)
{
    std::vector<char> stack;
    bool in_string = false;
    bool escaped = false;
    bool saw_root = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
        char c = s[i];
        if (in_string) {
            if (escaped) {
                if (std::string("\"\\/bfnrtu").find(c) ==
                    std::string::npos)
                    return false;
                escaped = false;
            } else if (c == '\\') {
                escaped = true;
            } else if (c == '"') {
                in_string = false;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return false; // raw control character in a string
            }
            continue;
        }
        switch (c) {
          case '"':
            in_string = true;
            break;
          case '{':
          case '[':
            if (stack.empty() && saw_root)
                return false; // trailing garbage after the root value
            stack.push_back(c);
            saw_root = true;
            break;
          case '}':
            if (stack.empty() || stack.back() != '{')
                return false;
            stack.pop_back();
            break;
          case ']':
            if (stack.empty() || stack.back() != '[')
                return false;
            stack.pop_back();
            break;
          default:
            break;
        }
    }
    return !in_string && stack.empty() && saw_root && s.front() == '{';
}

TEST(ChromeJson, EmptyBufferIsValid)
{
    TraceBuffer buf(4);
    std::string json = toChromeJson(buf);
    EXPECT_TRUE(structurallyValidJson(json));
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(ChromeJson, SpansAndInstants)
{
    TraceBuffer buf(8);

    TraceEvent span;
    span.category = Category::Syscall;
    span.name = "read";
    span.domain = 3;
    span.pid = 42;
    span.begin = 100;
    span.end = 600;
    span.arg0 = 11;
    span.arg1 = 22;
    buf.record(span);

    buf.record(instantAt(700));

    std::string json = toChromeJson(buf);
    EXPECT_TRUE(structurallyValidJson(json));

    // Complete event: ph "X" with ts/dur; lanes map domain->pid,
    // guest pid->tid.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":100"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":500"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
    EXPECT_NE(json.find("\"tid\":42"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"read\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"syscall\""), std::string::npos);

    // Instant event.
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(ChromeJson, EscapesHostileNames)
{
    TraceBuffer buf(2);
    TraceEvent ev;
    ev.category = Category::User;
    ev.name = "quote\"back\\slash\nnewline\ttab";
    ev.begin = 1;
    ev.end = 2;
    buf.record(ev);

    std::string json = toChromeJson(buf);
    EXPECT_TRUE(structurallyValidJson(json));
    EXPECT_NE(json.find("quote\\\"back\\\\slash\\nnewline\\ttab"),
              std::string::npos);
}

TEST(MetricsReportTest, ListsCountersAndHistograms)
{
    MetricsRegistry reg;
    reg.counter(static_cast<std::uint8_t>(Category::Vmm),
                "world_switches") = 12;
    auto& h = reg.histogram(static_cast<std::uint8_t>(Category::Syscall),
                            "getpid");
    h.record(100);
    h.record(200);

    std::string report = metricsReport(reg, "unit-test phase");
    EXPECT_NE(report.find("unit-test phase"), std::string::npos);
    EXPECT_NE(report.find("world_switches"), std::string::npos);
    EXPECT_NE(report.find("12"), std::string::npos);
    EXPECT_NE(report.find("getpid"), std::string::npos);
    EXPECT_NE(report.find("count=2"), std::string::npos);
}

} // namespace
} // namespace osh::trace
