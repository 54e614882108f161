/**
 * @file
 * Unit tests for src/base: types, byte helpers, RNG, stats, logging.
 */

#include "base/bytes.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "base/stats.hh"
#include "base/types.hh"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <vector>

namespace osh
{
namespace
{

TEST(Types, PageArithmetic)
{
    EXPECT_EQ(pageSize, 4096u);
    EXPECT_EQ(pageBase(0x12345), 0x12000u);
    EXPECT_EQ(pageOffset(0x12345), 0x345u);
    EXPECT_EQ(pageNumber(0x12345), 0x12u);
    EXPECT_EQ(roundUpToPage(0), 0u);
    EXPECT_EQ(roundUpToPage(1), pageSize);
    EXPECT_EQ(roundUpToPage(pageSize), pageSize);
    EXPECT_EQ(roundUpToPage(pageSize + 1), 2 * pageSize);
}

TEST(Bytes, LittleEndianRoundTrip)
{
    std::uint8_t buf[8];
    storeLe64(buf, 0x0123456789abcdefull);
    EXPECT_EQ(buf[0], 0xef);
    EXPECT_EQ(buf[7], 0x01);
    EXPECT_EQ(loadLe64(buf), 0x0123456789abcdefull);
    storeLe32(buf, 0xdeadbeef);
    EXPECT_EQ(loadLe32(buf), 0xdeadbeefu);
    storeLe16(buf, 0xcafe);
    EXPECT_EQ(loadLe16(buf), 0xcafeu);
}

TEST(Bytes, BigEndianRoundTrip)
{
    std::uint8_t buf[8];
    storeBe32(buf, 0x01020304);
    EXPECT_EQ(buf[0], 0x01);
    EXPECT_EQ(buf[3], 0x04);
    EXPECT_EQ(loadBe32(buf), 0x01020304u);
    storeBe64(buf, 0x1122334455667788ull);
    EXPECT_EQ(buf[0], 0x11);
    EXPECT_EQ(buf[7], 0x88);
}

TEST(Bytes, HexRoundTrip)
{
    std::vector<std::uint8_t> data = {0x00, 0x7f, 0xff, 0xab};
    std::string hex = toHex(data);
    EXPECT_EQ(hex, "007fffab");
    EXPECT_EQ(fromHex(hex), data);
    EXPECT_EQ(fromHex("0G").size(), 0u);
    EXPECT_EQ(fromHex("abc").size(), 0u);
    EXPECT_TRUE(fromHex("ABCD") == fromHex("abcd"));
}

TEST(Bytes, ConstantTimeEqual)
{
    std::vector<std::uint8_t> a = {1, 2, 3};
    std::vector<std::uint8_t> b = {1, 2, 3};
    std::vector<std::uint8_t> c = {1, 2, 4};
    std::vector<std::uint8_t> d = {1, 2};
    EXPECT_TRUE(constantTimeEqual(a, b));
    EXPECT_FALSE(constantTimeEqual(a, c));
    EXPECT_FALSE(constantTimeEqual(a, d));
}

TEST(Bytes, PayloadRoundTrip)
{
    PayloadWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.str("cloak");
    w.flag(true);
    std::array<std::uint8_t, 4> blob = {1, 2, 3, 4};
    w.bytes(blob);

    PayloadReader r(w.view());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.str(), "cloak");
    EXPECT_TRUE(r.flag());
    std::array<std::uint8_t, 4> out{};
    r.bytes(out);
    EXPECT_EQ(out, blob);
    EXPECT_TRUE(r.done());

    // Reading past the end flips ok() instead of overrunning.
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_FALSE(r.ok());
}

TEST(Bytes, PayloadReaderErrorsAreSticky)
{
    // A flag byte other than 0 or 1 fails the reader, and every read
    // after a failure returns zeros, even where bytes remain.
    const std::vector<std::uint8_t> bytes = {2, 7, 7, 7, 7, 7, 7, 7, 7};
    PayloadReader r(bytes);
    r.flag();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_FALSE(r.done());

    // A length beyond the bytes fails without reading them; so does a
    // block, which then reads as zeros.
    PayloadWriter w;
    w.u64(~0ull);
    PayloadReader s(w.view());
    EXPECT_EQ(s.str(), "");
    EXPECT_FALSE(s.ok());
    PayloadReader t(std::span<const std::uint8_t>(bytes).first(3));
    std::array<std::uint8_t, 4> out;
    out.fill(0xff);
    t.bytes(out);
    EXPECT_FALSE(t.ok());
    EXPECT_EQ(out, (std::array<std::uint8_t, 4>{}));
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
    bool diff = false;
    Rng a2(42);
    for (int i = 0; i < 100; ++i)
        diff |= a2.next64() != c.next64();
    EXPECT_TRUE(diff);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = rng.nextBounded(17);
        EXPECT_LT(v, 17u);
    }
    // Degenerate bound of 1 always yields 0.
    EXPECT_EQ(rng.nextBounded(1), 0u);
}

TEST(Rng, BoundedCoversRange)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, FillCoversOddLengths)
{
    Rng rng(5);
    std::vector<std::uint8_t> buf(13, 0);
    rng.fill(buf);
    // Extremely unlikely that 13 random bytes are all zero.
    int nonzero = 0;
    for (auto b : buf)
        nonzero += b != 0;
    EXPECT_GT(nonzero, 0);
}

/** A group's name table, declared out of order on purpose. */
constexpr StatNames testStat{"exits", "b", "a"};
static_assert(testStat("a").index == 2);

TEST(Stats, CountersAccumulate)
{
    StatGroup g("vmm", testStat.names);
    g.inc(testStat("exits"));
    g.inc(testStat("exits"), 4);
    EXPECT_EQ(g.value("exits"), 5u);
    EXPECT_EQ(g.value("missing"), 0u);
}

TEST(Stats, SlotAppearsOnFirstIncrementEvenOfZero)
{
    StatGroup g("x", testStat.names);
    EXPECT_EQ(g.dump(), "");
    EXPECT_TRUE(g.snapshot().empty());
    EXPECT_EQ(g.value("a"), 0u);

    g.inc(testStat("a"), 0);
    EXPECT_EQ(g.dump(), "x.a 0\n");
    ASSERT_EQ(g.snapshot().size(), 1u);
}

TEST(Stats, DumpFormat)
{
    StatGroup g("cloak", testStat.names);
    g.inc(testStat("exits"), 2);
    g.inc(testStat("b"), 1);
    EXPECT_EQ(g.dump(), "cloak.b 1\ncloak.exits 2\n");
}

TEST(Stats, SnapshotSorted)
{
    StatGroup g("x", testStat.names);
    g.inc(testStat("b"), 2);
    g.inc(testStat("a"), 1);
    auto snap = g.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].first, "a");
    EXPECT_EQ(snap[1].first, "b");
}

TEST(Stats, RuntimeFamilySortsByName)
{
    StatGroup g("vmm", testStat.names);
    std::vector<StatSlot> cpus;
    for (int cpu = 0; cpu <= 10; ++cpu)
        cpus.push_back(g.add("switches_cpu" + std::to_string(cpu)));
    g.inc(cpus[2]);
    g.inc(cpus[10], 3);
    g.inc(testStat("exits"));
    EXPECT_EQ(g.dump(), "vmm.exits 1\n"
                        "vmm.switches_cpu10 3\n"
                        "vmm.switches_cpu2 1\n");
    EXPECT_EQ(g.value("switches_cpu10"), 3u);
}

TEST(Stats, CopiedOwnerCarriesItsValues)
{
    struct Owner
    {
        StatGroup stats{"tlb", testStat.names};
    };
    Owner original;
    original.stats.inc(testStat("a"), 3);
    Owner copy = original;
    EXPECT_EQ(copy.stats.dump(), "tlb.a 3\n");

    // Each copy counts into its own slots from then on.
    copy.stats.inc(testStat("a"));
    original.stats.inc(testStat("b"));
    EXPECT_EQ(copy.stats.dump(), "tlb.a 4\n");
    EXPECT_EQ(original.stats.dump(), "tlb.a 3\ntlb.b 1\n");
}

TEST(Logging, FormatString)
{
    EXPECT_EQ(formatString("x=%d s=%s", 3, "hi"), "x=3 s=hi");
}

// Capture warn output through a replaced sink.
std::string* gCaptured = nullptr;

void
captureSink(LogLevel, const std::string& msg)
{
    if (gCaptured)
        *gCaptured = msg;
}

TEST(Logging, SinkReplacement)
{
    std::string captured;
    gCaptured = &captured;
    LogSink prev = setLogSink(captureSink);
    osh_warn("count=%d", 7);
    setLogSink(prev);
    gCaptured = nullptr;
    EXPECT_EQ(captured, "count=7");
}

} // namespace
} // namespace osh
