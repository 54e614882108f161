/**
 * @file
 * Unit tests for the simulated machine: memory bounds/round trips,
 * lazily committed host memory, cost-model accounting, machine
 * configuration.
 */

#include "sim/machine.hh"
#include "system/system.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include <unistd.h>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define OSH_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define OSH_TEST_SANITIZED 1
#endif
#endif
#ifndef OSH_TEST_SANITIZED
#define OSH_TEST_SANITIZED 0
#endif

namespace osh::sim
{
namespace
{

/** Resident set of this process in bytes (0 if unknown). */
std::uint64_t
residentBytes()
{
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return 0;
    unsigned long long size = 0;
    unsigned long long resident = 0;
    int n = std::fscanf(f, "%llu %llu", &size, &resident);
    std::fclose(f);
    if (n != 2)
        return 0;
    return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(MachineMemory, ReadWriteRoundTrip)
{
    MachineMemory mem(4);
    mem.write64(0x100, 0xdeadbeefcafebabeull);
    EXPECT_EQ(mem.read64(0x100), 0xdeadbeefcafebabeull);
    mem.write8(0x0, 0x42);
    EXPECT_EQ(mem.read8(0x0), 0x42);
    mem.write16(0x10, 0x1234);
    EXPECT_EQ(mem.read16(0x10), 0x1234);
    mem.write32(0x20, 0xabcdef01);
    EXPECT_EQ(mem.read32(0x20), 0xabcdef01u);
}

TEST(MachineMemory, SpanReadWrite)
{
    MachineMemory mem(2);
    std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
    mem.write(100, data);
    std::vector<std::uint8_t> out(5);
    mem.read(100, out);
    EXPECT_EQ(out, data);
}

TEST(MachineMemory, CrossPageAccess)
{
    MachineMemory mem(2);
    std::vector<std::uint8_t> data(100, 0x5a);
    mem.write(pageSize - 50, data);
    std::vector<std::uint8_t> out(100);
    mem.read(pageSize - 50, out);
    EXPECT_EQ(out, data);
}

TEST(MachineMemoryDeath, OutOfRangePanics)
{
    MachineMemory mem(1);
    EXPECT_DEATH(mem.read8(pageSize), "out of range");
    EXPECT_DEATH(mem.write64(pageSize - 4, 0), "out of range");
}

TEST(MachineMemory, FrameViewAndZero)
{
    MachineMemory mem(2);
    auto frame = mem.framePlain(pageSize);
    EXPECT_EQ(frame.size(), pageSize);
    frame[0] = 0xff;
    frame[4095] = 0xee;
    EXPECT_EQ(mem.read8(pageSize), 0xff);
    EXPECT_EQ(mem.read8(2 * pageSize - 1), 0xee);
    mem.zeroFrame(pageSize);
    EXPECT_EQ(mem.read8(pageSize), 0);
    EXPECT_EQ(mem.read8(2 * pageSize - 1), 0);
}

TEST(MachineMemoryDeath, UnalignedFramePanics)
{
    MachineMemory mem(2);
    EXPECT_DEATH(mem.framePlain(0x10), "page aligned");
}

TEST(MachineMemory, HugeMemoryCommitsOnlyTouchedFrames)
{
    // 1 GiB of machine memory: only the frame written below is ever
    // backed by the host.
    MachineMemory mem(262'144);
    EXPECT_EQ(mem.sizeBytes(), 262'144 * pageSize);
    Mpa last = mem.sizeBytes() - pageSize;
    for (std::uint8_t b : mem.framePlain(last))
        ASSERT_EQ(b, 0);
    mem.write64(mem.sizeBytes() - 8, 0x0123456789abcdefull);
    EXPECT_EQ(mem.read64(mem.sizeBytes() - 8), 0x0123456789abcdefull);
    EXPECT_EQ(mem.read8(last), 0);
}

TEST(MachineMemory, UntracedSystemStaysSmall)
{
    if (OSH_TEST_SANITIZED)
        GTEST_SKIP() << "sanitizer allocators distort the resident set";
    // A first, tiny System pages in the code and one-time state, so
    // the measured growth below is the default System's own data.
    {
        system::System warm(
            system::SystemConfig::Builder{}.guestFrames(16).build());
    }

    std::uint64_t before = residentBytes();
    if (before == 0)
        GTEST_SKIP() << "needs /proc/self/statm (Linux only)";
    system::System sys; // 4096 frames (16 MiB), tracing off.
    std::uint64_t after = residentBytes();
    std::uint64_t grown = after > before ? after - before : 0;
    EXPECT_FALSE(sys.tracer().enabled());
    // Machine frames and the trace ring are committed on first use; a
    // freshly built, untraced System has touched almost none of them.
    EXPECT_LT(grown, 2u << 20) << "System construction grew RSS by "
                               << grown << " bytes";
}

TEST(CostModel, ChargesAccumulate)
{
    CostModel cm;
    EXPECT_EQ(cm.cycles(), 0u);
    cm.charge(100);
    cm.charge(50, "vm_exit");
    EXPECT_EQ(cm.cycles(), 150u);
    EXPECT_EQ(cm.stats().value("vm_exit"), 1u);
    cm.resetCycles();
    EXPECT_EQ(cm.cycles(), 0u);
    // Stats survive a cycle reset.
    EXPECT_EQ(cm.stats().value("vm_exit"), 1u);
}

TEST(CostModel, CopyCountsEventsIntoItsOwnStats)
{
    CostModel cm;
    cm.charge(10, "vm_exit");
    CostModel copy(cm);
    copy.charge(10, "vm_exit");
    EXPECT_EQ(copy.stats().value("vm_exit"), 2u);
    EXPECT_EQ(cm.stats().value("vm_exit"), 1u);
    EXPECT_EQ(copy.cycles(), 20u);
}

TEST(Machine, ConfigApplied)
{
    MachineConfig cfg;
    cfg.numFrames = 128;
    cfg.seed = 99;
    Machine m(cfg);
    EXPECT_EQ(m.memory().numFrames(), 128u);
    EXPECT_EQ(m.memory().sizeBytes(), 128 * pageSize);
    // Same seed gives the same rng stream as a raw Rng.
    Rng ref(99);
    EXPECT_EQ(m.rng().next64(), ref.next64());
}

TEST(Machine, DefaultsAreSane)
{
    Machine m;
    EXPECT_GT(m.memory().numFrames(), 0u);
    EXPECT_EQ(m.cost().cycles(), 0u);
}

} // namespace
} // namespace osh::sim
