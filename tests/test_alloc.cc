/**
 * @file
 * Heap-allocation budgets of the guest page-fault path and of a cloaked
 * file server's round.
 *
 * Under Overshadow every swap-out of a cloaked page is a seal and every
 * swap-in a verify, so a pager running past its frame budget spends
 * its time in the fault path. Once every table on that path has grown
 * to its working size, a fault must not touch the host heap, even when
 * the metadata cache is too small for the working set and every fault
 * misses and evicts in it. A cloaked server's syscall ring (app ring,
 * shim, kernel) is held to a budget per round. This binary replaces
 * the global operator new with a counting one.
 */

#include "system/system.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

namespace
{

/** Every operator new call in this process. */
std::uint64_t heapAllocations = 0;

void*
countedAlloc(std::size_t size)
{
    ++heapAllocations;
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace osh
{
namespace
{

using system::System;
using system::SystemConfig;

struct PagerRun
{
    std::uint64_t faults = 0;
    std::uint64_t allocations = 0;
    std::uint64_t metadataMisses = 0;
};

/**
 * A cloaked pager over twice its frame budget: warm-up passes, then
 * measured passes that count swap faults, heap allocations and
 * metadata-cache misses.
 */
PagerRun
runPager(SystemConfig::Builder builder)
{
    constexpr std::uint64_t guestFrames = 128;
    constexpr std::uint64_t workingSetPages = 2 * guestFrames;
    constexpr std::uint64_t touchesPerPass = 256;
    constexpr int warmupPasses = 6;
    constexpr int measuredPasses = 10;

    System sys(builder.seed(42).guestFrames(guestFrames).cloaking(true)
                   .build());
    const sim::CostModel& cost = sys.machine().cost();
    PagerRun run;
    sys.addProgram(
        "pager",
        os::Program{[&](os::Env& env) {
                        GuestVA buf = env.allocPages(workingSetPages);
                        for (std::uint64_t p = 0; p < workingSetPages; ++p)
                            env.store64(buf + p * pageSize, p + 1);
                        // Passes alternate read-only and read-modify-
                        // write, so faults take the dirty seal, the
                        // clean path and the victim cache.
                        std::uint64_t x = 0x9e3779b97f4a7c15ull;
                        auto pass = [&](int n) {
                            for (std::uint64_t i = 0; i < touchesPerPass;
                                 ++i) {
                                x = x * 6364136223846793005ull +
                                    1442695040888963407ull;
                                GuestVA va = buf + ((x >> 33) %
                                                    workingSetPages) *
                                                       pageSize;
                                std::uint64_t v = env.load64(va);
                                if (n % 2 == 1)
                                    env.store64(va, v * 3 + 1);
                            }
                        };
                        for (int n = 0; n < warmupPasses; ++n)
                            pass(n);
                        const std::uint64_t swap_ins =
                            sys.kernel().stats().value("swap_ins");
                        const std::uint64_t misses =
                            cost.stats().value("metadata_miss");
                        const std::uint64_t before = heapAllocations;
                        for (int n = 0; n < measuredPasses; ++n)
                            pass(n);
                        run.allocations = heapAllocations - before;
                        run.metadataMisses =
                            cost.stats().value("metadata_miss") - misses;
                        run.faults = sys.kernel().stats().value("swap_ins") -
                                     swap_ins;
                        return 0;
                    },
                    true, 64});
    auto r = sys.runProgram("pager");
    EXPECT_EQ(r.status, 0);
    EXPECT_FALSE(r.killed);
    return run;
}

TEST(AllocationBudget, SteadySwapFaultsAllocateNothing)
{
    // At depth 0 every seal is synchronous; at depth 4 evictions ride
    // the staging ring, which is allocated when the System is built.
    for (std::size_t async_depth : {0u, 4u}) {
        SCOPED_TRACE(testing::Message() << "async depth " << async_depth);
        PagerRun run =
            runPager(SystemConfig::Builder{}.asyncEvictDepth(async_depth));
        ASSERT_GE(run.faults, 1000u);
        EXPECT_EQ(run.allocations, 0u)
            << run.allocations << " heap allocations over " << run.faults
            << " swap faults";
    }
}

TEST(AllocationBudget, MetadataCacheMissesAllocateNothing)
{
    // 64 cache entries against a 256-page working set: warm faults
    // miss in the metadata cache and evict from it.
    PagerRun run = runPager(SystemConfig::Builder{}.metadataCacheEntries(64));
    ASSERT_GE(run.faults, 1000u);
    ASSERT_GE(run.metadataMisses, 1000u);
    EXPECT_EQ(run.allocations, 0u)
        << run.allocations << " heap allocations over " << run.faults
        << " swap faults and " << run.metadataMisses
        << " metadata-cache misses";
}

TEST(AllocationBudget, FileServerRoundStaysUnderBudget)
{
    // One round of a cloaked server: write a 64-page protected file,
    // serve 1 KiB reads of it serially (lseek + read, each copied to an
    // uncloaked sink), then as depth-8 batches of preads and pwrites.
    // The first round warms the system; the second is counted.
    constexpr std::uint64_t fileBytes = 64 * pageSize;
    constexpr std::uint64_t requestBytes = 1024;
    constexpr std::uint64_t serialRequests = 1024;
    constexpr std::uint64_t batchedRequests = 3072;
    constexpr std::uint64_t batchDepth = 8;
    constexpr std::uint64_t roundBudget = 1000;

    System sys(SystemConfig::Builder{}.seed(42).cloaking(true).build());
    sys.addProgram(
        "server",
        os::Program{[](os::Env& env) {
                        const std::string path = "/cloaked/served";
                        env.mkdir("/cloaked");
                        std::int64_t fd = env.open(
                            path, os::openCreate | os::openWrite |
                                      os::openTrunc);
                        if (fd < 0)
                            return 1;
                        GuestVA chunk = env.allocPages(1);
                        for (std::uint64_t off = 0; off < fileBytes;
                             off += pageSize) {
                            env.store64(chunk, off + 1);
                            if (env.write(static_cast<std::uint64_t>(fd),
                                          chunk, pageSize) !=
                                static_cast<std::int64_t>(pageSize))
                                return 2;
                        }
                        env.close(static_cast<std::uint64_t>(fd));

                        fd = env.open(path, os::openRead);
                        std::int64_t sink = env.open(
                            "/served.out", os::openCreate | os::openWrite |
                                               os::openTrunc);
                        if (fd < 0 || sink < 0)
                            return 3;
                        const auto ufd = static_cast<std::uint64_t>(fd);
                        const auto usink = static_cast<std::uint64_t>(sink);
                        std::uint64_t x = 7;
                        auto next = [&x] {
                            x = x * 6364136223846793005ull +
                                1442695040888963407ull;
                            return (x >> 33) % (fileBytes - requestBytes);
                        };
                        GuestVA buf = env.allocPages(1);
                        for (std::uint64_t r = 0; r < serialRequests; ++r) {
                            env.lseek(ufd, static_cast<std::int64_t>(next()),
                                      os::seekSet);
                            if (env.read(ufd, buf, requestBytes) !=
                                    static_cast<std::int64_t>(requestBytes) ||
                                env.write(usink, buf, requestBytes) !=
                                    static_cast<std::int64_t>(requestBytes))
                                return 4;
                            env.lseek(usink, 0, os::seekSet);
                        }
                        GuestVA bufs = env.allocPages(batchDepth);
                        std::vector<os::BatchEntry> reads, writes;
                        std::vector<std::int64_t> results;
                        for (std::uint64_t c = 0; c < batchDepth; ++c)
                            writes.push_back({os::Sys::Pwrite,
                                              {usink, bufs + c * pageSize,
                                               requestBytes, 0}});
                        for (std::uint64_t r = 0; r < batchedRequests;
                             r += batchDepth) {
                            reads.clear();
                            for (std::uint64_t c = 0; c < batchDepth; ++c)
                                reads.push_back({os::Sys::Pread,
                                                 {ufd, bufs + c * pageSize,
                                                  requestBytes, next()}});
                            if (env.submitBatch(reads, results) !=
                                    static_cast<std::int64_t>(batchDepth) ||
                                env.submitBatch(writes, results) !=
                                    static_cast<std::int64_t>(batchDepth))
                                return 5;
                        }
                        env.close(usink);
                        env.close(ufd);
                        return env.unlink(path) == 0 ? 0 : 6;
                    },
                    true, 64});

    ASSERT_EQ(sys.runProgram("server").status, 0);
    const std::uint64_t before = heapAllocations;
    system::ExitResult r = sys.runProgram("server");
    const std::uint64_t allocations = heapAllocations - before;
    ASSERT_EQ(r.status, 0) << r.killReason;
    EXPECT_LE(allocations, roundBudget)
        << allocations << " heap allocations in one server round";
}

} // namespace
} // namespace osh
