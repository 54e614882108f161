/**
 * @file
 * Heap-allocation budget of the guest page-fault path.
 *
 * Under Overshadow every swap-out of a cloaked page is a seal and every
 * swap-in a verify, so a pager running past its frame budget spends
 * its time in the fault path. Once every table on that path has grown
 * to its working size, a fault must not touch the host heap. This
 * binary replaces the global operator new with a counting one and runs
 * a cloaked pager at twice its frame budget.
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

TEST(AllocationBudget, SteadySwapFaultsAllocateNothing)
{
    constexpr std::uint64_t guestFrames = 128;
    constexpr std::uint64_t workingSetPages = 2 * guestFrames;
    constexpr std::uint64_t touchesPerPass = 256;
    constexpr int warmupPasses = 6;
    constexpr int measuredPasses = 10;

    // At depth 0 every seal is synchronous; at depth 4 evictions ride
    // the staging ring, which is allocated when the System is built.
    for (std::size_t async_depth : {0u, 4u}) {
        SCOPED_TRACE(testing::Message() << "async depth " << async_depth);
        System sys(SystemConfig::Builder{}
                       .seed(42)
                       .guestFrames(guestFrames)
                       .cloaking(true)
                       .asyncEvictDepth(async_depth)
                       .build());
        std::uint64_t faults = 0;
        std::uint64_t allocations = 0;
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
                            const std::uint64_t before = heapAllocations;
                            for (int n = 0; n < measuredPasses; ++n)
                                pass(n);
                            allocations = heapAllocations - before;
                            faults = sys.kernel().stats().value("swap_ins") -
                                     swap_ins;
                            return 0;
                        },
                        true, 64});
        auto r = sys.runProgram("pager");
        ASSERT_EQ(r.status, 0);
        ASSERT_FALSE(r.killed);
        ASSERT_GE(faults, 1000u);
        EXPECT_EQ(allocations, 0u) << allocations << " heap allocations over "
                                   << faults << " swap faults";
    }
}

} // namespace
} // namespace osh
