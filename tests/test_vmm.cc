/**
 * @file
 * Unit tests for the VMM: pmap allocation, multi-shadow page tables,
 * reverse-index invalidation, TLB behaviour and register scrubbing.
 */

#include "sim/machine.hh"
#include "vmm/pmap.hh"
#include "vmm/registers.hh"
#include "vmm/shadow.hh"
#include "vmm/tlb.hh"
#include "vmm/vmm.hh"

#include <gtest/gtest.h>

namespace osh::vmm
{
namespace
{

sim::MachineConfig
smallMachine()
{
    sim::MachineConfig cfg;
    cfg.numFrames = 64;
    return cfg;
}

TEST(Pmap, BacksFramesLazily)
{
    sim::Machine m(smallMachine());
    Pmap pmap(m, 16);
    EXPECT_FALSE(pmap.isBacked(0));
    Mpa a = pmap.translate(0x1000);
    EXPECT_TRUE(pmap.isBacked(0x1000));
    EXPECT_FALSE(pmap.isBacked(0x3000));
    // Stable mapping.
    EXPECT_EQ(pmap.translate(0x1000), a);
    // Offset preserved.
    EXPECT_EQ(pmap.translate(0x1234), pageBase(a) + 0x234);
}

TEST(Pmap, DistinctGuestFramesGetDistinctMachineFrames)
{
    sim::Machine m(smallMachine());
    Pmap pmap(m, 16);
    Mpa a = pmap.translate(0);
    Mpa b = pmap.translate(pageSize);
    EXPECT_NE(pageBase(a), pageBase(b));
}

TEST(PmapDeath, OutOfRangeGpaPanics)
{
    sim::Machine m(smallMachine());
    Pmap pmap(m, 4);
    EXPECT_DEATH(pmap.translate(64 * pageSize), "outside guest");
}

TEST(Shadow, PerContextIsolation)
{
    ShadowManager sm;
    Context app{1, 7, false};
    Context kernel{1, systemDomain, true};

    sm.install(app, 0x1000, {0x5000, true, true});
    EXPECT_TRUE(sm.lookup(app, 0x1000).has_value());
    EXPECT_FALSE(sm.lookup(kernel, 0x1000).has_value());

    // The same VA in a different view resolves independently — the
    // essence of multi-shadowing.
    sm.install(kernel, 0x1000, {0x6000, true, false});
    EXPECT_EQ(sm.lookup(app, 0x1000)->mpa, 0x5000u);
    EXPECT_EQ(sm.lookup(kernel, 0x1000)->mpa, 0x6000u);
}

TEST(Shadow, InvalidateVaDropsAllViewsOfAsid)
{
    ShadowManager sm;
    Context app{1, 7, false};
    Context sys{1, systemDomain, true};
    Context other{2, systemDomain, false};
    sm.install(app, 0x1000, {0x5000, true, true});
    sm.install(sys, 0x1000, {0x5000, true, true});
    sm.install(other, 0x1000, {0x7000, true, true});

    sm.invalidateVa(1, 0x1000);
    EXPECT_FALSE(sm.lookup(app, 0x1000).has_value());
    EXPECT_FALSE(sm.lookup(sys, 0x1000).has_value());
    EXPECT_TRUE(sm.lookup(other, 0x1000).has_value());
}

TEST(Shadow, InvalidateMpaDropsEveryMapping)
{
    ShadowManager sm;
    Context a{1, 1, false};
    Context b{2, systemDomain, true};
    Context c{3, 2, false};
    sm.install(a, 0x1000, {0x9000, true, true});
    sm.install(b, 0x2000, {0x9000, true, false});
    sm.install(c, 0x3000, {0xa000, true, true});

    sm.invalidateMpa(0x9000);
    EXPECT_FALSE(sm.lookup(a, 0x1000).has_value());
    EXPECT_FALSE(sm.lookup(b, 0x2000).has_value());
    EXPECT_TRUE(sm.lookup(c, 0x3000).has_value());
    EXPECT_EQ(sm.entryCount(), 1u);
}

TEST(Shadow, ReinstallUpdatesReverseIndex)
{
    ShadowManager sm;
    Context a{1, 1, false};
    sm.install(a, 0x1000, {0x9000, true, true});
    // Re-install the same VA pointing at a different frame.
    sm.install(a, 0x1000, {0xb000, true, true});
    // Invalidating the old frame must not disturb the new mapping.
    sm.invalidateMpa(0x9000);
    ASSERT_TRUE(sm.lookup(a, 0x1000).has_value());
    EXPECT_EQ(sm.lookup(a, 0x1000)->mpa, 0xb000u);
    sm.invalidateMpa(0xb000);
    EXPECT_FALSE(sm.lookup(a, 0x1000).has_value());
}

TEST(Shadow, InvalidateAsidKeepsOthers)
{
    ShadowManager sm;
    Context a{1, 1, false};
    Context b{2, 2, false};
    sm.install(a, 0x1000, {0x9000, true, true});
    sm.install(a, 0x2000, {0xa000, true, true});
    sm.install(b, 0x1000, {0xb000, true, true});
    sm.invalidateAsid(1);
    EXPECT_EQ(sm.entryCount(), 1u);
    EXPECT_TRUE(sm.lookup(b, 0x1000).has_value());
}

TEST(Tlb, HitAndMissCounting)
{
    Tlb tlb(8);
    Context ctx{1, 0, false};
    EXPECT_FALSE(tlb.lookup(ctx, 0x1000).has_value());
    tlb.insert(ctx, 0x1000, {0x5000, true, true});
    ASSERT_TRUE(tlb.lookup(ctx, 0x1000).has_value());
    EXPECT_EQ(tlb.stats().value("hits"), 1u);
    EXPECT_EQ(tlb.stats().value("misses"), 1u);
}

TEST(Tlb, CopiesAndMovesCountIntoTheirOwnStats)
{
    Tlb tlb(8);
    Context ctx{1, 0, false};
    tlb.insert(ctx, 0x1000, {0x5000, true, true});
    ASSERT_TRUE(tlb.lookup(ctx, 0x1000).has_value());
    EXPECT_FALSE(tlb.lookup(ctx, 0x2000).has_value());

    Tlb copy(tlb);
    ASSERT_TRUE(copy.lookup(ctx, 0x1000).has_value());
    EXPECT_FALSE(copy.lookup(ctx, 0x3000).has_value());
    EXPECT_EQ(copy.stats().value("hits"), 2u);
    EXPECT_EQ(copy.stats().value("misses"), 2u);
    EXPECT_EQ(tlb.stats().value("hits"), 1u);
    EXPECT_EQ(tlb.stats().value("misses"), 1u);

    Tlb moved(std::move(copy));
    ASSERT_TRUE(moved.lookup(ctx, 0x1000).has_value());
    EXPECT_EQ(moved.stats().value("hits"), 3u);

    Tlb assigned(4, "tlb1");
    assigned = tlb;
    ASSERT_TRUE(assigned.lookup(ctx, 0x1000).has_value());
    EXPECT_EQ(assigned.stats().value("hits"), 2u);
    EXPECT_EQ(tlb.stats().value("hits"), 1u);
}

TEST(Tlb, CapacityEviction)
{
    Tlb tlb(4);
    Context ctx{1, 0, false};
    for (GuestVA va = 0; va < 8 * pageSize; va += pageSize)
        tlb.insert(ctx, va, {va + 0x100000, true, true});
    EXPECT_LE(tlb.size(), 4u);
    // The newest entries survive FIFO replacement.
    EXPECT_TRUE(tlb.lookup(ctx, 7 * pageSize).has_value());
}

TEST(Tlb, ReinsertAfterInvalidateDoesNotEvictLiveEntry)
{
    // Regression: invalidateVa used to leave the key's fifo occurrence
    // behind, so a re-inserted key was queued twice and the stale front
    // duplicate evicted the *live* re-inserted entry instead of the
    // oldest survivor.
    Tlb tlb(4);
    Context ctx{1, 0, false};
    tlb.insert(ctx, 0x1000, {0xa000, true, true}); // A
    tlb.insert(ctx, 0x2000, {0xb000, true, true}); // B
    tlb.invalidateVa(1, 0x1000);
    tlb.insert(ctx, 0x1000, {0xa000, true, true}); // A again
    tlb.insert(ctx, 0x3000, {0xc000, true, true}); // C
    tlb.insert(ctx, 0x4000, {0xd000, true, true}); // D -> full

    // The next insert must evict B (the oldest live entry), not the
    // freshly re-inserted A via its stale queue duplicate.
    tlb.insert(ctx, 0x5000, {0xe000, true, true}); // E
    EXPECT_TRUE(tlb.lookup(ctx, 0x1000).has_value());
    EXPECT_FALSE(tlb.lookup(ctx, 0x2000).has_value());
    EXPECT_TRUE(tlb.lookup(ctx, 0x5000).has_value());
    EXPECT_LE(tlb.size(), 4u);
}

TEST(Tlb, InvalidationChurnKeepsQueueBounded)
{
    // Regression: the replacement queue grew by one stale key per
    // invalidate/re-insert cycle, unboundedly.
    Tlb tlb(4);
    Context ctx{1, 0, false};
    for (int i = 0; i < 1000; ++i) {
        GuestVA va = static_cast<GuestVA>(0x1000 + (i % 4) * pageSize);
        tlb.insert(ctx, va, {0x100000 + va, true, true});
        tlb.invalidateVa(1, va);
    }
    EXPECT_LE(tlb.queueLength(), 8u); // 2 * capacity compaction bound.
    EXPECT_EQ(tlb.size(), 0u);
}

TEST(Tlb, InvalidationScopes)
{
    Tlb tlb(16);
    Context a{1, 0, false};
    Context b{2, 0, false};
    tlb.insert(a, 0x1000, {0x5000, true, true});
    tlb.insert(a, 0x2000, {0x6000, true, true});
    tlb.insert(b, 0x1000, {0x7000, true, true});

    tlb.invalidateVa(1, 0x1000);
    EXPECT_FALSE(tlb.lookup(a, 0x1000).has_value());
    EXPECT_TRUE(tlb.lookup(a, 0x2000).has_value());
    EXPECT_TRUE(tlb.lookup(b, 0x1000).has_value());

    tlb.invalidateAsid(1);
    EXPECT_FALSE(tlb.lookup(a, 0x2000).has_value());
    EXPECT_TRUE(tlb.lookup(b, 0x1000).has_value());

    tlb.flushAll();
    EXPECT_EQ(tlb.size(), 0u);
}

TEST(VmmDeath, TlbSlotOutOfRangePanics)
{
    sim::Machine m(smallMachine());
    Vmm vmm(m, 64);
    vmm.setVcpuCount(2);
    EXPECT_EQ(vmm.tlb(1).stats().name(), "tlb1");
    EXPECT_DEATH(vmm.tlb(2), "out of range");
}

TEST(Registers, ScrubKeepsSyscallArgs)
{
    RegisterFile regs;
    for (std::size_t i = 0; i < numGprs; ++i)
        regs.gpr[i] = 0x1000 + i;
    regs.pc = 0xdead;
    regs.sp = 0xbeef;
    regs.flags = 0xff;

    regs.scrub(numSyscallRegs, 0x100, 0x200);
    for (std::size_t i = 0; i < numSyscallRegs; ++i)
        EXPECT_EQ(regs.gpr[i], 0x1000 + i);
    for (std::size_t i = numSyscallRegs; i < numGprs; ++i)
        EXPECT_EQ(regs.gpr[i], 0u);
    EXPECT_EQ(regs.pc, 0x100u);
    EXPECT_EQ(regs.sp, 0x200u);
    EXPECT_EQ(regs.flags, 0u);
}

TEST(Registers, FullScrubForInterrupts)
{
    RegisterFile regs;
    regs.gpr[0] = 42;
    regs.gpr[15] = 99;
    regs.scrub(0, 0, 0);
    for (std::size_t i = 0; i < numGprs; ++i)
        EXPECT_EQ(regs.gpr[i], 0u);
}

TEST(Context, HashDistinguishesFields)
{
    std::hash<Context> h;
    Context a{1, 1, false};
    Context b{1, 1, true};
    Context c{1, 2, false};
    Context d{2, 1, false};
    EXPECT_NE(h(a), h(b));
    EXPECT_NE(h(a), h(c));
    EXPECT_NE(h(a), h(d));
    EXPECT_EQ(a, (Context{1, 1, false}));
}

} // namespace
} // namespace osh::vmm
