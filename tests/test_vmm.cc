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

#include <algorithm>
#include <optional>
#include <random>
#include <unordered_map>
#include <vector>

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

/**
 * Reference shadow manager for the differential test: one hash map of
 * (context, va page) -> slot, every invalidation a full scan.
 */
class NaiveShadow
{
  public:
    std::optional<ShadowEntry>
    lookup(const Context& ctx, GuestVA va_page) const
    {
        auto it = slots_.find({ctx, va_page});
        if (it == slots_.end() || it->second.suspended)
            return std::nullopt;
        return it->second.entry;
    }

    void
    install(const Context& ctx, GuestVA va_page, const ShadowEntry& entry)
    {
        slots_[{ctx, va_page}] = {entry, false};
        peak = std::max(peak, slots_.size());
        ++installs;
    }

    bool
    reactivate(const Context& ctx, GuestVA va_page, const ShadowEntry& entry)
    {
        auto it = slots_.find({ctx, va_page});
        if (it == slots_.end() || !it->second.suspended ||
            it->second.entry.mpa != entry.mpa)
            return false;
        it->second = {entry, false};
        ++reactivations;
        return true;
    }

    void
    invalidateVa(Asid asid, GuestVA va)
    {
        vaInvalidations += std::erase_if(slots_, [&](const auto& kv) {
            return kv.first.first.asid == asid &&
                   kv.first.second == pageBase(va);
        });
    }

    void
    invalidateAsid(Asid asid)
    {
        std::erase_if(slots_, [&](const auto& kv) {
            return kv.first.first.asid == asid;
        });
        ++asidInvalidations;
    }

    void
    invalidateMpa(Mpa frame)
    {
        if (std::erase_if(slots_, [&](const auto& kv) {
                return kv.second.entry.mpa == frame;
            }) > 0)
            ++mpaInvalidations;
    }

    void
    suspendMpa(Mpa frame)
    {
        bool any = false;
        for (auto& [key, slot] : slots_) {
            if (slot.entry.mpa == frame) {
                slot.suspended = true;
                any = true;
            }
        }
        if (any)
            ++mpaSuspends;
    }

    void
    invalidateAll()
    {
        slots_.clear();
        ++fullInvalidations;
    }

    std::size_t
    count(bool suspended, std::optional<Asid> asid = std::nullopt) const
    {
        std::size_t n = 0;
        for (const auto& [key, slot] : slots_)
            n += slot.suspended == suspended &&
                 (!asid || key.first.asid == *asid);
        return n;
    }

    std::size_t peak = 0;
    std::uint64_t installs = 0;
    std::uint64_t reactivations = 0;
    std::uint64_t vaInvalidations = 0;
    std::uint64_t asidInvalidations = 0;
    std::uint64_t mpaInvalidations = 0;
    std::uint64_t mpaSuspends = 0;
    std::uint64_t fullInvalidations = 0;

  private:
    struct Slot
    {
        ShadowEntry entry;
        bool suspended = false;
    };
    using Key = std::pair<Context, GuestVA>;
    struct KeyHash
    {
        std::size_t
        operator()(const Key& k) const
        {
            return std::hash<Context>{}(k.first) * 31 + k.second;
        }
    };
    std::unordered_map<Key, Slot, KeyHash> slots_;
};

TEST(ShadowManager, MatchesNaiveModel)
{
    // Several views share each asid, so one (asid, va) chain holds
    // several contexts; few frames are shared by many entries. The slot
    // array and head tables grow from their empty size as entries
    // accumulate, and invalidateAll empties them mid-run.
    const std::vector<Context> contexts = {
        {1, 0, false}, {1, 0, true}, {1, 7, false},
        {2, 0, false}, {2, 9, false}, {3, 0, true},
    };
    const std::vector<Asid> asids = {1, 2, 3};
    constexpr std::uint64_t vaPages = 10;
    constexpr std::uint64_t frames = 6;
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        std::mt19937_64 rng(seed);
        auto pick = [&rng](std::uint64_t n) { return rng() % n; };
        auto frame = [&] { return 0x100000 + pick(frames) * pageSize; };
        ShadowManager sm;
        NaiveShadow model;

        for (int step = 0; step < 3000; ++step) {
            const Context& ctx = contexts[pick(contexts.size())];
            GuestVA va = pick(vaPages) * pageSize;
            ShadowEntry e{frame(), pick(2) == 0, pick(2) == 0};
            std::uint64_t op = pick(1000);
            if (op < 350) {
                sm.install(ctx, va, e);
                model.install(ctx, va, e);
            } else if (op < 500) {
                ASSERT_EQ(sm.reactivate(ctx, va, e),
                          model.reactivate(ctx, va, e))
                    << "step " << step;
            } else if (op < 620) {
                // Unaligned addresses are rounded down by both.
                GuestVA any = va + pick(pageSize);
                sm.invalidateVa(ctx.asid, any);
                model.invalidateVa(ctx.asid, any);
            } else if (op < 720) {
                Mpa f = frame();
                sm.invalidateMpa(f);
                model.invalidateMpa(f);
            } else if (op < 900) {
                Mpa f = frame();
                sm.suspendMpa(f);
                model.suspendMpa(f);
            } else if (op < 995) {
                sm.invalidateAsid(ctx.asid);
                model.invalidateAsid(ctx.asid);
            } else {
                sm.invalidateAll();
                model.invalidateAll();
            }

            ASSERT_EQ(sm.entryCount(), model.count(false)) << "step " << step;
            ASSERT_EQ(sm.suspendedCount(), model.count(true))
                << "step " << step;
            for (Asid a : asids)
                ASSERT_EQ(sm.entryCount(a), model.count(false, a))
                    << "step " << step << " asid " << a;
            ASSERT_EQ(sm.peakSlotCount(), model.peak) << "step " << step;
            for (const Context& c : contexts) {
                for (std::uint64_t p = 0; p < vaPages; ++p) {
                    auto got = sm.lookup(c, p * pageSize);
                    auto want = model.lookup(c, p * pageSize);
                    ASSERT_EQ(got.has_value(), want.has_value())
                        << "step " << step << " page " << p;
                    if (got) {
                        EXPECT_EQ(got->mpa, want->mpa);
                        EXPECT_EQ(got->canRead, want->canRead);
                        EXPECT_EQ(got->canWrite, want->canWrite);
                    }
                }
            }
            const StatGroup& st = sm.stats();
            ASSERT_EQ(st.value("installs"), model.installs);
            ASSERT_EQ(st.value("reactivations"), model.reactivations);
            ASSERT_EQ(st.value("va_invalidations"), model.vaInvalidations);
            ASSERT_EQ(st.value("asid_invalidations"),
                      model.asidInvalidations);
            ASSERT_EQ(st.value("mpa_invalidations"), model.mpaInvalidations);
            ASSERT_EQ(st.value("mpa_suspends"), model.mpaSuspends);
            ASSERT_EQ(st.value("full_invalidations"),
                      model.fullInvalidations);
        }
        // Past 8 resident entries the head tables have doubled from
        // their empty size at least three times.
        EXPECT_GT(sm.peakSlotCount(), 8u);
    }
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

/**
 * Reference TLB for the differential test: one vector in FIFO order,
 * every operation a full scan. Same counters as Tlb.
 */
class NaiveTlb
{
  public:
    explicit NaiveTlb(std::size_t capacity) : capacity_(capacity) {}

    std::optional<ShadowEntry>
    lookup(const Context& ctx, GuestVA va_page)
    {
        for (const Item& it : items_) {
            if (it.ctx == ctx && it.vaPage == va_page) {
                ++hits;
                return it.entry;
            }
        }
        ++misses;
        return std::nullopt;
    }

    void
    insert(const Context& ctx, GuestVA va_page, const ShadowEntry& entry)
    {
        for (Item& it : items_) {
            if (it.ctx == ctx && it.vaPage == va_page) {
                it.entry = entry;
                return;
            }
        }
        if (items_.size() == capacity_) {
            items_.erase(items_.begin());
            ++evictions;
        }
        items_.push_back({ctx, va_page, entry});
    }

    void
    invalidateVa(Asid asid, GuestVA va_page)
    {
        std::erase_if(items_, [&](const Item& it) {
            return it.ctx.asid == asid && it.vaPage == pageBase(va_page);
        });
    }

    void
    invalidateAsid(Asid asid)
    {
        std::erase_if(items_,
                      [&](const Item& it) { return it.ctx.asid == asid; });
    }

    void
    invalidateMpa(Mpa frame)
    {
        std::erase_if(items_, [&](const Item& it) {
            return pageBase(it.entry.mpa) == pageBase(frame);
        });
    }

    void flushAll() { items_.clear(); }
    std::size_t size() const { return items_.size(); }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

  private:
    struct Item
    {
        Context ctx;
        GuestVA vaPage;
        ShadowEntry entry;
    };

    std::size_t capacity_;
    std::vector<Item> items_; ///< Front = oldest.
};

TEST(Tlb, MatchesNaiveFifoModel)
{
    // Several views share each asid, so (asid, va) chains hold more
    // than one entry, and few frames are shared by many entries. Small
    // capacities make the head tables collide and wrap.
    const std::vector<Context> contexts = {
        {1, 0, false}, {1, 0, true}, {1, 7, false},
        {2, 0, false}, {2, 9, false}, {3, 0, true},
    };
    constexpr std::uint64_t vaPages = 10;
    constexpr std::uint64_t frames = 6;
    for (std::size_t capacity : {1u, 2u, 3u, 5u, 8u, 16u, 64u}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(testing::Message()
                         << "capacity " << capacity << " seed " << seed);
            std::mt19937_64 rng(seed * 1000 + capacity);
            auto pick = [&rng](std::uint64_t n) { return rng() % n; };
            auto frame = [&] { return 0x100000 + pick(frames) * pageSize; };
            Tlb tlb(capacity);
            NaiveTlb model(capacity);

            for (int step = 0; step < 1500; ++step) {
                const Context& ctx = contexts[pick(contexts.size())];
                GuestVA va = pick(vaPages) * pageSize;
                std::uint64_t op = pick(100);
                if (op < 40) {
                    ShadowEntry e{frame(), pick(2) == 0, pick(2) == 0};
                    tlb.insert(ctx, va, e);
                    model.insert(ctx, va, e);
                } else if (op < 60) {
                    auto got = tlb.lookup(ctx, va);
                    auto want = model.lookup(ctx, va);
                    ASSERT_EQ(got.has_value(), want.has_value());
                } else if (op < 75) {
                    // Unaligned addresses are rounded down by both.
                    GuestVA any = va + pick(pageSize);
                    tlb.invalidateVa(ctx.asid, any);
                    model.invalidateVa(ctx.asid, any);
                } else if (op < 90) {
                    Mpa any = frame() + pick(pageSize);
                    tlb.invalidateMpa(any);
                    model.invalidateMpa(any);
                } else if (op < 98) {
                    tlb.invalidateAsid(ctx.asid);
                    model.invalidateAsid(ctx.asid);
                } else {
                    tlb.flushAll();
                    model.flushAll();
                }

                ASSERT_EQ(tlb.size(), model.size()) << "step " << step;
                ASSERT_EQ(tlb.stats().value("evictions"), model.evictions)
                    << "step " << step;
                // Probe every key: the resident sets and their entries
                // agree (the probes count identically on both sides).
                for (const Context& c : contexts) {
                    for (std::uint64_t p = 0; p < vaPages; ++p) {
                        auto got = tlb.lookup(c, p * pageSize);
                        auto want = model.lookup(c, p * pageSize);
                        ASSERT_EQ(got.has_value(), want.has_value())
                            << "step " << step << " page " << p;
                        if (got) {
                            EXPECT_EQ(got->mpa, want->mpa);
                            EXPECT_EQ(got->canRead, want->canRead);
                            EXPECT_EQ(got->canWrite, want->canWrite);
                        }
                    }
                }
                ASSERT_EQ(tlb.stats().value("hits"), model.hits);
                ASSERT_EQ(tlb.stats().value("misses"), model.misses);
            }
        }
    }
}

TEST(Tlb, InvalidationChurnLeavesNothingResident)
{
    Tlb tlb(4);
    Context ctx{1, 0, false};
    for (int i = 0; i < 1000; ++i) {
        GuestVA va = static_cast<GuestVA>(0x1000 + (i % 4) * pageSize);
        tlb.insert(ctx, va, {0x100000 + va, true, true});
        tlb.invalidateVa(1, va);
    }
    EXPECT_EQ(tlb.size(), 0u);
    EXPECT_EQ(tlb.stats().value("evictions"), 0u);
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
