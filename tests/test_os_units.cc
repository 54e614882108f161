/**
 * @file
 * Unit tests for the kernel's building blocks, independent of a full
 * simulation: address spaces/VMAs, the frame allocator, the swap
 * device and the VFS naming layer.
 */

#include "os/addrspace.hh"
#include "os/frames.hh"
#include "os/swap.hh"
#include "os/vfs.hh"

#include <gtest/gtest.h>

namespace osh::os
{
namespace
{

// ---------------------------------------------------------------------------
// AddressSpace
// ---------------------------------------------------------------------------

TEST(AddressSpace, VmaLookupBoundaries)
{
    AddressSpace as(1);
    Vma v;
    v.start = 0x10000;
    v.end = 0x14000;
    ASSERT_TRUE(as.addVma(v));
    EXPECT_EQ(as.findVma(0x0ffff), nullptr);
    EXPECT_NE(as.findVma(0x10000), nullptr);
    EXPECT_NE(as.findVma(0x13fff), nullptr);
    EXPECT_EQ(as.findVma(0x14000), nullptr);
}

TEST(AddressSpace, OverlapRejected)
{
    AddressSpace as(1);
    Vma v;
    v.start = 0x10000;
    v.end = 0x14000;
    ASSERT_TRUE(as.addVma(v));
    Vma w = v;
    // Identical range.
    EXPECT_FALSE(as.addVma(w));
    // Overlapping from below.
    w.start = 0xc000;
    w.end = 0x11000;
    EXPECT_FALSE(as.addVma(w));
    // Overlapping from above.
    w.start = 0x13000;
    w.end = 0x18000;
    EXPECT_FALSE(as.addVma(w));
    // Containing.
    w.start = 0x8000;
    w.end = 0x20000;
    EXPECT_FALSE(as.addVma(w));
    // Adjacent is fine.
    w.start = 0x14000;
    w.end = 0x15000;
    EXPECT_TRUE(as.addVma(w));
    w.start = 0xf000;
    w.end = 0x10000;
    EXPECT_TRUE(as.addVma(w));
}

TEST(AddressSpace, ArenaAllocationsDontCollide)
{
    AddressSpace as(1);
    Vma anon;
    anon.type = VmaType::Anon;
    GuestVA a = as.allocVma(anon, 4);
    GuestVA b = as.allocVma(anon, 8);
    EXPECT_GE(b, a + 4 * pageSize);
    Vma file;
    file.type = VmaType::File;
    GuestVA f = as.allocVma(file, 2);
    EXPECT_GE(f, fileMapBase);
}

TEST(AddressSpace, RemoveVmaCollectsPtes)
{
    AddressSpace as(1);
    Vma v;
    v.start = 0x10000;
    v.end = 0x13000;
    ASSERT_TRUE(as.addVma(v));
    as.pte(0x10000).present = true;
    as.pte(0x10000).gpa = 0x1000;
    as.pte(0x12000).swapped = true;
    as.pte(0x12000).slot = 7;

    std::vector<Pte> dropped;
    std::vector<GuestVA> vas;
    auto removed = as.removeVma(0x10000, dropped, vas);
    ASSERT_TRUE(removed.has_value());
    EXPECT_EQ(dropped.size(), 2u);
    EXPECT_EQ(as.findVma(0x10000), nullptr);
    EXPECT_EQ(as.findPte(0x10000), nullptr);
    // Removing again fails cleanly.
    dropped.clear();
    vas.clear();
    EXPECT_FALSE(as.removeVma(0x10000, dropped, vas).has_value());
}

TEST(AddressSpace, ResidentPageCount)
{
    AddressSpace as(1);
    EXPECT_EQ(as.residentPages(), 0u);
    as.pte(0x1000).present = true;
    as.pte(0x2000).present = false;
    as.pte(0x3000).present = true;
    EXPECT_EQ(as.residentPages(), 2u);
}

// ---------------------------------------------------------------------------
// FrameAllocator
// ---------------------------------------------------------------------------

TEST(Frames, AllocateUntilExhausted)
{
    FrameAllocator fa(4);
    std::vector<Gpa> got;
    for (int i = 0; i < 4; ++i) {
        auto g = fa.allocate(FrameUse::Anon);
        ASSERT_TRUE(g.has_value());
        got.push_back(*g);
    }
    EXPECT_FALSE(fa.allocate(FrameUse::Anon).has_value());
    EXPECT_EQ(fa.freeFrames(), 0u);
    // All distinct and page aligned.
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(pageOffset(got[i]), 0u);
        for (std::size_t j = i + 1; j < got.size(); ++j)
            EXPECT_NE(got[i], got[j]);
    }
}

TEST(Frames, RefCountingFreesAtZero)
{
    FrameAllocator fa(2);
    Gpa g = *fa.allocate(FrameUse::Anon);
    fa.ref(g);
    EXPECT_FALSE(fa.unref(g)); // 2 -> 1
    EXPECT_EQ(fa.freeFrames(), 1u);
    EXPECT_TRUE(fa.unref(g)); // 1 -> 0, freed
    EXPECT_EQ(fa.freeFrames(), 2u);
    // Reusable afterwards.
    EXPECT_TRUE(fa.allocate(FrameUse::PageCache).has_value());
}

TEST(Frames, InfoRoundTrip)
{
    FrameAllocator fa(2);
    Gpa g = *fa.allocate(FrameUse::PageCache);
    FrameInfo& fi = fa.info(g);
    EXPECT_EQ(fi.use, FrameUse::PageCache);
    fi.inode = 42;
    fi.pageIndex = 7;
    EXPECT_EQ(fa.info(g).inode, 42u);
    fa.unref(g);
    EXPECT_EQ(fa.info(g).use, FrameUse::Free);
}

TEST(Frames, EvictionCursorSkipsFree)
{
    FrameAllocator fa(4);
    Gpa a = *fa.allocate(FrameUse::Anon);
    Gpa b = *fa.allocate(FrameUse::Anon);
    fa.unref(a);
    // Only b is allocated; the cursor must keep returning it.
    for (int i = 0; i < 3; ++i) {
        auto cand = fa.nextEvictionCandidate();
        ASSERT_TRUE(cand.has_value());
        EXPECT_EQ(*cand, b);
    }
    fa.unref(b);
    EXPECT_FALSE(fa.nextEvictionCandidate().has_value());
}

// ---------------------------------------------------------------------------
// SwapDevice
// ---------------------------------------------------------------------------

TEST(Swap, SlotRoundTrip)
{
    sim::CostModel cost;
    SwapDevice swap(cost, 8);
    auto slot = swap.allocate();
    ASSERT_TRUE(slot.has_value());

    std::array<std::uint8_t, pageSize> out_page;
    out_page.fill(0x5a);
    swap.writeSlot(*slot, out_page);
    EXPECT_GT(cost.cycles(), 0u);

    std::array<std::uint8_t, pageSize> in_page{};
    swap.readSlot(*slot, in_page);
    EXPECT_EQ(in_page, out_page);
    EXPECT_EQ(swap.slotsInUse(), 1u);
    swap.release(*slot);
    EXPECT_EQ(swap.slotsInUse(), 0u);
}

TEST(Swap, ReleaseScrubsSlotBytes)
{
    // Regression: release() left the freed slot's ciphertext in place,
    // so allocate() handed the previous occupant's bytes to the next
    // owner (freed-slot resurrection without even needing a hostile
    // disk).
    sim::CostModel cost;
    SwapDevice swap(cost, 4);
    auto slot = swap.allocate();
    ASSERT_TRUE(slot.has_value());
    std::array<std::uint8_t, pageSize> page;
    page.fill(0xd7);
    swap.writeSlot(*slot, page);
    Cycles before = cost.cycles();
    swap.release(*slot);
    // The scrub is bookkeeping, not modelled disk I/O.
    EXPECT_EQ(cost.cycles(), before);

    auto again = swap.allocate();
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, *slot); // LIFO free list hands the slot back.
    for (std::uint8_t byte : swap.slotBytes(*again))
        ASSERT_EQ(byte, 0u);
}

TEST(Swap, SlotsAreReused)
{
    sim::CostModel cost;
    SwapDevice swap(cost, 2);
    auto a = swap.allocate();
    auto b = swap.allocate();
    ASSERT_TRUE(a && b);
    EXPECT_FALSE(swap.allocate().has_value()); // full
    swap.release(*a);
    auto c = swap.allocate();
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(*c, *a);
}

TEST(SwapDevice, SlotsNeverMoveAsTheDeviceGrows)
{
    // The attack director keeps rawSlot references across swap traffic,
    // so backing new slots must never move an existing one.
    sim::CostModel cost;
    SwapDevice swap(cost, 2048);
    auto first = swap.allocate();
    ASSERT_TRUE(first.has_value());
    const std::uint8_t* bytes = swap.rawSlot(*first).data();
    std::array<std::uint8_t, pageSize> page;
    page.fill(0x3c);
    swap.writeSlot(*first, page);

    std::vector<SwapSlot> more;
    for (int i = 0; i < 1000; ++i) {
        auto s = swap.allocate();
        ASSERT_TRUE(s.has_value());
        more.push_back(*s);
    }
    EXPECT_EQ(swap.rawSlot(*first).data(), bytes);
    EXPECT_EQ(swap.slotBytes(*first).data(), bytes);
    EXPECT_EQ(swap.rawSlot(*first), page);

    // A released slot reads back scrubbed, and stays backed.
    swap.release(*first);
    for (std::uint8_t byte : swap.slotBytes(*first))
        ASSERT_EQ(byte, 0u);
    for (SwapSlot s : more)
        swap.release(s);
    EXPECT_EQ(swap.slotsInUse(), 0u);
    EXPECT_EQ(swap.slotsBacked(), 1001u);
    // Reusing freed slots backs nothing new.
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(swap.allocate().has_value());
    EXPECT_EQ(swap.slotsBacked(), 1001u);
}

TEST(Swap, ChargesDiskCosts)
{
    sim::CostModel cost;
    SwapDevice swap(cost, 2);
    auto slot = swap.allocate();
    std::array<std::uint8_t, pageSize> page{};
    Cycles before = cost.cycles();
    swap.writeSlot(*slot, page);
    Cycles write_cost = cost.cycles() - before;
    EXPECT_GE(write_cost, cost.params().diskAccess);
}

// ---------------------------------------------------------------------------
// Vfs
// ---------------------------------------------------------------------------

TEST(VfsNaming, PathResolution)
{
    Vfs vfs;
    EXPECT_GT(vfs.create("/a", InodeType::Directory), 0);
    EXPECT_GT(vfs.create("/a/b", InodeType::Directory), 0);
    std::int64_t f = vfs.create("/a/b/c.txt", InodeType::File);
    EXPECT_GT(f, 0);
    EXPECT_EQ(vfs.lookup("/a/b/c.txt"), f);
    EXPECT_EQ(vfs.lookup("/a/b/"), vfs.lookup("/a/b"));
    EXPECT_EQ(vfs.lookup("relative"), -errInval);
    EXPECT_EQ(vfs.lookup("/a/missing"), -errNoEnt);
    EXPECT_EQ(vfs.lookup("/a/b/c.txt/x"), -errNotDir);
}

TEST(VfsNaming, CreateErrors)
{
    Vfs vfs;
    EXPECT_GT(vfs.create("/f", InodeType::File), 0);
    EXPECT_EQ(vfs.create("/f", InodeType::File), -errExist);
    EXPECT_EQ(vfs.create("/nodir/f", InodeType::File), -errNoEnt);
    EXPECT_EQ(vfs.create("/f/sub", InodeType::File), -errNotDir);
    EXPECT_EQ(vfs.create("/", InodeType::Directory), -errInval);
}

TEST(VfsNaming, UnlinkSemantics)
{
    Vfs vfs;
    vfs.create("/d", InodeType::Directory);
    vfs.create("/d/f", InodeType::File);
    EXPECT_EQ(vfs.unlink("/d"), -errBusy); // non-empty dir
    EXPECT_EQ(vfs.unlink("/d/f"), 0);
    EXPECT_EQ(vfs.unlink("/d/f"), -errNoEnt);
    EXPECT_EQ(vfs.unlink("/d"), 0); // now empty
}

TEST(VfsNaming, RenameMovesAcrossDirs)
{
    Vfs vfs;
    vfs.create("/a", InodeType::Directory);
    vfs.create("/b", InodeType::Directory);
    std::int64_t f = vfs.create("/a/x", InodeType::File);
    EXPECT_EQ(vfs.rename("/a/x", "/b/y"), 0);
    EXPECT_EQ(vfs.lookup("/a/x"), -errNoEnt);
    EXPECT_EQ(vfs.lookup("/b/y"), f);
    EXPECT_EQ(vfs.rename("/a/x", "/b/z"), -errNoEnt);
    vfs.create("/b/w", InodeType::File);
    EXPECT_EQ(vfs.rename("/b/y", "/b/w"), -errExist);
}

TEST(VfsNaming, DirEntryEnumeration)
{
    Vfs vfs;
    vfs.create("/z", InodeType::File);
    vfs.create("/a", InodeType::File);
    vfs.create("/m", InodeType::File);
    std::string name;
    // Sorted order (std::map).
    EXPECT_EQ(vfs.dirEntry(vfs.root(), 0, name), 0);
    EXPECT_EQ(name, "a");
    EXPECT_EQ(vfs.dirEntry(vfs.root(), 2, name), 0);
    EXPECT_EQ(name, "z");
    EXPECT_EQ(vfs.dirEntry(vfs.root(), 3, name), -errNoEnt);
}

TEST(VfsNaming, ReapOnlyWhenUnreferenced)
{
    Vfs vfs;
    std::int64_t f = vfs.create("/f", InodeType::File);
    Inode& ino = vfs.inode(static_cast<InodeId>(f));
    ino.openCount = 1;
    vfs.unlink("/f");
    // Still open: survives.
    EXPECT_TRUE(vfs.reapIfUnreferenced(static_cast<InodeId>(f)).empty());
    EXPECT_TRUE(vfs.exists(static_cast<InodeId>(f)));
    ino.openCount = 0;
    vfs.reapIfUnreferenced(static_cast<InodeId>(f));
    EXPECT_FALSE(vfs.exists(static_cast<InodeId>(f)));
}

TEST(VfsNaming, FileMappingKeepsInodeAlive)
{
    Vfs vfs;
    std::int64_t f = vfs.create("/f", InodeType::File);
    Inode& ino = vfs.inode(static_cast<InodeId>(f));
    ino.vmaCount = 1;
    vfs.unlink("/f");
    // No link, no descriptor, but still mapped: survives.
    EXPECT_TRUE(vfs.reapIfUnreferenced(static_cast<InodeId>(f)).empty());
    EXPECT_TRUE(vfs.exists(static_cast<InodeId>(f)));
    ino.vmaCount = 0;
    vfs.reapIfUnreferenced(static_cast<InodeId>(f));
    EXPECT_FALSE(vfs.exists(static_cast<InodeId>(f)));
    EXPECT_EQ(vfs.inodeCount(), 1u); // The root.
    EXPECT_EQ(vfs.stats().value("inodes_reaped"), 1u);
}

TEST(VfsNaming, ReapReturnsCachedPages)
{
    Vfs vfs;
    std::int64_t f = vfs.create("/f", InodeType::File);
    Inode& ino = vfs.inode(static_cast<InodeId>(f));
    ino.cache[0] = PageCacheEntry{0x1000, false, 0};
    ino.cache[3] = PageCacheEntry{0x5000, true, 0};
    vfs.unlink("/f");
    auto pages = vfs.reapIfUnreferenced(static_cast<InodeId>(f));
    EXPECT_EQ(pages.size(), 2u);
}

} // namespace
} // namespace osh::os
