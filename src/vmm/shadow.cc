#include "vmm/shadow.hh"

#include <algorithm>

namespace osh::vmm
{

constexpr StatNames shadowStat{
    "asid_invalidations", "full_invalidations", "installs",
    "mpa_invalidations", "mpa_suspends", "reactivations", "va_invalidations",
};

namespace
{

/** Head-table size of an empty manager. */
constexpr std::size_t minCells = 8;

} // namespace

ShadowManager::ShadowManager() : stats_("shadow", shadowStat.names)
{
    for (HeadTable& t : heads_)
        t.reset(minCells);
}

std::uint64_t
ShadowManager::keyOf(Chain c, std::uint32_t slot) const
{
    const Slot& s = slots_[slot];
    switch (c) {
      case Va:
        return s.vaPage;
      case Frame:
        return s.entry.mpa;
      default:
        return s.ctx.asid;
    }
}

std::uint64_t
ShadowManager::hashOf(Chain c, Asid asid, std::uint64_t key)
{
    std::uint64_t h = c == AddrSpace ? key : key >> pageShift;
    if (c == Va)
        h ^= std::uint64_t{asid} << 40;
    return h * 0x9e3779b97f4a7c15ull;
}

std::uint32_t
ShadowManager::probe(Chain c, Asid asid, std::uint64_t key) const
{
    return heads_[c].probe(hashOf(c, asid, key), [&](std::uint32_t s) {
        return keyOf(c, s) == key && (c != Va || slots_[s].ctx.asid == asid);
    });
}

std::uint32_t
ShadowManager::head(Chain c, Asid asid, std::uint64_t key) const
{
    return heads_[c][probe(c, asid, key)];
}

void
ShadowManager::pushChain(Chain c, std::uint32_t slot)
{
    HeadTable& t = heads_[c];
    std::uint32_t cell = probe(c, slots_[slot].ctx.asid, keyOf(c, slot));
    std::uint32_t old = t[cell];
    slots_[slot].links[c] = Link{none, old};
    if (old != none)
        slots_[old].links[c].prev = slot;
    t[cell] = slot;
}

void
ShadowManager::unlinkChain(Chain c, std::uint32_t slot)
{
    Link l = slots_[slot].links[c];
    if (l.next != none)
        slots_[l.next].links[c].prev = l.prev;
    if (l.prev != none) {
        slots_[l.prev].links[c].next = l.next;
        return;
    }
    // The chain's head: its cell moves to the next entry, or empties.
    HeadTable& t = heads_[c];
    std::uint32_t cell = probe(c, slots_[slot].ctx.asid, keyOf(c, slot));
    if (l.next != none) {
        t[cell] = l.next;
        return;
    }
    t.erase(cell, [&](std::uint32_t s) {
        return hashOf(c, slots_[s].ctx.asid, keyOf(c, s));
    });
}

std::uint32_t
ShadowManager::find(const Context& ctx, GuestVA va_page) const
{
    std::uint32_t s = head(Va, ctx.asid, va_page);
    while (s != none && !(slots_[s].ctx == ctx))
        s = slots_[s].links[Va].next;
    return s;
}

std::uint32_t
ShadowManager::allocSlot()
{
    if (freeHead_ != none) {
        std::uint32_t s = freeHead_;
        freeHead_ = slots_[s].links[Va].next;
        return s;
    }
    osh_assert(slots_.size() < none / 8, "shadow slot array full");
    auto s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    // A load factor of at most 1/4 keeps probe sequences short.
    std::size_t cells = heads_[0].cellCount();
    if (4 * slots_.size() > cells) {
        for (int c = 0; c < chainCount; ++c) {
            auto chain = static_cast<Chain>(c);
            heads_[c].rehash(2 * cells, [&](std::uint32_t h) {
                return hashOf(chain, slots_[h].ctx.asid, keyOf(chain, h));
            });
        }
    }
    return s;
}

void
ShadowManager::remove(std::uint32_t slot)
{
    for (int c = 0; c < chainCount; ++c)
        unlinkChain(static_cast<Chain>(c), slot);
    Slot& s = slots_[slot];
    if (s.suspended)
        --suspendedSlots_;
    s.links[Va].next = freeHead_;
    freeHead_ = slot;
    --liveSlots_;
}

std::optional<ShadowEntry>
ShadowManager::lookup(const Context& ctx, GuestVA va_page) const
{
    std::uint32_t s = find(ctx, va_page);
    if (s == none || slots_[s].suspended)
        return std::nullopt;
    return slots_[s].entry;
}

void
ShadowManager::install(const Context& ctx, GuestVA va_page,
                       const ShadowEntry& entry)
{
    osh_assert(pageOffset(va_page) == 0, "shadow entries are page keyed");
    std::uint32_t s = find(ctx, va_page);
    if (s != none) {
        Slot& slot = slots_[s];
        bool same_frame = slot.entry.mpa == entry.mpa;
        if (!same_frame)
            unlinkChain(Frame, s);
        slot.entry = entry;
        if (!same_frame)
            pushChain(Frame, s);
        if (slot.suspended) {
            slot.suspended = false;
            --suspendedSlots_;
        }
    } else {
        s = allocSlot();
        Slot& slot = slots_[s];
        slot.ctx = ctx;
        slot.vaPage = va_page;
        slot.entry = entry;
        slot.suspended = false;
        for (int c = 0; c < chainCount; ++c)
            pushChain(static_cast<Chain>(c), s);
        ++liveSlots_;
        peakSlots_ = std::max(peakSlots_, liveSlots_);
    }
    stats_.inc(shadowStat("installs"));
}

bool
ShadowManager::reactivate(const Context& ctx, GuestVA va_page,
                          const ShadowEntry& entry)
{
    std::uint32_t s = find(ctx, va_page);
    if (s == none || !slots_[s].suspended ||
        slots_[s].entry.mpa != entry.mpa) {
        return false;
    }
    slots_[s].entry = entry;
    slots_[s].suspended = false;
    --suspendedSlots_;
    stats_.inc(shadowStat("reactivations"));
    return true;
}

void
ShadowManager::invalidateVa(Asid asid, GuestVA va_page)
{
    va_page = pageBase(va_page);
    // The chain holds this page in every view of the address space.
    for (std::uint32_t s = head(Va, asid, va_page); s != none;) {
        std::uint32_t next = slots_[s].links[Va].next;
        remove(s);
        stats_.inc(shadowStat("va_invalidations"));
        s = next;
    }
}

void
ShadowManager::invalidateAsid(Asid asid)
{
    for (std::uint32_t s = head(AddrSpace, asid, asid); s != none;) {
        std::uint32_t next = slots_[s].links[AddrSpace].next;
        remove(s);
        s = next;
    }
    stats_.inc(shadowStat("asid_invalidations"));
}

void
ShadowManager::invalidateMpa(Mpa frame_base)
{
    std::uint32_t s = head(Frame, 0, frame_base);
    if (s == none)
        return;
    while (s != none) {
        std::uint32_t next = slots_[s].links[Frame].next;
        remove(s);
        s = next;
    }
    stats_.inc(shadowStat("mpa_invalidations"));
}

void
ShadowManager::suspendMpa(Mpa frame_base)
{
    std::uint32_t s = head(Frame, 0, frame_base);
    if (s == none)
        return;
    for (; s != none; s = slots_[s].links[Frame].next) {
        if (!slots_[s].suspended) {
            slots_[s].suspended = true;
            ++suspendedSlots_;
        }
    }
    stats_.inc(shadowStat("mpa_suspends"));
}

void
ShadowManager::invalidateAll()
{
    for (HeadTable& t : heads_)
        t.reset(t.cellCount());
    freeHead_ = none;
    for (std::uint32_t i = static_cast<std::uint32_t>(slots_.size());
         i-- > 0;) {
        slots_[i].links[Va].next = freeHead_;
        freeHead_ = i;
    }
    liveSlots_ = 0;
    suspendedSlots_ = 0;
    stats_.inc(shadowStat("full_invalidations"));
}

std::size_t
ShadowManager::entryCount() const
{
    return liveSlots_ - suspendedSlots_;
}

std::size_t
ShadowManager::suspendedCount() const
{
    return suspendedSlots_;
}

std::size_t
ShadowManager::entryCount(Asid asid) const
{
    std::size_t n = 0;
    for (std::uint32_t s = head(AddrSpace, asid, asid); s != none;
         s = slots_[s].links[AddrSpace].next) {
        if (!slots_[s].suspended)
            ++n;
    }
    return n;
}

} // namespace osh::vmm
