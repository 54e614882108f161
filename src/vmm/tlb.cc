#include "vmm/tlb.hh"

namespace osh::vmm
{

constexpr StatNames tlbStat{
    "evictions", "full_flushes", "hits", "misses",
};

Tlb::Tlb(std::size_t capacity, const char* name)
    : capacity_(capacity), stats_(name, tlbStat.names)
{
    // The head tables index cells with 32-bit masks.
    osh_assert(capacity > 0 && capacity < none / 8,
               "TLB capacity out of range");
    slots_.resize(capacity);
    // A load factor of at most 1/4 keeps probe sequences short.
    std::size_t cells = 4;
    while (cells < 4 * capacity)
        cells *= 2;
    vaHeads_.reset(cells);
    frameHeads_.reset(cells);
    reset();
}

std::uint64_t
Tlb::keyOf(Chain c, std::uint32_t slot) const
{
    const Slot& s = slots_[slot];
    return c == Chain::Va ? s.vaPage : pageBase(s.entry.mpa);
}

bool
Tlb::matches(Chain c, std::uint32_t slot, Asid asid,
             std::uint64_t key) const
{
    return keyOf(c, slot) == key &&
           (c == Chain::Frame || slots_[slot].ctx.asid == asid);
}

Tlb::Link&
Tlb::link(Chain c, std::uint32_t slot)
{
    return c == Chain::Va ? slots_[slot].va : slots_[slot].frame;
}

std::uint64_t
Tlb::hashOf(Chain c, Asid asid, std::uint64_t key)
{
    std::uint64_t h = key >> pageShift;
    if (c == Chain::Va)
        h ^= std::uint64_t{asid} << 40;
    return h * 0x9e3779b97f4a7c15ull;
}

std::uint32_t
Tlb::probe(Chain c, Asid asid, std::uint64_t key) const
{
    return table(c).probe(hashOf(c, asid, key), [&](std::uint32_t s) {
        return matches(c, s, asid, key);
    });
}

void
Tlb::pushChain(Chain c, std::uint32_t slot)
{
    HeadTable& t = table(c);
    std::uint32_t cell = probe(c, slots_[slot].ctx.asid, keyOf(c, slot));
    std::uint32_t old = t[cell];
    link(c, slot) = Link{none, old};
    if (old != none)
        link(c, old).prev = slot;
    t[cell] = slot;
}

void
Tlb::unlinkChain(Chain c, std::uint32_t slot)
{
    Link l = link(c, slot);
    if (l.next != none)
        link(c, l.next).prev = l.prev;
    if (l.prev != none) {
        link(c, l.prev).next = l.next;
        return;
    }
    // The chain's head: its cell moves to the next entry, or empties.
    HeadTable& t = table(c);
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
Tlb::find(const Context& ctx, GuestVA va_page) const
{
    std::uint32_t s = vaHeads_[probe(Chain::Va, ctx.asid, va_page)];
    while (s != none && !(slots_[s].ctx == ctx))
        s = slots_[s].va.next;
    return s;
}

void
Tlb::remove(std::uint32_t slot)
{
    unlinkChain(Chain::Va, slot);
    unlinkChain(Chain::Frame, slot);
    Link& f = slots_[slot].fifo;
    (f.prev != none ? slots_[f.prev].fifo.next : fifoHead_) = f.next;
    (f.next != none ? slots_[f.next].fifo.prev : fifoTail_) = f.prev;
    f = Link{none, freeHead_};
    freeHead_ = slot;
    --size_;
}

std::optional<ShadowEntry>
Tlb::lookup(const Context& ctx, GuestVA va_page)
{
    std::uint32_t s = find(ctx, va_page);
    if (s == none) {
        stats_.inc(tlbStat("misses"));
        return std::nullopt;
    }
    stats_.inc(tlbStat("hits"));
    return slots_[s].entry;
}

void
Tlb::insert(const Context& ctx, GuestVA va_page, const ShadowEntry& entry)
{
    std::uint32_t s = find(ctx, va_page);
    if (s != none) {
        // A refill keeps its FIFO position; only its frame may move.
        bool same_frame =
            pageBase(slots_[s].entry.mpa) == pageBase(entry.mpa);
        if (!same_frame)
            unlinkChain(Chain::Frame, s);
        slots_[s].entry = entry;
        if (!same_frame)
            pushChain(Chain::Frame, s);
        return;
    }
    if (size_ == capacity_) {
        remove(fifoHead_);
        stats_.inc(tlbStat("evictions"));
    }
    s = freeHead_;
    Slot& slot = slots_[s];
    freeHead_ = slot.fifo.next;
    slot.ctx = ctx;
    slot.vaPage = va_page;
    slot.entry = entry;
    slot.fifo = Link{fifoTail_, none};
    (fifoTail_ != none ? slots_[fifoTail_].fifo.next : fifoHead_) = s;
    fifoTail_ = s;
    pushChain(Chain::Va, s);
    pushChain(Chain::Frame, s);
    ++size_;
}

void
Tlb::invalidateVa(Asid asid, GuestVA va_page)
{
    va_page = pageBase(va_page);
    std::uint32_t s = vaHeads_[probe(Chain::Va, asid, va_page)];
    while (s != none) {
        std::uint32_t next = slots_[s].va.next;
        remove(s);
        s = next;
    }
}

void
Tlb::invalidateAsid(Asid asid)
{
    for (std::uint32_t s = fifoHead_; s != none;) {
        std::uint32_t next = slots_[s].fifo.next;
        if (slots_[s].ctx.asid == asid)
            remove(s);
        s = next;
    }
}

void
Tlb::invalidateMpa(Mpa frame_base)
{
    frame_base = pageBase(frame_base);
    std::uint32_t s = frameHeads_[probe(Chain::Frame, 0, frame_base)];
    while (s != none) {
        std::uint32_t next = slots_[s].frame.next;
        remove(s);
        s = next;
    }
}

void
Tlb::reset()
{
    vaHeads_.reset(vaHeads_.cellCount());
    frameHeads_.reset(frameHeads_.cellCount());
    for (std::uint32_t i = 0; i < slots_.size(); ++i)
        slots_[i].fifo = Link{none, i + 1 < slots_.size() ? i + 1 : none};
    freeHead_ = 0;
    fifoHead_ = fifoTail_ = none;
    size_ = 0;
}

void
Tlb::flushAll()
{
    reset();
    stats_.inc(tlbStat("full_flushes"));
}

} // namespace osh::vmm
