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
    for (HeadTable* t : {&vaHeads_, &frameHeads_})
        t->mask = static_cast<std::uint32_t>(cells - 1);
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

std::uint32_t
Tlb::home(Chain c, Asid asid, std::uint64_t key) const
{
    std::uint64_t h = key >> pageShift;
    if (c == Chain::Va)
        h ^= std::uint64_t{asid} << 40;
    h *= 0x9e3779b97f4a7c15ull;
    return static_cast<std::uint32_t>(h >> 32) & table(c).mask;
}

std::uint32_t
Tlb::probe(Chain c, Asid asid, std::uint64_t key) const
{
    const HeadTable& t = table(c);
    std::uint32_t i = home(c, asid, key);
    while (t.cells[i] != none && !matches(c, t.cells[i], asid, key))
        i = (i + 1) & t.mask;
    return i;
}

void
Tlb::pushChain(Chain c, std::uint32_t slot)
{
    HeadTable& t = table(c);
    std::uint32_t cell = probe(c, slots_[slot].ctx.asid, keyOf(c, slot));
    std::uint32_t old = t.cells[cell];
    link(c, slot) = Link{none, old};
    if (old != none)
        link(c, old).prev = slot;
    t.cells[cell] = slot;
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
        t.cells[cell] = l.next;
        return;
    }
    // Backward-shift deletion: pull later cells of the probe run into
    // the hole unless that would move one before its home cell.
    std::uint32_t hole = cell;
    for (std::uint32_t j = (hole + 1) & t.mask; t.cells[j] != none;
         j = (j + 1) & t.mask) {
        std::uint32_t s = t.cells[j];
        std::uint32_t h = home(c, slots_[s].ctx.asid, keyOf(c, s));
        if (((j - h) & t.mask) >= ((j - hole) & t.mask)) {
            t.cells[hole] = s;
            hole = j;
        }
    }
    t.cells[hole] = none;
}

std::uint32_t
Tlb::find(const Context& ctx, GuestVA va_page) const
{
    std::uint32_t s = vaHeads_.cells[probe(Chain::Va, ctx.asid, va_page)];
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
    std::uint32_t s = vaHeads_.cells[probe(Chain::Va, asid, va_page)];
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
    std::uint32_t s = frameHeads_.cells[probe(Chain::Frame, 0, frame_base)];
    while (s != none) {
        std::uint32_t next = slots_[s].frame.next;
        remove(s);
        s = next;
    }
}

void
Tlb::reset()
{
    for (HeadTable* t : {&vaHeads_, &frameHeads_})
        t->cells.assign(std::size_t{t->mask} + 1, none);
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
