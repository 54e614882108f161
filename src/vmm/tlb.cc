#include "vmm/tlb.hh"

namespace osh::vmm
{

constexpr StatNames tlbStat{
    "evictions", "full_flushes", "hits", "misses",
};

Tlb::Tlb(std::size_t capacity, const char* name)
    : capacity_(capacity), index_(capacity), fifo_(capacity),
      stats_(name, tlbStat.names)
{
    osh_assert(capacity > 0, "TLB capacity out of range");
}

void
Tlb::remove(std::uint32_t slot)
{
    const TranslationIndex::Link f = fifo_[slot];
    (f.prev != none ? fifo_[f.prev].next : fifoHead_) = f.next;
    (f.next != none ? fifo_[f.next].prev : fifoTail_) = f.prev;
    index_.remove(slot);
}

std::optional<ShadowEntry>
Tlb::lookup(const Context& ctx, GuestVA va_page)
{
    std::uint32_t s = index_.find(ctx, va_page);
    if (s == none) {
        stats_.inc(tlbStat("misses"));
        return std::nullopt;
    }
    stats_.inc(tlbStat("hits"));
    return index_[s].entry;
}

void
Tlb::insert(const Context& ctx, GuestVA va_page, const ShadowEntry& entry)
{
    std::uint32_t s = index_.find(ctx, va_page);
    if (s != none) {
        // A refill keeps its FIFO position.
        index_.update(s, entry);
        return;
    }
    if (index_.size() == capacity_) {
        remove(fifoHead_);
        stats_.inc(tlbStat("evictions"));
    }
    s = index_.insert(ctx, va_page, entry);
    fifo_[s] = {fifoTail_, none};
    (fifoTail_ != none ? fifo_[fifoTail_].next : fifoHead_) = s;
    fifoTail_ = s;
}

void
Tlb::invalidateVa(Asid asid, GuestVA va_page)
{
    index_.forEach(Chain::Va, asid, va_page,
                   [&](std::uint32_t s) { remove(s); });
}

void
Tlb::invalidateAsid(Asid asid)
{
    index_.forEach(Chain::AddrSpace, asid, 0,
                   [&](std::uint32_t s) { remove(s); });
}

void
Tlb::invalidateMpa(Mpa frame_base)
{
    index_.forEach(Chain::Frame, 0, frame_base,
                   [&](std::uint32_t s) { remove(s); });
}

void
Tlb::flushAll()
{
    index_.clear();
    fifoHead_ = fifoTail_ = none;
    stats_.inc(tlbStat("full_flushes"));
}

} // namespace osh::vmm
