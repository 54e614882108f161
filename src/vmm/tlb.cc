#include "vmm/tlb.hh"

namespace osh::vmm
{

constexpr StatNames tlbStat{
    "evictions", "fifo_compactions", "full_flushes", "hits", "misses",
};

Tlb::Tlb(std::size_t capacity, const char* name)
    : capacity_(capacity), stats_(name, tlbStat.names)
{
    osh_assert(capacity > 0, "TLB needs capacity");
}

std::optional<ShadowEntry>
Tlb::lookup(const Context& ctx, GuestVA va_page)
{
    auto it = entries_.find(Key{ctx, va_page});
    if (it == entries_.end()) {
        stats_.inc(tlbStat("misses"));
        return std::nullopt;
    }
    stats_.inc(tlbStat("hits"));
    return it->second;
}

void
Tlb::insert(const Context& ctx, GuestVA va_page, const ShadowEntry& entry)
{
    Key key{ctx, va_page};
    if (entries_.find(key) == entries_.end()) {
        while (entries_.size() >= capacity_)
            evictOne();
        fifo_.push_back(key);
        ++queued_[key];
        // Invalidations leave stale occurrences behind; keep the queue
        // proportional to capacity regardless of the invalidation rate.
        if (fifo_.size() > 2 * capacity_)
            compactFifo();
    }
    entries_[key] = entry;
}

void
Tlb::evictOne()
{
    while (!fifo_.empty()) {
        Key victim = fifo_.front();
        fifo_.pop_front();
        auto qit = queued_.find(victim);
        osh_assert(qit != queued_.end() && qit->second > 0,
                   "TLB fifo key missing from occurrence index");
        if (--qit->second > 0)
            continue; // Stale occurrence; a newer one is queued behind.
        queued_.erase(qit);
        if (entries_.erase(victim) > 0) {
            stats_.inc(tlbStat("evictions"));
            return;
        }
        // Last occurrence of an invalidated key: nothing to evict.
    }
    osh_assert(entries_.empty(), "TLB entries live without fifo backing");
}

void
Tlb::compactFifo()
{
    // Rebuild keeping only the newest occurrence of each live key,
    // preserving relative FIFO order.
    std::deque<Key> fresh;
    std::unordered_map<Key, std::uint32_t, KeyHash> seen;
    for (auto it = fifo_.rbegin(); it != fifo_.rend(); ++it) {
        if (entries_.find(*it) == entries_.end())
            continue;
        if (seen.find(*it) != seen.end())
            continue;
        seen.emplace(*it, 1);
        fresh.push_front(*it);
    }
    fifo_ = std::move(fresh);
    queued_ = std::move(seen);
    stats_.inc(tlbStat("fifo_compactions"));
}

void
Tlb::invalidateVa(Asid asid, GuestVA va_page)
{
    va_page = pageBase(va_page);
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (it->first.ctx.asid == asid && it->first.vaPage == va_page)
            it = entries_.erase(it);
        else
            ++it;
    }
}

void
Tlb::invalidateAsid(Asid asid)
{
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (it->first.ctx.asid == asid)
            it = entries_.erase(it);
        else
            ++it;
    }
}

void
Tlb::invalidateMpa(Mpa frame_base)
{
    frame_base = pageBase(frame_base);
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (pageBase(it->second.mpa) == frame_base)
            it = entries_.erase(it);
        else
            ++it;
    }
}

void
Tlb::flushAll()
{
    entries_.clear();
    fifo_.clear();
    queued_.clear();
    stats_.inc(tlbStat("full_flushes"));
}

} // namespace osh::vmm
