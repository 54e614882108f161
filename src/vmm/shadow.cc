#include "vmm/shadow.hh"

#include <algorithm>

namespace osh::vmm
{

constexpr StatNames shadowStat{
    "asid_invalidations", "full_invalidations", "installs",
    "mpa_invalidations", "mpa_suspends", "reactivations", "va_invalidations",
};

ShadowManager::ShadowManager() : stats_("shadow", shadowStat.names) {}

void
ShadowManager::unsuspend(std::uint32_t slot)
{
    if (suspended_[slot]) {
        suspended_[slot] = false;
        --suspendedSlots_;
    }
}

void
ShadowManager::remove(std::uint32_t slot)
{
    unsuspend(slot);
    index_.remove(slot);
}

std::optional<ShadowEntry>
ShadowManager::lookup(const Context& ctx, GuestVA va_page) const
{
    std::uint32_t s = index_.find(ctx, va_page);
    if (s == none || suspended_[s])
        return std::nullopt;
    return index_[s].entry;
}

void
ShadowManager::install(const Context& ctx, GuestVA va_page,
                       const ShadowEntry& entry)
{
    osh_assert(pageOffset(va_page) == 0, "shadow entries are page keyed");
    std::uint32_t s = index_.find(ctx, va_page);
    if (s != none) {
        index_.update(s, entry);
        unsuspend(s);
    } else {
        index_.insert(ctx, va_page, entry);
        // A new slot starts active; freed slots are always active.
        suspended_.resize(index_.slotCount());
        peakSlots_ = std::max(peakSlots_, index_.size());
    }
    stats_.inc(shadowStat("installs"));
}

bool
ShadowManager::reactivate(const Context& ctx, GuestVA va_page,
                          const ShadowEntry& entry)
{
    std::uint32_t s = index_.find(ctx, va_page);
    if (s == none || !suspended_[s] || index_[s].entry.mpa != entry.mpa)
        return false;
    index_.update(s, entry);
    unsuspend(s);
    stats_.inc(shadowStat("reactivations"));
    return true;
}

void
ShadowManager::invalidateVa(Asid asid, GuestVA va_page)
{
    // The chain holds this page in every view of the address space.
    index_.forEach(Chain::Va, asid, va_page, [&](std::uint32_t s) {
        remove(s);
        stats_.inc(shadowStat("va_invalidations"));
    });
}

void
ShadowManager::invalidateAsid(Asid asid)
{
    index_.forEach(Chain::AddrSpace, asid, 0,
                   [&](std::uint32_t s) { remove(s); });
    stats_.inc(shadowStat("asid_invalidations"));
}

void
ShadowManager::invalidateMpa(Mpa frame_base)
{
    if (index_.forEach(Chain::Frame, 0, frame_base,
                       [&](std::uint32_t s) { remove(s); }) > 0)
        stats_.inc(shadowStat("mpa_invalidations"));
}

void
ShadowManager::suspendMpa(Mpa frame_base)
{
    auto suspend = [&](std::uint32_t s) {
        if (!suspended_[s]) {
            suspended_[s] = true;
            ++suspendedSlots_;
        }
    };
    if (index_.forEach(Chain::Frame, 0, frame_base, suspend) > 0)
        stats_.inc(shadowStat("mpa_suspends"));
}

void
ShadowManager::invalidateAll()
{
    index_.clear();
    suspended_.assign(suspended_.size(), false);
    suspendedSlots_ = 0;
    stats_.inc(shadowStat("full_invalidations"));
}

std::size_t
ShadowManager::entryCount(Asid asid) const
{
    std::size_t n = 0;
    index_.forEach(Chain::AddrSpace, asid, 0,
                   [&](std::uint32_t s) { n += !suspended_[s]; });
    return n;
}

} // namespace osh::vmm
