#include "vmm/shadow.hh"

#include <algorithm>

namespace osh::vmm
{

constexpr StatNames shadowStat{
    "asid_invalidations", "full_invalidations", "installs",
    "mpa_invalidations", "mpa_suspends", "reactivations", "va_invalidations",
};

ShadowManager::ShadowManager() : stats_("shadow", shadowStat.names)
{
}

std::optional<ShadowEntry>
ShadowManager::lookup(const Context& ctx, GuestVA va_page) const
{
    auto sit = shadows_.find(ctx);
    if (sit == shadows_.end())
        return std::nullopt;
    auto eit = sit->second.find(va_page);
    if (eit == sit->second.end() || eit->second.suspended)
        return std::nullopt;
    return eit->second.entry;
}

void
ShadowManager::install(const Context& ctx, GuestVA va_page,
                       const ShadowEntry& entry)
{
    osh_assert(pageOffset(va_page) == 0, "shadow entries are page keyed");
    PageMap& pm = shadows_[ctx];
    auto old = pm.find(va_page);
    if (old != pm.end()) {
        dropFromReverse(old->second.entry.mpa, ctx, va_page);
    } else {
        ++liveSlots_;
        peakSlots_ = std::max(peakSlots_, liveSlots_);
    }
    pm[va_page] = Slot{entry, false};
    reverse_[entry.mpa].push_back({ctx, va_page});
    stats_.inc(shadowStat("installs"));
}

bool
ShadowManager::reactivate(const Context& ctx, GuestVA va_page,
                          const ShadowEntry& entry)
{
    auto sit = shadows_.find(ctx);
    if (sit == shadows_.end())
        return false;
    auto eit = sit->second.find(va_page);
    if (eit == sit->second.end() || !eit->second.suspended ||
        eit->second.entry.mpa != entry.mpa) {
        return false;
    }
    eit->second.entry = entry;
    eit->second.suspended = false;
    stats_.inc(shadowStat("reactivations"));
    return true;
}

void
ShadowManager::dropFromReverse(Mpa frame_base, const Context& ctx,
                               GuestVA va_page)
{
    auto rit = reverse_.find(frame_base);
    if (rit == reverse_.end())
        return;
    auto& vec = rit->second;
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [&](const Mapping& m) {
                                 return m.ctx == ctx &&
                                        m.vaPage == va_page;
                             }),
              vec.end());
    if (vec.empty())
        reverse_.erase(rit);
}

void
ShadowManager::invalidateVa(Asid asid, GuestVA va_page)
{
    va_page = pageBase(va_page);
    for (auto& [ctx, pm] : shadows_) {
        if (ctx.asid != asid)
            continue;
        auto eit = pm.find(va_page);
        if (eit != pm.end()) {
            dropFromReverse(eit->second.entry.mpa, ctx, va_page);
            pm.erase(eit);
            --liveSlots_;
            stats_.inc(shadowStat("va_invalidations"));
        }
    }
}

void
ShadowManager::invalidateAsid(Asid asid)
{
    // Erase the per-context tables outright (not just their entries):
    // a torn-down address space must not leave an empty table behind,
    // or a long-lived VMM hosting tens of thousands of processes scans
    // ever more dead contexts on every targeted invalidation.
    for (auto it = shadows_.begin(); it != shadows_.end();) {
        if (it->first.asid != asid) {
            ++it;
            continue;
        }
        for (auto& [va, slot] : it->second)
            dropFromReverse(slot.entry.mpa, it->first, va);
        liveSlots_ -= it->second.size();
        it = shadows_.erase(it);
    }
    stats_.inc(shadowStat("asid_invalidations"));
}

void
ShadowManager::invalidateMpa(Mpa frame_base)
{
    auto rit = reverse_.find(frame_base);
    if (rit == reverse_.end())
        return;
    // Move out the mapping list; we edit reverse_ via erase below.
    std::vector<Mapping> mappings = std::move(rit->second);
    reverse_.erase(rit);
    for (const Mapping& m : mappings) {
        auto sit = shadows_.find(m.ctx);
        if (sit == shadows_.end())
            continue;
        liveSlots_ -= sit->second.erase(m.vaPage);
    }
    stats_.inc(shadowStat("mpa_invalidations"));
}

void
ShadowManager::suspendMpa(Mpa frame_base)
{
    auto rit = reverse_.find(frame_base);
    if (rit == reverse_.end())
        return;
    for (const Mapping& m : rit->second) {
        auto sit = shadows_.find(m.ctx);
        if (sit == shadows_.end())
            continue;
        auto eit = sit->second.find(m.vaPage);
        if (eit != sit->second.end())
            eit->second.suspended = true;
    }
    stats_.inc(shadowStat("mpa_suspends"));
}

void
ShadowManager::invalidateAll()
{
    shadows_.clear();
    reverse_.clear();
    liveSlots_ = 0;
    stats_.inc(shadowStat("full_invalidations"));
}

std::size_t
ShadowManager::entryCount() const
{
    std::size_t n = 0;
    for (const auto& [ctx, pm] : shadows_) {
        for (const auto& [va, slot] : pm) {
            if (!slot.suspended)
                ++n;
        }
    }
    return n;
}

std::size_t
ShadowManager::suspendedCount() const
{
    std::size_t n = 0;
    for (const auto& [ctx, pm] : shadows_) {
        for (const auto& [va, slot] : pm) {
            if (slot.suspended)
                ++n;
        }
    }
    return n;
}

std::size_t
ShadowManager::entryCount(Asid asid) const
{
    std::size_t n = 0;
    for (const auto& [ctx, pm] : shadows_) {
        if (ctx.asid != asid)
            continue;
        for (const auto& [va, slot] : pm) {
            if (!slot.suspended)
                ++n;
        }
    }
    return n;
}

} // namespace osh::vmm
