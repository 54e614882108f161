#include "os/addrspace.hh"

#include "base/logging.hh"

namespace osh::os
{

AddressSpace::AddressSpace(Asid asid) : asid_(asid)
{
}

bool
AddressSpace::addVma(const Vma& vma)
{
    osh_assert(pageOffset(vma.start) == 0 && pageOffset(vma.end) == 0,
               "VMAs are page aligned");
    osh_assert(vma.start < vma.end, "empty VMA");
    // Overlap check against neighbours.
    auto next = vmas_.lower_bound(vma.start);
    if (next != vmas_.end() && next->second.start < vma.end)
        return false;
    if (next != vmas_.begin()) {
        auto prev = std::prev(next);
        if (prev->second.end > vma.start)
            return false;
    }
    vmas_[vma.start] = vma;
    return true;
}

GuestVA
AddressSpace::allocVma(Vma vma, std::uint64_t pages)
{
    osh_assert(pages > 0, "empty allocation");
    bool file = vma.type == VmaType::File;
    GuestVA& cursor = file ? fileMapCursor_ : mmapCursor_;
    // Each arena ends where the next region begins: refuse, with the
    // cursor untouched, anything that would cross into it.
    GuestVA arena_end = file ? shimCloakedBase : fileMapBase;
    if (cursor > arena_end || pages > (arena_end - cursor) / pageSize)
        return 0;
    // Bump allocation with a one-page guard gap; the arenas are vast
    // relative to simulated workloads, so no reuse is needed.
    GuestVA start = cursor;
    cursor += (pages + 1) * pageSize;
    vma.start = start;
    vma.end = start + pages * pageSize;
    bool ok = addVma(vma);
    osh_assert(ok, "arena allocation overlapped an existing VMA");
    return start;
}

Vma*
AddressSpace::findVma(GuestVA va)
{
    auto it = vmas_.upper_bound(va);
    if (it == vmas_.begin())
        return nullptr;
    --it;
    return it->second.contains(va) ? &it->second : nullptr;
}

const Vma*
AddressSpace::findVma(GuestVA va) const
{
    return const_cast<AddressSpace*>(this)->findVma(va);
}

std::optional<Vma>
AddressSpace::removeVma(GuestVA start, std::vector<Pte>& dropped,
                        std::vector<GuestVA>& dropped_vas)
{
    auto it = vmas_.find(start);
    if (it == vmas_.end())
        return std::nullopt;
    Vma vma = it->second;
    for (GuestVA va = vma.start; va < vma.end; va += pageSize) {
        auto pit = ptes_.find(va);
        if (pit != ptes_.end()) {
            dropped.push_back(pit->second);
            dropped_vas.push_back(va);
            ptes_.erase(pit);
        }
    }
    vmas_.erase(it);
    return vma;
}

Pte&
AddressSpace::pte(GuestVA va_page)
{
    osh_assert(pageOffset(va_page) == 0, "PTEs are page keyed");
    return ptes_[va_page];
}

const Pte*
AddressSpace::findPte(GuestVA va_page) const
{
    auto it = ptes_.find(pageBase(va_page));
    return it == ptes_.end() ? nullptr : &it->second;
}

Pte*
AddressSpace::findPte(GuestVA va_page)
{
    auto it = ptes_.find(pageBase(va_page));
    return it == ptes_.end() ? nullptr : &it->second;
}

std::uint64_t
AddressSpace::residentPages() const
{
    std::uint64_t n = 0;
    for (const auto& [va, pte] : ptes_)
        n += pte.present ? 1 : 0;
    return n;
}

} // namespace osh::os
