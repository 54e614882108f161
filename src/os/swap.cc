#include "os/swap.hh"

#include "base/logging.hh"

#include <cstring>

namespace osh::os
{

constexpr StatNames swapStat{"slots_scrubbed"};

SwapDevice::SwapDevice(sim::CostModel& cost, std::uint64_t max_slots)
    : cost_(cost), maxSlots_(max_slots), stats_("swap", swapStat.names)
{
}

std::optional<SwapSlot>
SwapDevice::allocate()
{
    if (!freeList_.empty()) {
        SwapSlot s = freeList_.back();
        freeList_.pop_back();
        used_[s] = true;
        ++inUse_;
        return s;
    }
    if (slots_.size() >= maxSlots_)
        return std::nullopt;
    slots_.push_back(std::make_unique<Page>());
    used_.push_back(true);
    ++inUse_;
    return slots_.size() - 1;
}

void
SwapDevice::release(SwapSlot slot)
{
    osh_assert(slot < slots_.size() && used_[slot],
               "release of unused swap slot %llu",
               static_cast<unsigned long long>(slot));
    slots_[slot]->fill(0);
    used_[slot] = false;
    freeList_.push_back(slot);
    --inUse_;
    stats_.inc(swapStat("slots_scrubbed"));
}

void
SwapDevice::writeSlot(SwapSlot slot, std::span<const std::uint8_t> page)
{
    osh_assert(slot < slots_.size() && used_[slot], "write to bad slot");
    osh_assert(page.size() == pageSize, "swap I/O is page granular");
    OSH_TRACE_SCOPE(tracer_, trace::Category::Swap, "slot_write",
                    systemDomain, 0, slot);
    std::memcpy(slots_[slot]->data(), page.data(), pageSize);
    cost_.charge(cost_.params().diskAccess +
                 cost_.params().diskPerByte * pageSize,
                 "swap_out");
}

void
SwapDevice::writeSlotPrepaid(SwapSlot slot,
                             std::span<const std::uint8_t> page)
{
    osh_assert(slot < slots_.size() && used_[slot], "write to bad slot");
    osh_assert(page.size() == pageSize, "swap I/O is page granular");
    OSH_TRACE_SCOPE(tracer_, trace::Category::Swap, "slot_write",
                    systemDomain, 0, slot);
    std::memcpy(slots_[slot]->data(), page.data(), pageSize);
    cost_.charge(0, "swap_out");
}

void
SwapDevice::readSlot(SwapSlot slot, std::span<std::uint8_t> page)
{
    osh_assert(slot < slots_.size() && used_[slot], "read from bad slot");
    osh_assert(page.size() == pageSize, "swap I/O is page granular");
    OSH_TRACE_SCOPE(tracer_, trace::Category::Swap, "slot_read",
                    systemDomain, 0, slot);
    std::memcpy(page.data(), slots_[slot]->data(), pageSize);
    cost_.charge(cost_.params().diskAccess +
                 cost_.params().diskPerByte * pageSize,
                 "swap_in");
}

std::array<std::uint8_t, pageSize>&
SwapDevice::rawSlot(SwapSlot slot)
{
    osh_assert(slot < slots_.size() && used_[slot], "rawSlot of bad slot");
    return *slots_[slot];
}

std::span<const std::uint8_t>
SwapDevice::slotBytes(SwapSlot slot) const
{
    osh_assert(slot < slots_.size(), "slotBytes of unbacked slot");
    return *slots_[slot];
}

} // namespace osh::os
