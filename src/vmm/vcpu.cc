#include "vmm/vcpu.hh"

#include "base/logging.hh"

#include <algorithm>

namespace osh::vmm
{

Vcpu::Vcpu(Vmm& vmm, const Context& ctx) : vmm_(vmm), ctx_(ctx)
{
}

void
Vcpu::setPreemptHook(std::function<void()> hook, std::uint64_t ops_per_tick)
{
    preemptHook_ = std::move(hook);
    opsPerTick_ = ops_per_tick;
    opsSinceTick_ = 0;
}

void
Vcpu::chargeOp(std::uint64_t cost_units)
{
    if (!preemptHook_ || opsPerTick_ == 0 || ctx_.kernelMode || inPreempt_)
        return;
    opsSinceTick_ += cost_units;
    if (opsSinceTick_ >= opsPerTick_) {
        opsSinceTick_ = 0;
        inPreempt_ = true;
        preemptHook_();
        inPreempt_ = false;
    }
}

ShadowEntry
Vcpu::translatePage(GuestVA va_page, AccessType access)
{
    va_page = pageBase(va_page);
    auto& cost = vmm_.machine().cost();

    if (auto hit = vmm_.tlb(cpu_).lookup(ctx_, va_page)) {
        bool ok = (access == AccessType::Write) ? hit->canWrite
                                                : hit->canRead;
        if (ok)
            return *hit;
        // Permission miss (e.g. write to a clean cloaked page): fall
        // through to full resolution.
    }

    // TLB miss: the hardware walker consults the shadow page table.
    if (auto sh = vmm_.shadows().lookup(ctx_, va_page)) {
        bool ok = (access == AccessType::Write) ? sh->canWrite
                                                : sh->canRead;
        if (ok) {
            cost.charge(cost.params().tlbMissWalk, "tlb_fill");
            vmm_.tlb(cpu_).insert(ctx_, va_page, *sh);
            return *sh;
        }
    }

    // Shadow miss or permission fault: VMM takes over.
    return vmm_.resolve(*this, ctx_, va_page, access);
}

template <typename T, T (sim::MachineMemory::*ReadFn)(Mpa) const>
T
Vcpu::loadScalar(GuestVA va)
{
    auto& cost = vmm_.machine().cost();
    cost.charge(cost.params().memAccess);
    chargeOp();
    if (pageOffset(va) + sizeof(T) <= pageSize) {
        ShadowEntry e = translatePage(va, AccessType::Read);
        return (vmm_.machine().memory().*ReadFn)(e.mpa + pageOffset(va));
    }
    // Page-crossing access: assemble byte by byte.
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        ShadowEntry e = translatePage(va + i, AccessType::Read);
        v |= static_cast<T>(vmm_.machine().memory().read8(
                 e.mpa + pageOffset(va + i)))
             << (8 * i);
    }
    return v;
}

template <typename T, void (sim::MachineMemory::*WriteFn)(Mpa, T)>
void
Vcpu::storeScalar(GuestVA va, T v)
{
    auto& cost = vmm_.machine().cost();
    cost.charge(cost.params().memAccess);
    chargeOp();
    if (pageOffset(va) + sizeof(T) <= pageSize) {
        ShadowEntry e = translatePage(va, AccessType::Write);
        (vmm_.machine().memory().*WriteFn)(e.mpa + pageOffset(va), v);
        return;
    }
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        ShadowEntry e = translatePage(va + i, AccessType::Write);
        vmm_.machine().memory().write8(
            e.mpa + pageOffset(va + i),
            static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

std::uint8_t
Vcpu::load8(GuestVA va)
{
    return loadScalar<std::uint8_t, &sim::MachineMemory::read8>(va);
}

std::uint32_t
Vcpu::load32(GuestVA va)
{
    return loadScalar<std::uint32_t, &sim::MachineMemory::read32>(va);
}

std::uint64_t
Vcpu::load64(GuestVA va)
{
    return loadScalar<std::uint64_t, &sim::MachineMemory::read64>(va);
}

void
Vcpu::store8(GuestVA va, std::uint8_t v)
{
    storeScalar<std::uint8_t, &sim::MachineMemory::write8>(va, v);
}

void
Vcpu::store32(GuestVA va, std::uint32_t v)
{
    storeScalar<std::uint32_t, &sim::MachineMemory::write32>(va, v);
}

void
Vcpu::store64(GuestVA va, std::uint64_t v)
{
    storeScalar<std::uint64_t, &sim::MachineMemory::write64>(va, v);
}

void
Vcpu::readBytes(GuestVA va, std::span<std::uint8_t> out)
{
    auto& cost = vmm_.machine().cost();
    std::size_t done = 0;
    while (done < out.size()) {
        GuestVA cur = va + done;
        std::size_t in_page =
            std::min<std::size_t>(out.size() - done,
                                  pageSize - pageOffset(cur));
        ShadowEntry e = translatePage(cur, AccessType::Read);
        vmm_.machine().memory().read(e.mpa + pageOffset(cur),
                                     out.subspan(done, in_page));
        // Bulk transfers cost one access per cache line.
        std::uint64_t units = (in_page + 63) / 64;
        cost.charge(cost.params().memAccess * units);
        chargeOp(units);
        done += in_page;
    }
}

void
Vcpu::writeBytes(GuestVA va, std::span<const std::uint8_t> data)
{
    auto& cost = vmm_.machine().cost();
    std::size_t done = 0;
    while (done < data.size()) {
        GuestVA cur = va + done;
        std::size_t in_page =
            std::min<std::size_t>(data.size() - done,
                                  pageSize - pageOffset(cur));
        ShadowEntry e = translatePage(cur, AccessType::Write);
        vmm_.machine().memory().write(e.mpa + pageOffset(cur),
                                      data.subspan(done, in_page));
        std::uint64_t units = (in_page + 63) / 64;
        cost.charge(cost.params().memAccess * units);
        chargeOp(units);
        done += in_page;
    }
}

std::string
Vcpu::readCString(GuestVA va, std::size_t max_len)
{
    std::string out;
    for (std::size_t i = 0; i < max_len; ++i) {
        std::uint8_t c = load8(va + i);
        if (c == 0)
            return out;
        out.push_back(static_cast<char>(c));
    }
    return out;
}

std::int64_t
Vcpu::hypercall(Hypercall num, std::span<const std::uint64_t> args)
{
    return vmm_.hypercall(*this, num, args);
}

} // namespace osh::vmm
