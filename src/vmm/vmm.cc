#include "vmm/vmm.hh"

#include "base/logging.hh"
#include "base/rng.hh"
#include "vmm/vcpu.hh"

#include <string>

namespace osh::vmm
{

constexpr StatNames vmmStat{
    "guest_faults", "hypercalls", "kernel_preseals", "retention_hits",
    "switch_flushes", "switches_retained", "tsc_virtual_reads",
    "world_switches",
};

const char*
accessName(AccessType t)
{
    switch (t) {
      case AccessType::Read: return "read";
      case AccessType::Write: return "write";
      case AccessType::Fetch: return "fetch";
    }
    return "?";
}

namespace
{

/** Baseline backend: no cloaking, straight pmap translation. */
class PassthroughBackend : public CloakBackend
{
  public:
    explicit PassthroughBackend(Pmap& pmap) : pmap_(pmap) {}

    ResolvedPage
    resolvePage(const Context& ctx, GuestVA va_page, const GuestPte& pte,
                AccessType access) override
    {
        (void)ctx;
        (void)va_page;
        (void)access;
        ResolvedPage r;
        r.mpa = pmap_.translate(pageBase(pte.gpa));
        r.canRead = true;
        r.canWrite = pte.writable;
        return r;
    }

    std::int64_t
    hypercall(Vcpu&, Hypercall num,
              std::span<const std::uint64_t>) override
    {
        osh_warn("hypercall %llu with no cloak backend installed",
                 static_cast<unsigned long long>(num));
        return -1;
    }

  private:
    Pmap& pmap_;
};

} // namespace

Vmm::Vmm(sim::Machine& machine, std::uint64_t guest_frames)
    : machine_(machine), pmap_(machine, guest_frames),
      passthrough_(std::make_unique<PassthroughBackend>(pmap_)),
      cloak_(passthrough_.get()), stats_("vmm", vmmStat.names)
{
    setVcpuCount(1);
}

void
Vmm::setVcpuCount(std::size_t count)
{
    osh_assert(count > 0, "Vmm needs at least one vCPU");
    if (count == tlbs_.size())
        return;
    tlbs_.clear();
    for (std::size_t i = 0; i < count; ++i) {
        std::string n = std::to_string(i);
        std::string tlb_name = i == 0 ? "tlb" : "tlb" + n;
        tlbs_.push_back(std::make_unique<Tlb>(256, tlb_name.c_str()));
        if (i == switchSlots_.size())
            switchSlots_.push_back(stats_.add("switches_cpu" + n));
    }
}

void
Vmm::setCloakBackend(CloakBackend* backend)
{
    cloak_ = backend ? backend : passthrough_.get();
    // Views may now resolve differently; drop all cached translations.
    shadows_.invalidateAll();
    for (auto& t : tlbs_)
        t->flushAll();
}

void
Vmm::setGuestOs(GuestOsHooks* os)
{
    os_ = os;
}

ShadowEntry
Vmm::resolve(Vcpu& vcpu, const Context& ctx, GuestVA va_page,
             AccessType access)
{
    osh_assert(os_ != nullptr, "no guest OS attached to the VMM");
    va_page = pageBase(va_page);

    OSH_TRACE_SCOPE(&machine_.tracer(), trace::Category::Vmm,
                    "hidden_fault", ctx.view,
                    static_cast<Pid>(ctx.asid), va_page,
                    static_cast<std::uint64_t>(access));

    const auto& costs = machine_.cost().params();
    machine_.cost().charge(costs.vmExit, "vm_exit");

    constexpr int max_retries = 16;
    for (int attempt = 0; attempt < max_retries; ++attempt) {
        GuestPte pte = os_->translateGuest(ctx.asid, va_page);
        machine_.cost().charge(costs.tlbMissWalk);

        bool needs_guest_fault = !pte.present;
        if (pte.present && access == AccessType::Write && !pte.writable) {
            // Could be COW or a real protection error; the guest kernel
            // decides.
            needs_guest_fault = true;
        }
        if (pte.present && !ctx.kernelMode && !pte.user)
            needs_guest_fault = true;

        if (needs_guest_fault) {
            stats_.inc(vmmStat("guest_faults"));
            OSH_TRACE_INSTANT(&machine_.tracer(), trace::Category::Vmm,
                              "guest_fault", ctx.view,
                              static_cast<Pid>(ctx.asid), va_page);
            machine_.cost().charge(costs.interruptDeliver);
            os_->handleGuestPageFault(vcpu, va_page, access);
            continue;
        }

        // Compose with the cloak backend. This may encrypt/decrypt the
        // underlying frame and throws ProcessKilled on a violation.
        ResolvedPage page = cloak_->resolvePage(ctx, va_page, pte, access);
        bool ok = (access == AccessType::Write) ? page.canWrite
                                                : page.canRead;
        if (!ok) {
            osh_panic("cloak backend returned mapping without %s "
                      "permission for va 0x%llx",
                      accessName(access),
                      static_cast<unsigned long long>(va_page));
        }

        if (access == AccessType::Write)
            os_->notifyWrite(ctx.asid, va_page);

        ShadowEntry entry;
        entry.mpa = pageBase(page.mpa);
        entry.canRead = page.canRead;
        entry.canWrite = page.canWrite;
        // Retention fast path: a suspended entry that still maps the
        // same frame is revalidated in place for a fraction of a full
        // shadow-page-table fill.
        if (shadows_.reactivate(ctx, va_page, entry)) {
            stats_.inc(vmmStat("retention_hits"));
            machine_.cost().charge(costs.shadowRevalidate,
                                   "shadow_revalidate");
        } else {
            shadows_.install(ctx, va_page, entry);
            machine_.cost().charge(costs.shadowFill, "shadow_fill");
        }
        tlb(vcpu.cpu()).insert(ctx, va_page, entry);
        machine_.cost().charge(costs.vmResume);
        return entry;
    }
    osh_panic("shadow resolution for va 0x%llx did not converge",
              static_cast<unsigned long long>(va_page));
}

void
Vmm::invalidateVa(Asid asid, GuestVA va_page)
{
    shadows_.invalidateVa(asid, pageBase(va_page));
    for (auto& t : tlbs_)
        t->invalidateVa(asid, pageBase(va_page));
    // Trapped INVLPG costs a world switch.
    chargeWorldSwitch("invlpg");
}

void
Vmm::shootdownVa(Asid asid, GuestVA va_page)
{
    // Cross-core shootdown driven by the cloak layer: drop the VA from
    // every core's TLB. The caller already charged the world switch
    // covering the whole batch, so no cost is added per page.
    for (auto& t : tlbs_)
        t->invalidateVa(asid, pageBase(va_page));
}

void
Vmm::invalidateAsid(Asid asid)
{
    shadows_.invalidateAsid(asid);
    for (auto& t : tlbs_)
        t->invalidateAsid(asid);
    chargeWorldSwitch("asid_flush");
}

void
Vmm::invalidateMpa(Mpa frame_base)
{
    shadows_.invalidateMpa(pageBase(frame_base));
    for (auto& t : tlbs_)
        t->invalidateMpa(pageBase(frame_base));
    machine_.cost().charge(machine_.cost().params().tlbFlush,
                           "mpa_invalidate");
}

void
Vmm::suspendMpa(Mpa frame_base)
{
    if (!shadowRetention_) {
        invalidateMpa(frame_base);
        return;
    }
    shadows_.suspendMpa(pageBase(frame_base));
    // Hardware TLBs have no suspended state: entries granting access to
    // the old view must be shot down either way — on every core.
    for (auto& t : tlbs_)
        t->invalidateMpa(pageBase(frame_base));
    machine_.cost().charge(machine_.cost().params().tlbFlush,
                           "mpa_suspend");
}

void
Vmm::onContextSwitch(std::uint32_t cpu)
{
    stats_.inc(switchSlots_[cpu]);
    if (shadowRetention_) {
        stats_.inc(vmmStat("switches_retained"));
        return;
    }
    // Untagged shadow cache: a CR3 write wipes everything, and every
    // resumed process rebuilds its shadows one hidden fault at a time.
    shadows_.invalidateAll();
    for (auto& t : tlbs_)
        t->flushAll();
    machine_.cost().charge(machine_.cost().params().tlbFlush,
                           "switch_flush");
    stats_.inc(vmmStat("switch_flushes"));
}

std::int64_t
Vmm::hypercall(Vcpu& vcpu, Hypercall num,
               std::span<const std::uint64_t> args)
{
    OSH_TRACE_SCOPE(&machine_.tracer(), trace::Category::Vmm,
                    "hypercall", vcpu.context().view,
                    static_cast<Pid>(vcpu.context().asid),
                    static_cast<std::uint64_t>(num));
    chargeWorldSwitch("hypercall");
    stats_.inc(vmmStat("hypercalls"));
    return cloak_->hypercall(vcpu, num, args);
}

std::size_t
Vmm::prepareFramesForKernel(std::span<const Gpa> gpas)
{
    std::size_t sealed = cloak_->sealPlaintextFrames(gpas);
    if (sealed > 0)
        stats_.inc(vmmStat("kernel_preseals"), sealed);
    return sealed;
}

void
Vmm::configureVirtualClock(bool hardened, std::uint64_t seed)
{
    clockHardened_ = hardened;
    clockSeed_ = seed;
    vclocks_.clear();
}

Cycles
Vmm::readTsc(Asid asid)
{
    Cycles raw = machine_.cost().cycles();
    if (!clockHardened_)
        return raw; // Legacy exact path: baselines replay bit-identical.

    auto [it, fresh] = vclocks_.try_emplace(asid);
    VClock& vc = it->second;
    if (fresh) {
        vc.rng = clockSeed_ ^
                 (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(asid) + 1));
        vc.offset =
            splitmix64(vc.rng) % (hardenedClockOffsetCycles + 1);
    }
    Cycles fuzz = splitmix64(vc.rng) % (hardenedClockFuzzCycles + 1);
    Cycles vt = raw + vc.offset + fuzz;
    if (vt <= vc.last)
        vt = vc.last + 1;
    vc.last = vt;
    stats_.inc(vmmStat("tsc_virtual_reads"));
    return vt;
}

void
Vmm::chargeWorldSwitch(sim::CostEvent reason)
{
    const auto& costs = machine_.cost().params();
    machine_.cost().charge(costs.vmExit + costs.vmResume, reason);
    stats_.inc(vmmStat("world_switches"));
}

} // namespace osh::vmm
