#include "cloak/transfer.hh"

#include "base/bytes.hh"
#include "base/logging.hh"
#include "os/layout.hh"

#include <array>

namespace osh::cloak
{

namespace
{

// Fixed layout over a sized array, no length field: no PayloadReader.
std::array<std::uint8_t, ctcBytes>
serializeRegs(const vmm::RegisterFile& regs)
{
    std::array<std::uint8_t, ctcBytes> out;
    std::size_t pos = 0;
    for (std::size_t i = 0; i < vmm::numGprs; ++i, pos += 8)
        storeLe64(out.data() + pos, regs.gpr[i]);
    storeLe64(out.data() + pos, regs.pc);
    storeLe64(out.data() + pos + 8, regs.sp);
    storeLe64(out.data() + pos + 16, regs.flags);
    return out;
}

vmm::RegisterFile
deserializeRegs(const std::array<std::uint8_t, ctcBytes>& in)
{
    vmm::RegisterFile regs;
    std::size_t pos = 0;
    for (std::size_t i = 0; i < vmm::numGprs; ++i, pos += 8)
        regs.gpr[i] = loadLe64(in.data() + pos);
    regs.pc = loadLe64(in.data() + pos);
    regs.sp = loadLe64(in.data() + pos + 8);
    regs.flags = loadLe64(in.data() + pos + 16);
    return regs;
}

} // namespace

void
SecureTransfer::saveToCtc(CloakEngine& engine, DomainId domain,
                          os::Env& env, GuestVA ctc_va)
{
    auto bytes = serializeRegs(env.vcpu().regs());
    env.writeBytes(ctc_va, bytes);
    engine.recordCtc(domain, bytes);
    auto& cost = env.vcpu().vmm().machine().cost();
    cost.charge(cost.params().ctcSaveRestore, "ctc_save");
}

void
SecureTransfer::restoreFromCtc(CloakEngine& engine, DomainId domain,
                               os::Env& env, GuestVA ctc_va)
{
    std::array<std::uint8_t, ctcBytes> bytes;
    env.readBytes(ctc_va, bytes);
    if (!engine.verifyCtc(domain, bytes)) {
        Pid pid = 0;
        if (Domain* d = engine.findDomain(domain))
            pid = d->pid;
        engine.stats().inc(cloakStat("ctc_violations"));
        throw vmm::ProcessKilled{
            pid, "cloak violation: thread context tampered"};
    }
    env.vcpu().regs() = deserializeRegs(bytes);
    auto& cost = env.vcpu().vmm().machine().cost();
    cost.charge(cost.params().ctcSaveRestore, "ctc_restore");
}

std::int64_t
SecureTransfer::aroundSyscall(CloakEngine& engine, DomainId domain,
                              os::Env& env, os::Sys num,
                              const os::SyscallArgs& args)
{
    Domain* d = engine.findDomain(domain);
    osh_assert(d != nullptr && d->ctcVa != 0,
               "secure trap without a bound CTC");
    GuestVA ctc_va = d->ctcVa;
    vmm::Vmm& vmm = env.vcpu().vmm();

    OSH_TRACE_SCOPE(&vmm.machine().tracer(),
                    trace::Category::Transfer, "secure_syscall",
                    domain, d->pid,
                    static_cast<std::uint64_t>(num));
    vmm.chargeWorldSwitch("cloak_trap_enter");
    saveToCtc(engine, domain, env, ctc_va);
    env.vcpu().regs().scrub(0, os::trampolinePc, os::trampolineSp);

    std::int64_t rv = env.rawKernelEntry(num, args);

    vmm.chargeWorldSwitch("cloak_trap_return");
    restoreFromCtc(engine, domain, env, ctc_va);
    env.vcpu().regs().gpr[0] = static_cast<std::uint64_t>(rv);
    return rv;
}

void
SecureTransfer::aroundInterrupt(CloakEngine& engine, DomainId domain,
                                os::Env& env,
                                const std::function<void()>& kernel_work)
{
    Domain* d = engine.findDomain(domain);
    if (d == nullptr || d->ctcVa == 0) {
        // Domain still initializing (no CTC yet): run unprotected; the
        // shim installs the CTC before any secrets reach registers.
        kernel_work();
        return;
    }
    GuestVA ctc_va = d->ctcVa;
    vmm::Vmm& vmm = env.vcpu().vmm();

    OSH_TRACE_SCOPE(&vmm.machine().tracer(),
                    trace::Category::Transfer, "secure_interrupt",
                    domain, d->pid);
    vmm.chargeWorldSwitch("cloak_intr_enter");
    saveToCtc(engine, domain, env, ctc_va);
    env.vcpu().regs().scrub(0, os::trampolinePc, os::trampolineSp);

    kernel_work();

    vmm.chargeWorldSwitch("cloak_intr_return");
    restoreFromCtc(engine, domain, env, ctc_va);
}

} // namespace osh::cloak
