/**
 * @file
 * Virtual CPU: the MMU front end guest code uses for every access.
 *
 * Each guest thread owns a Vcpu carrying its architectural registers and
 * its current execution context (ASID, view, privilege). All loads and
 * stores funnel through translatePage(), so shadow faults, guest page
 * faults and cloaking transitions happen exactly where real hardware
 * would take them. A configurable preemption hook models timer
 * interrupts: after every N user-mode operations the hook runs, which
 * the system layer uses to drive the guest scheduler — exercising the
 * paper's "asynchronous interrupt while cloaked" path.
 */

#ifndef OSH_VMM_VCPU_HH
#define OSH_VMM_VCPU_HH

#include "base/types.hh"
#include "vmm/context.hh"
#include "vmm/registers.hh"
#include "vmm/shadow.hh"
#include "vmm/vmm.hh"

#include <functional>
#include <span>
#include <string>

namespace osh::vmm
{

/** One virtual CPU (one per guest thread in this simulator). */
class Vcpu
{
  public:
    Vcpu(Vmm& vmm, const Context& ctx);

    Vmm& vmm() { return vmm_; }
    Context& context() { return ctx_; }
    const Context& context() const { return ctx_; }
    RegisterFile& regs() { return regs_; }

    /**
     * The physical-core slot this vCPU currently runs on. The guest
     * scheduler assigns it at dispatch; translations hit the slot's
     * private TLB. Always 0 in single-core runs.
     */
    std::uint32_t cpu() const { return cpu_; }
    void setCpu(std::uint32_t cpu) { cpu_ = cpu; }

    /** Fixed-width guest memory accesses (any alignment). */
    std::uint8_t load8(GuestVA va);
    std::uint32_t load32(GuestVA va);
    std::uint64_t load64(GuestVA va);
    void store8(GuestVA va, std::uint8_t v);
    void store32(GuestVA va, std::uint32_t v);
    void store64(GuestVA va, std::uint64_t v);

    /** Bulk guest memory accesses (page-crossing handled). */
    void readBytes(GuestVA va, std::span<std::uint8_t> out);
    void writeBytes(GuestVA va, std::span<const std::uint8_t> data);

    /** Read a NUL-terminated string (bounded). */
    std::string readCString(GuestVA va, std::size_t max_len = 4096);

    /** Issue a hypercall to the VMM. */
    std::int64_t hypercall(Hypercall num,
                           std::span<const std::uint64_t> args);

    /**
     * Install the timer-preemption hook: after every @p ops_per_tick
     * user-mode operations the hook is invoked (kernel mode never
     * preempts). Pass an empty function to disable.
     */
    void setPreemptHook(std::function<void()> hook,
                        std::uint64_t ops_per_tick);

  private:
    /** Translate one page for the given access, faulting as needed. */
    ShadowEntry translatePage(GuestVA va_page, AccessType access);

    /** Charge one operation and maybe fire the preemption hook. */
    void chargeOp(std::uint64_t cost_units = 1);

    template <typename T, T (sim::MachineMemory::*ReadFn)(Mpa) const>
    T loadScalar(GuestVA va);

    template <typename T, void (sim::MachineMemory::*WriteFn)(Mpa, T)>
    void storeScalar(GuestVA va, T v);

    Vmm& vmm_;
    Context ctx_;
    RegisterFile regs_;
    std::uint32_t cpu_ = 0;

    std::function<void()> preemptHook_;
    std::uint64_t opsPerTick_ = 0;
    std::uint64_t opsSinceTick_ = 0;
    bool inPreempt_ = false;
};

} // namespace osh::vmm

#endif // OSH_VMM_VCPU_HH
