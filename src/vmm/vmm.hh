/**
 * @file
 * The virtual machine monitor.
 *
 * Owns the pmap, the multi-shadow page tables and the TLB model, and
 * runs the resolution path every memory access takes on a shadow miss:
 *
 *   guest PTE walk -> (guest page fault to the OS if unmapped) ->
 *   cloak backend resolution (may encrypt/decrypt the page) ->
 *   shadow + TLB install.
 *
 * All world-switch and fault costs are charged here so the benchmarks
 * see the same cost structure the paper describes.
 */

#ifndef OSH_VMM_VMM_HH
#define OSH_VMM_VMM_HH

#include "base/logging.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "sim/machine.hh"
#include "vmm/context.hh"
#include "vmm/hooks.hh"
#include "vmm/pmap.hh"
#include "vmm/shadow.hh"
#include "vmm/tlb.hh"

#include <map>
#include <memory>
#include <vector>

namespace osh::vmm
{

/** Timing-hardened clock amplitudes: each ASID's view is displaced by
 *  a constant from [0, offset], and every read adds fresh fuzz from
 *  [0, fuzz] (see Vmm::configureVirtualClock). */
constexpr Cycles hardenedClockOffsetCycles = 1'000'000;
constexpr Cycles hardenedClockFuzzCycles = 1'000'000;

/** The VMM proper. */
class Vmm
{
  public:
    /**
     * @param machine Underlying simulated machine.
     * @param guest_frames Guest physical memory size in frames.
     */
    Vmm(sim::Machine& machine, std::uint64_t guest_frames);

    /** Plug in the cloak engine (defaults to passthrough / native). */
    void setCloakBackend(CloakBackend* backend);

    /** Plug in the guest OS hooks. Must be set before any access. */
    void setGuestOs(GuestOsHooks* os);

    sim::Machine& machine() { return machine_; }
    Pmap& pmap() { return pmap_; }
    ShadowManager& shadows() { return shadows_; }
    /** The TLB of vCPU slot @p cpu (below vcpuCount()). */
    Tlb&
    tlb(std::uint32_t cpu)
    {
        osh_assert(cpu < tlbs_.size(), "vCPU slot %u out of range",
                   static_cast<unsigned>(cpu));
        return *tlbs_[cpu];
    }
    CloakBackend& cloakBackend() { return *cloak_; }

    /**
     * Drain the cloak backend's asynchronous eviction queue. The guest
     * kernel calls this at its trap boundaries and before every swap /
     * fsync / checkpoint consumption point, so deferred seals can never
     * be observed half-done. A no-op for backends without a queue.
     */
    void drainAsyncEvictions() { cloak_->drainAsyncEvictions(); }

    /**
     * Size the per-vCPU TLB array (SMP). Must be called before any
     * translation; existing cached state is flushed. Each slot models
     * one core's private TLB — shadow page tables stay shared (they
     * model VMM-side structures, not per-core hardware).
     */
    void setVcpuCount(std::size_t count);
    std::size_t vcpuCount() const { return tlbs_.size(); }

    /**
     * Full shadow resolution for one page. Charges a VM exit, consults
     * the guest page tables (taking guest faults as needed), asks the
     * cloak backend, installs the shadow entry and returns it.
     */
    ShadowEntry resolve(Vcpu& vcpu, const Context& ctx, GuestVA va_page,
                        AccessType access);

    /**
     * Guest-initiated invalidation (the OS changed a PTE). Models an
     * INVLPG that the VMM traps; drops shadow + TLB state for the page
     * in every view of the address space.
     */
    void invalidateVa(Asid asid, GuestVA va_page);

    /** Guest-initiated full address-space invalidation (CR3 rewrite). */
    void invalidateAsid(Asid asid);

    /**
     * Cloak-engine-initiated invalidation: a machine frame changed
     * cloaking state, so every context's mapping of it must go. The TLB
     * is fully flushed (shootdown model).
     */
    void invalidateMpa(Mpa frame_base);

    /**
     * Cloaking-state flip on a frame whose translations remain valid:
     * suspend (retain) the shadow entries and shoot down the TLB. With
     * shadow retention disabled (ablation) this degrades to a full
     * invalidateMpa, modelling a VMM that rebuilds shadows from scratch.
     */
    void suspendMpa(Mpa frame_base);

    /**
     * Cloak-layer shootdown of one VA across *every* vCPU's TLB, with
     * no additional cost charge (the caller has already paid for the
     * triggering world switch). Used when a cloaked region's pages are
     * registered or retyped: any core could hold a stale translation.
     */
    void shootdownVa(Asid asid, GuestVA va_page);

    /**
     * A guest context switch happened (CR3 write / world switch). With
     * ASID-tagged retention (the default) shadows and TLB entries stay
     * live — resuming a process costs nothing here. With retention
     * disabled, every cached translation is flushed, modelling a VMM
     * whose shadow cache is not tagged by address space. Each switch
     * is also counted against the vCPU slot @p cpu that took it.
     */
    void onContextSwitch(std::uint32_t cpu);

    /** Enable/disable ASID-tagged shadow retention (ablation knob). */
    void setShadowRetention(bool on) { shadowRetention_ = on; }
    bool shadowRetention() const { return shadowRetention_; }

    /** Dispatch a hypercall from an application to the cloak backend. */
    std::int64_t hypercall(Vcpu& vcpu, Hypercall num,
                           std::span<const std::uint64_t> args);

    /**
     * Guest-kernel batching hint before a bulk frame read (fork eager
     * copy, fsync writeback, swap-out): ask the cloak backend to seal
     * any listed frames still holding cloaked plaintext in one batch
     * instead of one fault at a time. Safe to call with frames in any
     * state; returns the number actually sealed. When the backend's
     * crypto worker pool has more than one lane, the batch's AES and
     * SHA are precomputed across host threads; every frame is still
     * sealed by the one per-page seal, so results and cycles do not
     * depend on the worker count (see CloakEngine::setCryptoWorkers).
     */
    std::size_t prepareFramesForKernel(std::span<const Gpa> gpas);

    /** Charge one guest->VMM->guest round trip. */
    void chargeWorldSwitch(sim::CostEvent reason);

    /**
     * Configure the virtualized guest clock (timing-channel hardening).
     * Every guest-visible cycle read goes through readTsc(): unhardened
     * (the default) it returns the raw global cycle counter
     * bit-identically — the legacy behavior every committed baseline
     * replays. Hardened, each address space gets its own view: a
     * per-ASID constant offset drawn once from
     * [0, hardenedClockOffsetCycles], plus a fresh fuzz term from
     * [0, hardenedClockFuzzCycles] on every read, monotonized so time
     * never goes backwards within an ASID. All draws are splitmix64
     * streams seeded from @p seed and the ASID, so the spoofed sequence
     * is exactly reproducible run to run.
     */
    void configureVirtualClock(bool hardened, std::uint64_t seed);

    /** Guest-visible cycle counter of @p asid (see configureVirtualClock). */
    Cycles readTsc(Asid asid);

    bool clockHardened() const { return clockHardened_; }

    StatGroup& stats() { return stats_; }

  private:
    sim::Machine& machine_;
    Pmap pmap_;
    ShadowManager shadows_;
    /** One private TLB per vCPU slot; slot 0's stat group is "tlb",
     *  slot N's "tlbN". */
    std::vector<std::unique_ptr<Tlb>> tlbs_;
    std::unique_ptr<CloakBackend> passthrough_;
    CloakBackend* cloak_;
    GuestOsHooks* os_ = nullptr;
    bool shadowRetention_ = true;

    /** Per-ASID virtualized-clock state (see configureVirtualClock). */
    struct VClock
    {
        Cycles offset = 0; ///< Constant per-ASID displacement.
        Cycles last = 0;   ///< Monotonicity floor.
        std::uint64_t rng = 0;
    };
    bool clockHardened_ = false;
    std::uint64_t clockSeed_ = 0;
    std::map<Asid, VClock> vclocks_;

    StatGroup stats_;
    /** stats_ slot "switches_cpu<N>" of each vCPU N. */
    std::vector<StatSlot> switchSlots_;
};

} // namespace osh::vmm

#endif // OSH_VMM_VMM_HH
