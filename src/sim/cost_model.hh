/**
 * @file
 * Deterministic cycle cost model.
 *
 * The simulator does not measure host time; every simulated operation
 * charges a fixed number of cycles here. The one table is calibrated
 * to a 2008-era x86 with a software VMM (the paper's platform): ~1 cycle
 * per cached memory access, a few hundred cycles for a trap, ~800 for a
 * VMM world-switch round trip, and software AES/SHA at ~12/10 cycles per
 * byte. Benchmarks report simulated cycles, so runs are bit-reproducible
 * and the *relative* overheads (the shape of the paper's figures) are
 * meaningful even though absolute numbers are synthetic.
 */

#ifndef OSH_SIM_COST_MODEL_HH
#define OSH_SIM_COST_MODEL_HH

#include "base/stats.hh"
#include "base/types.hh"

namespace osh::sim
{

/** The calibrated cycle-cost table, one value per simulated operation. */
struct CostParams
{
    // Memory system.
    Cycles memAccess = 1;        ///< Load/store with a TLB hit.
    Cycles tlbMissWalk = 24;     ///< Shadow-page-table walk on TLB miss.
    Cycles shadowFill = 250;     ///< VMM fills a shadow entry (hidden fault).
    Cycles shadowRevalidate = 60;///< Reactivating a retained shadow entry.
    Cycles tlbFlush = 100;       ///< Flushing a context's TLB.

    // Traps and world switches.
    Cycles vmExit = 400;         ///< One-way guest -> VMM transition.
    Cycles vmResume = 400;       ///< One-way VMM -> guest transition.
    Cycles syscallTrap = 150;    ///< Guest user -> guest kernel.
    Cycles syscallReturn = 150;  ///< Guest kernel -> guest user.
    Cycles interruptDeliver = 200;  ///< Delivering a (timer) interrupt.
    Cycles contextSwitch = 1200; ///< Kernel process switch.

    // Cloaking machinery.
    Cycles ctcSaveRestore = 600; ///< Save+scrub or restore registers.
    Cycles cloakFaultFixed = 500;   ///< Fixed cloak-fault handling cost.
    Cycles aesPerByte = 12;      ///< Software AES-128-CTR.
    Cycles shaPerByte = 10;      ///< Software SHA-256.
    Cycles metadataHit = 40;     ///< Protection-metadata cache hit.
    Cycles metadataMiss = 900;   ///< Metadata cache miss (fetch+verify).
    Cycles victimHitCopy = 1500; ///< Victim-cache hit: page compare+copy.

    // Devices.
    Cycles diskAccess = 300000;  ///< Fixed latency per disk I/O.
    Cycles diskPerByte = 2;      ///< Streaming disk bandwidth.

    // Kernel-internal work.
    Cycles pageZero = 600;       ///< Zero-filling a fresh frame.
    Cycles pageCopy = 800;       ///< Copying one page (fork, COW).
    Cycles kernelOp = 50;        ///< Generic kernel bookkeeping unit.
    Cycles batchDispatch = 40;   ///< Decoding+routing one ring descriptor.
};

/**
 * Every named cost event, one counter each in the "cost" group: the
 * keys perfbench reports as sim.events.*.
 */
inline constexpr StatNames costEventNames{
    "asid_flush", "async_evict_stall", "batch_dispatch", "cloak_fork_launch",
    "cloak_intr_enter", "cloak_intr_return", "cloak_launch",
    "cloak_restore_launch", "cloak_scrub_zero", "cloak_trap_enter",
    "cloak_trap_return", "cloak_zero_fill", "context_switch", "cow_copy",
    "ctc_restore", "ctc_save", "file_readin", "file_writeback",
    "fork_eager_copy", "hypercall", "invlpg", "metadata_hit", "metadata_miss",
    "mpa_invalidate", "mpa_suspend", "page_decrypt", "page_decrypt_victim",
    "page_encrypt", "page_encrypt_async_enqueue", "page_reencrypt_clean",
    "page_reencrypt_victim", "page_seal_equalized", "page_zero",
    "shadow_fill", "shadow_revalidate", "sleep", "swap_in", "swap_out",
    "switch_flush", "syscall", "timer_interrupt", "tlb_fill", "vm_exit",
};

/**
 * One cost event, named by its literal where it is charged:
 * `cost.charge(c, "page_zero")`. The conversion only runs at compile
 * time, so a name missing from costEventNames fails the build; adding
 * an event is one entry there.
 */
struct CostEvent
{
    consteval CostEvent(const char* name) : slot(costEventNames(name)) {}

    StatSlot slot;
};

/** Global cycle accumulator plus per-event statistics. */
class CostModel
{
  public:
    /** Charge raw cycles. */
    void charge(Cycles c) { cycles_ += c; }

    /** Charge cycles and count @p event once. */
    void
    charge(Cycles c, CostEvent event)
    {
        cycles_ += c;
        stats_.inc(event.slot);
    }

    /** Simulated time so far. */
    Cycles cycles() const { return cycles_; }

    /** Reset simulated time (stats are kept). */
    void resetCycles() { cycles_ = 0; }

    const CostParams& params() const { return params_; }

    /**
     * Stable pointer to the cycle accumulator, for the tracer's clock
     * binding (reads only; valid for the model's lifetime).
     */
    const Cycles* cycleCounter() const { return &cycles_; }

    StatGroup& stats() { return stats_; }
    const StatGroup& stats() const { return stats_; }

  private:
    static constexpr CostParams params_{};
    Cycles cycles_ = 0;
    StatGroup stats_{"cost", costEventNames.names};
};

} // namespace osh::sim

#endif // OSH_SIM_COST_MODEL_HH
