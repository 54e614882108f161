/**
 * @file
 * Top-level simulation wiring.
 *
 * A System assembles the whole stack — simulated machine, VMM, cloak
 * engine (optional: disable it for the native baseline), guest kernel,
 * scheduler and program registry — and hosts guest threads: it creates
 * the thread body for every process (initial launch, spawn, fork
 * child, restored process), attaches the cloaked shim to cloaked
 * programs (cloak::Shim::attach), drives preemption, and collects
 * exit results.
 */

#ifndef OSH_SYSTEM_SYSTEM_HH
#define OSH_SYSTEM_SYSTEM_HH

#include "cloak/engine.hh"
#include "os/env.hh"
#include "os/kernel.hh"
#include "os/program.hh"
#include "os/thread.hh"
#include "sim/machine.hh"
#include "vmm/vmm.hh"

#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace osh::system
{

/** Configuration of a full simulation. */
struct SystemConfig
{
    /** Guest physical memory in frames (machine gets the same). */
    std::uint64_t guestFrames = 4096;

    /** Deterministic seed (workloads, IVs, master key). */
    std::uint64_t seed = 42;

    /** Run with Overshadow (true) or as the native baseline (false). */
    bool cloakingEnabled = true;

    /** Metadata cache capacity (ablation knob). */
    std::size_t metadataCacheEntries = 1024;

    /** Event tracing / metrics (off by default; never affects cycles). */
    trace::TraceConfig trace;

    /** Clean-plaintext re-encryption optimization (ablation knob). */
    bool cleanOptimization = true;

    /**
     * User-mode ops between timer interrupts (0 = never preempt).
     * The default models a ~1 kHz tick on the paper's hardware:
     * roughly 2M memory operations between interrupts.
     */
    std::uint64_t preemptOpsPerTick = 2'000'000;

    /** ASID-tagged shadow retention across context switches and
     *  cloak-state flips (ablation knob; off = flush-everything VMM). */
    bool shadowRetention = true;

    /** Re-encryption victim cache entries (0 disables; ablation). */
    std::size_t victimCacheEntries = 8;

    /**
     * Host worker threads for batched page seals (encryptPages:
     * domain, region-teardown and protected-file seals). 1 (the
     * default) = every seal computes inline and no host thread starts;
     * 0 = one lane per hardware thread. Purely a host-speed knob:
     * simulated cycles (constant-cost mode included), frames, metadata
     * and trace event order are identical for every setting. A page
     * seal is a few microseconds, less than waking the pool costs, so
     * lanes only pay for large batches.
     */
    std::size_t cryptoWorkers = 1;

    /**
     * Simulated vCPUs the guest scheduler dispatches across (SMP),
     * 1 to 64. Every count takes the same scheduler and VMM path.
     * Dispatch order is vCPU-count invariant (one ready queue, op-count
     * preemption), so guest-visible results and attack-campaign
     * verdicts are identical at any count; cycle totals vary because
     * each core warms a private TLB.
     */
    std::size_t vcpus = 1;

    /**
     * Depth of the asynchronous re-encryption queue (in pages). 0 runs
     * the exact legacy synchronous eviction path. At depth N, evicting
     * a cloaked dirty page snapshots it into a VMM staging buffer and
     * hands the scrubbed frame back immediately; sealing and the swap
     * write retire in the background and drain at every trap boundary.
     * Guest-visible bytes, exit statuses and attack verdicts are
     * identical at every depth; only cycle accounting differs.
     */
    std::size_t asyncEvictDepth = 0;

    /**
     * Timing-channel hardening posture (ablation-flagged). Turns on
     * all three defenses together: a per-ASID clock offset and per-read
     * clock fuzz on every guest-visible cycle read (Sys::Clock, the
     * hostile prober's TSC; amplitudes in vmm/vmm.hh), and constant-cost
     * cloak responses — the victim-cache hit, clean-page re-encrypt and
     * metadata-cache hit charge their worst-case sibling's cycles, and
     * kernel passthrough of an already-sealed cloaked page charges a
     * full seal. Bytes and verdict-relevant behavior are unchanged;
     * only cycle accounting and clock reads differ. Off is the exact
     * raw counter every committed baseline replays. Requires cloaking.
     */
    bool timingHardening = false;

    /**
     * Seed for hostile-kernel attack injection (src/attack campaigns):
     * a stream derived from the system seed, so the attack schedule
     * never aliases workload randomness.
     */
    std::uint64_t
    effectiveAttackSeed() const
    {
        return seed ^ 0xa77acc5eedull;
    }

    class Builder;
};

/**
 * Fluent builder for SystemConfig. Unlike brace-initializing the
 * struct, build() validates the combination and throws
 * std::invalid_argument on nonsense (no memory, zero-capacity caches),
 * so misconfigured benchmarks fail loudly instead of measuring garbage.
 *
 *   auto cfg = SystemConfig::Builder{}
 *                  .guestFrames(512)
 *                  .seed(7)
 *                  .cloaking(true)
 *                  .build();
 */
class SystemConfig::Builder
{
  public:
    Builder& guestFrames(std::uint64_t n) { cfg_.guestFrames = n; return *this; }
    Builder& seed(std::uint64_t s) { cfg_.seed = s; return *this; }
    Builder& cloaking(bool on) { cfg_.cloakingEnabled = on; return *this; }
    Builder& metadataCacheEntries(std::size_t n)
    {
        cfg_.metadataCacheEntries = n;
        return *this;
    }
    Builder& trace(const trace::TraceConfig& t) { cfg_.trace = t; return *this; }
    Builder& cleanOptimization(bool on)
    {
        cfg_.cleanOptimization = on;
        return *this;
    }
    Builder& preemptOpsPerTick(std::uint64_t ops)
    {
        cfg_.preemptOpsPerTick = ops;
        return *this;
    }
    Builder& shadowRetention(bool on)
    {
        cfg_.shadowRetention = on;
        return *this;
    }
    Builder& victimCacheEntries(std::size_t n)
    {
        cfg_.victimCacheEntries = n;
        return *this;
    }
    Builder& cryptoWorkers(std::size_t n)
    {
        cfg_.cryptoWorkers = n;
        return *this;
    }
    Builder& vcpus(std::size_t n)
    {
        cfg_.vcpus = n;
        return *this;
    }
    Builder& asyncEvictDepth(std::size_t n)
    {
        cfg_.asyncEvictDepth = n;
        return *this;
    }
    Builder& timingHardening(bool on)
    {
        cfg_.timingHardening = on;
        return *this;
    }

    /** Validate and return the config; throws std::invalid_argument. */
    SystemConfig build() const;

  private:
    SystemConfig cfg_;
};

/** Final state of an exited process. */
struct ExitResult
{
    Pid pid = 0;
    int status = 0;
    bool killed = false;
    std::string killReason;
    std::string programName;
};

/** The assembled simulation. */
class System : public os::ProcessHost
{
  public:
    explicit System(const SystemConfig& config = {});
    ~System() override;

    System(const System&) = delete;
    System& operator=(const System&) = delete;

    // Components -----------------------------------------------------------
    sim::Machine& machine() { return machine_; }
    vmm::Vmm& vmm() { return vmm_; }
    os::Kernel& kernel() { return kernel_; }
    os::Scheduler& sched() { return sched_; }
    os::ProgramRegistry& programs() { return programs_; }
    /** Null when cloaking is disabled (native baseline). */
    cloak::CloakEngine* cloak() { return engine_.get(); }
    trace::Tracer& tracer() { return machine_.tracer(); }
    const SystemConfig& config() const { return config_; }

    /** Register a guest program. */
    void addProgram(const std::string& name, os::Program program);

    /** Create the init process for a program (thread starts Ready). */
    Pid launch(const std::string& program,
               std::vector<std::string> argv = {});

    /**
     * Start the thread of a restored (migrated-in) cloaked process.
     * The migrate layer has already built the address space and
     * imported the protection domain with its layout; the thread body
     * attaches the shim to that domain and re-enters main().
     */
    void startRestoredProcess(os::Process& proc);

    /**
     * Run until every guest thread has exited (or the scheduler pauses
     * for a freeze), then free what finished: thread records, fiber
     * stacks and the zombies no parent can still waitpid for.
     */
    void run();

    /**
     * Tear down a frozen process: flag the kill, thaw it and run, so
     * the post-thaw kill check in its trap path ends it. ~System ends
     * every live process the same way.
     */
    void killFrozen(Pid pid, const std::string& reason);

    /** Convenience: launch + run, returning the init process result. */
    ExitResult runProgram(const std::string& program,
                          std::vector<std::string> argv = {});

    Cycles cycles() const { return machine_.cost().cycles(); }

    const std::map<Pid, ExitResult>& results() const { return results_; }
    const ExitResult* resultOf(Pid pid) const;

    // os::ProcessHost -------------------------------------------------------
    void startProgram(os::Process& proc) override;
    void startForkChild(os::Process& child, os::ForkBody body,
                        std::uint64_t cloak_token) override;

  private:
    /** How a new thread starts; a cloaked process's layout is not
     *  here but in its Domain. */
    struct StartInfo
    {
        os::ForkBody forkBody; ///< Runs instead of main() (fork child).
        std::uint64_t cloakForkToken = 0; ///< Fork child's attach token.
        bool needsImageSetup = true; ///< False: the AS is built already.
    };

    void startThread(os::Process& proc, StartInfo info);
    void threadBody(os::Thread& thread, Pid pid, StartInfo info);

    /** Request @p proc's kill; its next kernel entry after the next
     *  run() ends it. A frozen process is thawed for it. */
    void flagKill(os::Process& proc, const std::string& reason);

    SystemConfig config_;
    sim::Machine machine_;
    vmm::Vmm vmm_;
    std::unique_ptr<cloak::CloakEngine> engine_;
    os::ProgramRegistry programs_;
    os::Scheduler sched_;
    os::Kernel kernel_;

    std::map<Pid, ExitResult> results_;
};

} // namespace osh::system

#endif // OSH_SYSTEM_SYSTEM_HH
