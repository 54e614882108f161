/**
 * @file
 * The guest kernel.
 *
 * A small but real commodity-OS kernel: processes with demand-paged
 * address spaces, COW fork, a page cache over a ramfs, anonymous-page
 * swapping under memory pressure, pipes, signals and a round-robin
 * scheduler. It implements vmm::GuestOsHooks, so the VMM walks its page
 * tables and delivers guest page faults to it.
 *
 * The kernel is *untrusted* in Overshadow's threat model: it manages
 * cloaked applications' resources but must never see their plaintext.
 * Installed AttackHooks (os/attack_hooks.hh) turn it actively hostile
 * (snooping buffers, tampering with swapped pages, replaying stale page
 * contents) to verify the cloak engine detects every attack.
 */

#ifndef OSH_OS_KERNEL_HH
#define OSH_OS_KERNEL_HH

#include "base/stats.hh"
#include "base/types.hh"
#include "os/attack_hooks.hh"
#include "os/frames.hh"
#include "os/process.hh"
#include "os/program.hh"
#include "os/swap.hh"
#include "os/thread.hh"
#include "os/vfs.hh"
#include "vmm/hooks.hh"
#include "vmm/vmm.hh"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace osh::os
{

/**
 * Interface the system layer implements to create guest threads for
 * new processes (the kernel cannot do it: thread bodies need the
 * Overshadow runtime wiring that lives above the OS).
 */
class ProcessHost
{
  public:
    virtual ~ProcessHost() = default;

    /** Start the thread of a freshly created/spawned process. */
    virtual void startProgram(Process& proc) = 0;

    /**
     * Start the thread of a fork child: it runs @p body, attached to
     * its parent's cloak domain through @p cloak_token (0 for an
     * uncloaked parent).
     */
    virtual void startForkChild(Process& child, ForkBody body,
                                std::uint64_t cloak_token) = 0;
};

/**
 * The path at @p va, or nullopt when none of its first maxPathLen + 1
 * bytes is the terminator: a longer path is refused, never truncated,
 * so two paths that differ past maxPathLen cannot name one file. The
 * kernel and the cloaked shim both read paths with this, and accept
 * exactly what Env::stagePath stages.
 */
std::optional<std::string> readPath(vmm::Vcpu& vcpu, GuestVA va);

/** Counters of the "kernel" group (kernel.cc, kernel_syscalls.cc). */
inline constexpr StatNames kernelStat{
    "anon_faults", "async_swap_outs", "batched_syscalls", "batches",
    "cow_breaks", "evicted_anon", "evicted_pagecache", "execs", "file_faults",
    "file_preads", "file_pwrites", "file_reads", "file_writes",
    "forced_swap_outs", "forks", "freezes", "fsyncs", "kills", "mmaps",
    "munmaps", "opens", "page_faults", "pagecache_fills", "pipes_created",
    "processes_created", "processes_exited", "signals_delivered", "spawns",
    "swap_ins", "writebacks", "zombies_reaped",
};

/** The guest kernel. */
class Kernel : public vmm::GuestOsHooks, private vmm::EvictionSink
{
  public:
    /**
     * @param vmm The VMM this guest runs on.
     * @param sched Scheduler shared with the system layer.
     * @param programs Program registry ("/bin").
     */
    Kernel(vmm::Vmm& vmm, Scheduler& sched, ProgramRegistry& programs);
    ~Kernel() override;

    Kernel(const Kernel&) = delete;
    Kernel& operator=(const Kernel&) = delete;

    void setProcessHost(ProcessHost* host) { host_ = host; }

    /**
     * Whether Overshadow is present on this system. When false (native
     * baseline), programs marked cloaked run as ordinary processes:
     * no cloaked VMAs, ordinary COW fork.
     */
    void setCloakingAvailable(bool available)
    {
        cloakingAvailable_ = available;
    }

    // GuestOsHooks ------------------------------------------------------
    vmm::GuestPte translateGuest(Asid asid, GuestVA va) override;
    void handleGuestPageFault(vmm::Vcpu& vcpu, GuestVA va,
                              vmm::AccessType access) override;
    void notifyWrite(Asid asid, GuestVA va_page) override;

    // Process lifecycle -------------------------------------------------

    /**
     * Create a process structure (no thread yet) for a program. The
     * host starts its thread; the image is built by setupProcessImage.
     */
    Process& createProcess(const std::string& program,
                           std::vector<std::string> argv, Pid ppid = 0);

    /** Build the initial VMAs (stack, code) for a program image. */
    void setupProcessImage(Process& proc, const Program& program);

    /** Bind a guest thread to its process (host calls this). */
    void bindThread(Pid pid, Thread& thread);

    Thread* threadOf(Pid pid);

    /** Terminate a process; throws if it is the current one. */
    void killProcess(Process& proc, const std::string& reason);

    /** Release every resource of a process (exit/exec). */
    void teardownAddressSpace(Process& proc);

    /** Full exit path for the current process. Does not return. */
    [[noreturn]] void exitCurrent(int status);

    /**
     * Final teardown after a thread body unwinds (exit, kill or cloak
     * violation): release the address space, close descriptors, mark
     * the process zombie and wake waiters. Never throws.
     */
    void finalizeExit(Process& proc, int status);

    /**
     * Driver context, between runs: erase every zombie that no live
     * parent can still waitpid for — its parent is absent (ppid 0 or
     * already reaped) or is itself a zombie. There is no reparenting:
     * such a zombie's status is unobservable in the guest. Counted in
     * the "zombies_reaped" stat (waitpid reaps are not). Returns the
     * number erased.
     */
    std::size_t reapOrphanZombies();

    // Syscalls -----------------------------------------------------------

    /**
     * Kernel entry for a trapped system call: arguments in the thread's
     * registers (r0 = number, r1..r5 = args), result returned and also
     * written to r0. Runs in kernel mode; may block.
     */
    std::int64_t syscallEntry(Thread& thread);

    /**
     * Is @p num allowed inside a SubmitBatch ring? The shim applies
     * the same whitelist so depth-independent semantics hold on both
     * sides of the trust boundary.
     */
    static bool batchable(Sys num);

    /** Timer interrupt: scheduling tick (+ pending kill/signal checks). */
    void timerTick(Thread& thread);

    // Checkpoint quiesce --------------------------------------------------

    /**
     * Driver context: ask that @p pid be frozen at its @p after_entries
     * -th kernel entry (syscall or timer tick) from now. The thread
     * parks at a trap boundary — registers saved to its CTC for cloaked
     * processes — and the scheduler pauses once nothing else is
     * runnable, handing control back to the checkpointing driver.
     */
    void requestFreeze(Pid pid, std::uint64_t after_entries = 1);

    /** Is this process's thread parked on the freeze channel? */
    bool isFrozen(Pid pid);

    /** Driver context: make a frozen process runnable again. */
    void thaw(Pid pid);

    // Components ---------------------------------------------------------
    vmm::Vmm& vmm() { return vmm_; }
    Scheduler& sched() { return sched_; }
    Vfs& vfs() { return vfs_; }
    FrameAllocator& frames() { return frames_; }
    SwapDevice& swap() { return swap_; }
    ProgramRegistry& programs() { return programs_; }

    /**
     * Install the hostile-kernel hooks, the kernel's only hostile seam
     * (the attack campaign's director, or a test's own attacker).
     * nullptr restores the built-in no-op hooks: an honest kernel.
     */
    void
    setAttackHooks(AttackHooks* hooks)
    {
        attackHooks_ = hooks != nullptr ? hooks : &noAttackHooks_;
    }

    StatGroup& stats() { return stats_; }

    Process* findProcess(Pid pid);
    Process& process(Pid pid);
    Process& currentProcess();
    Thread& currentThread();

    /** All pids (tests/inspection). */
    std::vector<Pid> pids() const;

    // User-memory helpers (kernel view!) ----------------------------------
    bool validUserRange(Process& proc, GuestVA va, std::uint64_t len,
                        bool write);
    void copyToUser(Thread& t, GuestVA va,
                    std::span<const std::uint8_t> data);
    void copyFromUser(Thread& t, GuestVA va, std::span<std::uint8_t> out);
    /** readPath through the kernel's view of @p t's memory. */
    std::optional<std::string> readUserPath(Thread& t, GuestVA va);

    /**
     * Hostile-kernel seam: forcibly swap out one anonymous page of
     * @p pid, exactly as memory pressure would. The timing campaign's
     * async-drain prober uses this to place a chosen victim page on
     * the asynchronous eviction queue and then time the drain barrier.
     * Returns false (and does nothing) unless the page is a present,
     * unpinned, singly-mapped anonymous frame — the same candidate
     * rules evictOneFrame() applies.
     */
    bool forceSwapOut(Pid pid, GuestVA va_page);

  private:
    friend class KernelModeGuard;

    // Memory management ----------------------------------------------------
    Gpa allocFrameOrEvict(FrameUse use);
    bool evictOneFrame();
    void swapOutAnon(Gpa gpa);
    /** Retire an asynchronous eviction swapOutAnon queued: write the
     *  sealed page to its slot, then run the swap-out attack hook. */
    void commitEviction(std::uint64_t slot, std::uint64_t replay_key,
                        std::span<const std::uint8_t> sealed) override;
    void swapIn(Process& proc, GuestVA va_page, Pte& pte, const Vma& vma);
    void dropPageCachePage(Inode& ino, std::uint64_t page_index);

    /**
     * Free an inode and its page-cache frames if nothing references it
     * any more: called wherever a link, descriptor or mapping drops.
     */
    void reapInode(InodeId id);

    /** Take / drop the inode reference a file VMA holds. */
    void pinVmaInode(const Vma& vma);
    void unpinVmaInode(const Vma& vma);

    /**
     * Write one dirty cached page to the disk image. @p charge_seek
     * distinguishes a random single-page writeback (eviction) from a
     * page inside a batched fsync, which pays the seek only once.
     */
    void writebackPage(Inode& ino, std::uint64_t page_index,
                       bool charge_seek = true);
    PageCacheEntry& ensureCached(InodeId ino_id, std::uint64_t page_index);
    void breakCow(Process& proc, GuestVA va_page, Pte& pte);
    void addAnonMapping(Gpa gpa, Asid asid, GuestVA va_page);
    void dropAnonMapping(Gpa gpa, Asid asid, GuestVA va_page);
    void releasePte(Process& proc, GuestVA va_page, Pte& pte);

    /** Copy one whole frame through the kernel view (cloak-visible). */
    void readFrameAsKernel(Thread& t, Gpa gpa,
                           std::span<std::uint8_t> out);
    void writeFrameAsKernel(Thread& t, Gpa gpa,
                            std::span<const std::uint8_t> data);

    /**
     * The one file read body (read and pread): copy up to @p len bytes
     * of @p ino from file offset @p off through the page cache to user
     * @p buf, then give the attack hooks their read-return shot at the
     * buffer. Returns the bytes copied (0 at or past EOF), or
     * -errIsDir. Cursor handling stays with the caller.
     */
    std::int64_t readAt(Thread& t, Inode& ino, std::uint64_t off,
                        GuestVA buf, std::uint64_t len);

    /**
     * The one file write body (write and pwrite), readAt's mirror:
     * copy @p len bytes from user @p buf into the page cache at file
     * offset @p off and grow the size to cover them. A zero-length
     * write returns 0 and leaves the size alone; a range ending past
     * maxFileBytes (or overflowing) returns -errFBig.
     */
    std::int64_t writeAt(Thread& t, Inode& ino, std::uint64_t off,
                         GuestVA buf, std::uint64_t len);

    // Syscall implementations ----------------------------------------------

    /**
     * The dispatch switch shared by the per-trap path (syscallEntry)
     * and the batched path (sysSubmitBatch): routes one decoded call
     * to its sys* handler. Charges nothing itself — trap-boundary
     * costs stay in syscallEntry, so batch dispatch pays them once.
     */
    std::int64_t dispatchSyscall(Thread& t, Sys num, std::uint64_t a1,
                                 std::uint64_t a2, std::uint64_t a3,
                                 std::uint64_t a4, std::uint64_t a5);

    std::int64_t sysExit(Thread& t, std::int64_t status);
    std::int64_t sysMmap(Thread& t, std::uint64_t len, std::uint64_t prot,
                         std::uint64_t flags, std::uint64_t fd,
                         std::uint64_t offset);
    std::int64_t sysMunmap(Thread& t, GuestVA va);
    std::int64_t sysOpen(Thread& t, GuestVA path_va, std::uint64_t flags);
    std::int64_t sysClose(Thread& t, std::uint64_t fd);
    /** read, write, pread and pwrite (@p num): one body, with @p off
     *  used by the positional two only. */
    std::int64_t sysTransfer(Thread& t, Sys num, std::uint64_t fd,
                             GuestVA buf, std::uint64_t len,
                             std::uint64_t off);
    std::int64_t sysLseek(Thread& t, std::uint64_t fd, std::int64_t off,
                          std::uint64_t whence);
    std::int64_t sysFstat(Thread& t, std::uint64_t fd, GuestVA out_va);
    std::int64_t sysReadDir(Thread& t, std::uint64_t fd,
                            std::uint64_t index, GuestVA buf,
                            std::uint64_t buf_len);
    std::int64_t sysFtruncate(Thread& t, std::uint64_t fd,
                              std::uint64_t size);
    std::int64_t sysFsync(Thread& t, std::uint64_t fd);
    std::int64_t sysPipe(Thread& t, GuestVA fds_out);
    std::int64_t sysDup(Thread& t, std::uint64_t fd);
    std::int64_t sysDup2(Thread& t, std::uint64_t oldfd,
                         std::uint64_t newfd);
    std::int64_t sysSubmitBatch(Thread& t, GuestVA sub_va,
                                GuestVA comp_va, std::uint64_t count);
    std::int64_t sysSpawn(Thread& t, GuestVA name_va, GuestVA argv_va,
                          std::uint64_t argv_len);
    std::int64_t sysFork(Thread& t);
    /** Give fork child @p child its own swap slot at @p va, holding a
     *  copy of @p parent's swapped page (allocate, drain, read, write). */
    void copySwappedPage(const Pte& parent, AddressSpace& child,
                         GuestVA va);
    std::int64_t sysExec(Thread& t, GuestVA name_va, GuestVA argv_va,
                         std::uint64_t argv_len);
    std::int64_t sysWaitPid(Thread& t, std::int64_t pid, GuestVA status_va);
    std::int64_t sysVmaQuery(Thread& t, std::uint64_t index,
                             std::uint64_t field);
    std::int64_t sysKill(Thread& t, std::int64_t pid, std::uint64_t sig);
    std::int64_t sysSigAction(Thread& t, std::uint64_t sig,
                              std::uint64_t token);

    std::int64_t pipeRead(Thread& t, OpenFile& f, GuestVA buf,
                          std::uint64_t len);
    std::int64_t pipeWrite(Thread& t, OpenFile& f, GuestVA buf,
                           std::uint64_t len);
    void closeFile(Process& proc, std::shared_ptr<OpenFile>& slot);

    /** Parse a spawn/exec argv blob from user memory. */
    std::vector<std::string> readArgvBlob(Thread& t, GuestVA va,
                                          std::uint64_t len);

    /** Throw ProcessKilled if someone requested our death. */
    void checkKillRequested(Thread& t);

    /** Park the thread if a freeze request for it has counted down. */
    void checkFreezeRequested(Thread& t);

    /** Queue signal-delivery marker for the runtime, if any pending. */
    void maybeDeliverSignal(Thread& t);

    vmm::Vmm& vmm_;
    Scheduler& sched_;
    ProgramRegistry& programs_;
    Vfs vfs_;
    FrameAllocator frames_;
    SwapDevice swap_;
    ProcessHost* host_ = nullptr;

    std::map<Pid, std::unique_ptr<Process>> processes_;
    std::map<Pid, Thread*> threads_;
    Pid nextPid_ = 1;

    static constexpr std::uint32_t noMapper = ~std::uint32_t{0};
    /** One (asid, va page) mapping of an anonymous frame. */
    struct AnonMapper
    {
        Asid asid = 0;
        GuestVA vaPage = 0;
        std::uint32_t next = noMapper; ///< Same frame's next mapper.
    };

    /** The frame's only mapper, or nullptr when it has none or several
     *  (COW sharing). */
    const AnonMapper* soleAnonMapper(Gpa gpa) const;

    /** Reverse map: anon frame -> its (asid, va) mappers. Indexed by
     *  frame number, each entry heads a chain through anonMappers_;
     *  freed nodes chain from anonFree_. Both grow on first use and are
     *  then reused. */
    std::vector<std::uint32_t> anonHeads_;
    std::vector<AnonMapper> anonMappers_;
    std::uint32_t anonFree_ = noMapper;

    /** Pending freeze requests: pid -> kernel entries remaining. */
    std::map<Pid, std::uint64_t> freezeRequests_;

    bool cloakingAvailable_ = true;
    AttackHooks noAttackHooks_;
    AttackHooks* attackHooks_ = &noAttackHooks_;
    StatGroup stats_;
};

/** RAII: switch a thread's vcpu into kernel mode (system view). */
class KernelModeGuard
{
  public:
    explicit KernelModeGuard(vmm::Vcpu& vcpu) : vcpu_(vcpu),
        saved_(vcpu.context())
    {
        vmm::Context kctx = saved_;
        kctx.view = systemDomain;
        kctx.kernelMode = true;
        vcpu_.context() = kctx;
    }

    ~KernelModeGuard() { vcpu_.context() = saved_; }

    KernelModeGuard(const KernelModeGuard&) = delete;
    KernelModeGuard& operator=(const KernelModeGuard&) = delete;

  private:
    vmm::Vcpu& vcpu_;
    vmm::Context saved_;
};

} // namespace osh::os

#endif // OSH_OS_KERNEL_HH
