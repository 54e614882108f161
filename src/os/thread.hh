/**
 * @file
 * Guest threads and the scheduler.
 *
 * Every guest thread is a stackful fiber (POSIX makecontext/swapcontext)
 * on the host thread that calls Scheduler::run(). Only one guest body
 * can execute at a time because there is only one host thread to run
 * them: a context switch is a plain swapcontext from the outgoing
 * fiber to the incoming one, chosen by the round-robin ready queue.
 * This gives the simulator real blocking semantics (pipes, waitpid,
 * page I/O) and real preemption points while keeping runs fully
 * deterministic without any host lock or condition variable.
 *
 * Kernel code runs on the fiber of the guest thread that trapped,
 * exactly as in a real monolithic kernel. A finished thread's record
 * and stack are released by reapFinished(); stacks go to a free list
 * that the next createThread() reuses, so host memory scales with the
 * live threads, not with every thread ever created.
 */

#ifndef OSH_OS_THREAD_HH
#define OSH_OS_THREAD_HH

#include "base/stats.hh"
#include "base/types.hh"
#include "sim/cost_model.hh"
#include "vmm/vcpu.hh"

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include <ucontext.h>

namespace osh::os
{

class Env;
class Scheduler;

/** What a fork child runs in place of its program's main(). */
using ForkBody = std::function<int(Env&)>;

/** A saved execution context: a guest thread's, or the driver's. */
struct Fiber
{
    ucontext_t context{};
    /** Base of the stack mapping, guard page first (nullptr for the
     *  driver, which runs on its host thread's own stack). */
    void* stack = nullptr;
    /** ASan fake-stack slot saved across a switch away. */
    void* asanFakeStack = nullptr;
    /** TSan fiber handle (unused without TSan). */
    void* tsanFiber = nullptr;
};

/** One guest thread (this simulator runs one thread per process). */
class Thread
{
  public:
    enum class State : std::uint8_t
    {
        Embryo,   ///< Created, not yet scheduled.
        Ready,    ///< Runnable, waiting for the CPU.
        Running,  ///< Currently holds the simulation.
        Blocked,  ///< Waiting on a channel.
        Zombie,   ///< Finished.
    };

    Thread(Pid pid, vmm::Vmm& vmm, const vmm::Context& ctx)
        : pid(pid), vcpu(vmm, ctx)
    {
    }

    Pid pid;
    State state = State::Embryo;
    vmm::Vcpu vcpu;

    /** Channel this thread is blocked on (nullptr if none). */
    const void* waitChannel = nullptr;

    // Runtime mailbox between the kernel and the Env/shim.

    /** Pending user-signal delivery (negative = none). */
    int deliverSignal = -1;
    std::uint64_t deliverSignalToken = 0;

    /** sys_exec built a new image (set by the kernel, consumed by the
     *  Env, which unwinds into it). */
    bool hasPendingExec = false;

    /** Pending fork (parked by Env::fork and, for a cloaked parent, the
     *  token its shim minted; consumed by sys_fork). */
    ForkBody pendingForkBody;
    std::uint64_t pendingForkToken = 0;

    /** Body to run once first scheduled. */
    std::function<void(Thread&)> body;

  private:
    friend class Scheduler;

    Fiber fiber_;
};

/**
 * Round-robin scheduler over fiber-backed guest threads.
 *
 * Every scheduler method documented as "guest context" must be called
 * from the currently Running guest thread's fiber; "driver context"
 * methods must be called while no guest thread runs.
 */
class Scheduler
{
  public:
    explicit Scheduler(sim::CostModel& cost);
    ~Scheduler();

    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /**
     * Create a guest thread. May be called from the driver (before
     * run()) or from a running guest thread (fork/spawn). The thread
     * starts Ready.
     */
    Thread& createThread(Pid pid, vmm::Vmm& vmm, const vmm::Context& ctx,
                         std::function<void(Thread&)> body);

    /** The currently running guest thread (nullptr from the driver). */
    Thread* current() { return current_; }

    /** Guest context: voluntarily give up the CPU. */
    void yield();

    /** Guest context: involuntary preemption (timer); charged. */
    void preempt();

    /** Guest context: block on a channel until woken. */
    void block(const void* channel);

    /** Guest context: wake every thread blocked on the channel. */
    void wakeAll(const void* channel);

    /** Guest context: make one specific blocked thread runnable. */
    void wakeThread(Thread& t);

    /**
     * Guest context: park the calling thread on the scheduler's freeze
     * channel (checkpoint quiesce). Unlike block(), a frozen thread can
     * only be made runnable again by the driver via resumeFrozen(); and
     * when every remaining live thread is frozen or blocked the
     * scheduler *pauses* — run() returns to the driver instead of
     * panicking on deadlock — so the driver can inspect a quiesced
     * machine. Returns when the thread is thawed.
     */
    void freezeCurrent();

    /** Driver context: make a frozen thread runnable again. */
    void resumeFrozen(Thread& t);

    /** Is this thread parked on the freeze channel? */
    bool isFrozen(const Thread& t) const;

    /**
     * Driver context: run the simulation until every guest thread has
     * exited — or, when threads are frozen, until no unfrozen thread is
     * runnable (the paused state).
     * Returns the number of threads that ran.
     */
    std::uint64_t run();

    /**
     * Hook invoked whenever the CPU is handed to a *different* thread —
     * the simulator's CR3-write point. The incoming thread is passed so
     * the system layer can tell the VMM which vCPU slot took the switch
     * (shadow/TLB retention).
     */
    void setSwitchHook(std::function<void(Thread&)> hook)
    {
        switchHook_ = std::move(hook);
    }

    /**
     * Number of simulated physical cores threads are dispatched onto
     * (SMP). Dispatch order is unchanged — the single ready queue still
     * decides who runs next — so guest-visible execution is identical
     * at any count; only the vCPU slot (and hence which private TLB a
     * thread warms) varies. Must be set before run().
     */
    void configureCpus(std::size_t count);

    /**
     * Driver context (no thread running): release every guest thread
     * that has exited — its Thread record is destroyed and its stack
     * goes to the free list the next createThread() takes from. Results
     * live in the layers above (keyed by pid), never in the record.
     * Lets a many-thousand-process sweep run in bounded host memory;
     * returns the number of threads released.
     */
    std::size_t reapFinished();

    /** Finished guest threads not yet released — what the next
     *  reapFinished() would release. */
    std::size_t joinableFinishedThreads() const;

    /** Thread records currently held (live plus unreaped finished). */
    std::size_t threadRecords() const { return threads_.size(); }

    /** Fiber stacks mapped so far (in use plus on the free list). */
    std::size_t mappedStacks() const { return mappedStacks_; }

    StatGroup& stats() { return stats_; }

  private:
    /** makecontext entry of every fiber; runs the current_ thread. */
    static void fiberEntry(unsigned hi, unsigned lo) noexcept;

    /**
     * Run @p t's body on its fiber, then leave it for good. An
     * exception escaping the body ends the program here (noexcept),
     * rather than unwinding into the C frame makecontext built.
     */
    [[noreturn]] void threadMain(Thread* t) noexcept;

    /**
     * Pick the next ready thread and switch to its fiber (or back to
     * the driver when nothing can run); returns once @p cur is Running
     * again. An @p exiting caller never returns.
     */
    void switchFrom(Thread* cur, bool exiting);

    /**
     * Save the host context into @p from and resume @p to, telling the
     * sanitizers about the stack change. Returns when something
     * switches back to @p from; an @p exiting @p from never resumes.
     */
    void jump(Fiber& from, Fiber& to, bool exiting);

    /** Finish a switch into @p self (sanitizer bookkeeping). */
    void landed(Fiber& self);

    /** A stack from the free list, or a freshly mapped one. */
    void* takeStack();

    /** Bind a freshly dispatched thread to a core slot (seeded
     *  round-robin; at one core every thread stays on slot 0). */
    void assignCpu(Thread* t);

    sim::CostModel& cost_;

    std::function<void(Thread&)> switchHook_;
    std::vector<std::unique_ptr<Thread>> threads_;
    /** Non-zombie threads, the wakeAll scan set. Finished threads are
     *  dropped lazily so scans stay proportional to live threads, not
     *  to every thread ever created. */
    std::vector<Thread*> active_;
    std::deque<Thread*> readyQueue_;
    Thread* current_ = nullptr;
    /** Simulated physical cores (vCPU slots). */
    std::size_t cpuCount_ = 1;
    /** Next round-robin core slot handed out at dispatch. */
    std::size_t nextCpuSlot_ = 0;
    std::uint64_t liveCount_ = 0;
    std::uint64_t started_ = 0;
    /** Threads parked by freezeCurrent() wait on this channel. */
    char frozenChannel_ = 0;
    std::uint64_t frozenCount_ = 0;
    /** Set when the scheduler hands control back to a checkpointing
     *  driver because only frozen/blocked threads remain. */
    bool paused_ = false;

    /** The context run() was called from; fibers return here. */
    Fiber driver_;
    /** The next fiber to land came from the driver, whose stack bounds
     *  ASan learns from that switch. */
    bool leavingDriver_ = false;
    const void* driverStackBottom_ = nullptr;
    std::size_t driverStackSize_ = 0;
    /** Stacks of released threads, reused before mapping new ones. */
    std::vector<void*> freeStacks_;
    std::size_t mappedStacks_ = 0;

    StatGroup stats_;
};

} // namespace osh::os

#endif // OSH_OS_THREAD_HH
