#include "os/thread.hh"

#include "base/logging.hh"

#include <algorithm>
#include <cstdint>

#include <sys/mman.h>
#include <unistd.h>

#if defined(__SANITIZE_ADDRESS__)
#define OSH_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define OSH_ASAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define OSH_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OSH_TSAN_FIBERS 1
#endif
#endif

#ifdef OSH_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef OSH_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace osh::os
{

constexpr StatNames schedStat{
    "blocks", "cpu_migrations", "dispatches", "freezes", "preemptions",
    "thaws", "threads_created", "wakeups", "yields",
};

namespace
{

/** A fiber stack mapping, the same size as a default pthread stack. */
constexpr std::size_t stackBytes = 8ull << 20;

/** The PROT_NONE guard at the low end of every stack mapping. */
std::size_t
guardBytes()
{
    static const auto bytes =
        static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return bytes;
}

/** Lowest usable address of a stack mapping. */
void*
stackBottom(void* base)
{
    return static_cast<char*>(base) + guardBytes();
}

std::size_t
stackUsable()
{
    return stackBytes - guardBytes();
}

/**
 * Clear ASan's shadow over a stack. A finished fiber never unwinds its
 * last frames, so their redzones stay poisoned; a reused stack, or a
 * later mapping that lands on the same range, would otherwise report
 * false stack-buffer-underflows.
 */
void
unpoisonStack([[maybe_unused]] void* base)
{
#ifdef OSH_ASAN_FIBERS
    __asan_unpoison_memory_region(stackBottom(base), stackUsable());
#endif
}

/** Most stacks a host thread keeps for its next Scheduler. */
constexpr std::size_t cachedStacksMax = 64;

/** The top of a cached stack that stays resident: guest bodies touch
 *  1 to 9 pages of it. */
constexpr std::size_t cachedResidentBytes = 64ull << 10;

/**
 * Stacks destroyed Schedulers left to the next one on their host
 * thread, so a System built after another launches its first wave
 * without mapping; the thread's exit unmaps them.
 */
struct StackCache
{
    std::vector<void*> stacks;

    StackCache() = default;
    StackCache(const StackCache&) = delete;
    StackCache& operator=(const StackCache&) = delete;

    ~StackCache()
    {
        for (void* base : stacks)
            munmap(base, stackBytes);
    }
};

thread_local StackCache stackCache;

} // namespace

Scheduler::Scheduler(sim::CostModel& cost)
    : cost_(cost), stats_("sched", schedStat.names)
{
}

void
Scheduler::configureCpus(std::size_t count)
{
    osh_assert(count > 0, "scheduler needs at least one CPU");
    osh_assert(started_ == 0,
               "configureCpus after threads were created");
    cpuCount_ = count;
    nextCpuSlot_ = 0;
}

void
Scheduler::assignCpu(Thread* t)
{
    auto slot = static_cast<std::uint32_t>(nextCpuSlot_);
    nextCpuSlot_ = (nextCpuSlot_ + 1) % cpuCount_;
    stats_.inc(schedStat("dispatches"));
    if (t->vcpu.cpu() != slot) {
        stats_.inc(schedStat("cpu_migrations"));
        t->vcpu.setCpu(slot);
    }
}

Scheduler::~Scheduler()
{
    osh_assert(liveCount_ == 0,
               "scheduler destroyed with %llu live threads",
               static_cast<unsigned long long>(liveCount_));
    reapFinished();
    for (void* base : freeStacks_) {
        if (stackCache.stacks.size() == cachedStacksMax) {
            munmap(base, stackBytes);
            continue;
        }
        madvise(stackBottom(base), stackUsable() - cachedResidentBytes,
                MADV_DONTNEED);
        stackCache.stacks.push_back(base);
    }
}

void*
Scheduler::takeStack()
{
    if (!freeStacks_.empty()) {
        void* base = freeStacks_.back();
        freeStacks_.pop_back();
        return base;
    }
    ++heldStacks_;
    if (!stackCache.stacks.empty()) {
        void* base = stackCache.stacks.back();
        stackCache.stacks.pop_back();
        return base;
    }
    void* base = mmap(nullptr, stackBytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE |
                          MAP_STACK,
                      -1, 0);
    if (base == MAP_FAILED)
        osh_panic("cannot map a %zu-byte guest thread stack", stackBytes);
    if (mprotect(base, guardBytes(), PROT_NONE) != 0)
        osh_panic("cannot protect a guest thread stack guard page");
    unpoisonStack(base);
    ++mappedStacks_;
    return base;
}

Thread&
Scheduler::createThread(Pid pid, vmm::Vmm& vmm, const vmm::Context& ctx,
                        std::function<void(Thread&)> body)
{
    auto owned = std::make_unique<Thread>(pid, vmm, ctx);
    Thread* t = owned.get();
    t->body = std::move(body);
    t->state = Thread::State::Ready;

    Fiber& f = t->fiber_;
    f.stack = takeStack();
    if (getcontext(&f.context) != 0)
        osh_panic("getcontext failed");
    f.context.uc_stack.ss_sp = stackBottom(f.stack);
    f.context.uc_stack.ss_size = stackUsable();
    f.context.uc_link = nullptr;
    // makecontext passes int arguments: split the scheduler pointer.
    auto self = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&f.context, reinterpret_cast<void (*)()>(&fiberEntry), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self & 0xffffffffu));
#ifdef OSH_TSAN_FIBERS
    f.tsanFiber = __tsan_create_fiber(0);
#endif

    threads_.push_back(std::move(owned));
    active_.push_back(t);
    readyQueue_.push_back(t);
    ++liveCount_;
    ++started_;
    stats_.inc(schedStat("threads_created"));
    return *t;
}

void
Scheduler::fiberEntry(unsigned hi, unsigned lo) noexcept
{
    auto* self = reinterpret_cast<Scheduler*>(
        (static_cast<std::uintptr_t>(hi) << 32) | lo);
    // Whoever switched here made this thread current first.
    self->threadMain(self->current_);
}

void
Scheduler::threadMain(Thread* t) noexcept
{
    landed(t->fiber_);
    t->body(*t);
    t->body = nullptr;

    t->state = Thread::State::Zombie;
    --liveCount_;
    switchFrom(t, /*exiting=*/true);
    osh_panic("finished guest thread %u resumed", t->pid);
}

void
Scheduler::jump(Fiber& from, Fiber& to, [[maybe_unused]] bool exiting)
{
#ifdef OSH_ASAN_FIBERS
    // A null slot tells ASan the outgoing fiber is gone for good, so it
    // frees that fiber's fake stack.
    bool to_driver = to.stack == nullptr;
    __sanitizer_start_switch_fiber(
        exiting ? nullptr : &from.asanFakeStack,
        to_driver ? driverStackBottom_ : stackBottom(to.stack),
        to_driver ? driverStackSize_ : stackUsable());
#endif
#ifdef OSH_TSAN_FIBERS
    __tsan_switch_to_fiber(to.tsanFiber, 0);
#endif
    if (swapcontext(&from.context, &to.context) != 0)
        osh_panic("swapcontext failed");
    landed(from);
}

void
Scheduler::landed([[maybe_unused]] Fiber& self)
{
#ifdef OSH_ASAN_FIBERS
    const void* bottom = nullptr;
    std::size_t size = 0;
    __sanitizer_finish_switch_fiber(self.asanFakeStack, &bottom, &size);
    if (leavingDriver_) {
        driverStackBottom_ = bottom;
        driverStackSize_ = size;
    }
#endif
    leavingDriver_ = false;
}

void
Scheduler::switchFrom(Thread* cur, bool exiting)
{
    if (!readyQueue_.empty()) {
        Thread* next = readyQueue_.front();
        readyQueue_.pop_front();
        next->state = Thread::State::Running;
        current_ = next;
        if (next == cur)
            return;
        cost_.charge(cost_.params().contextSwitch, "context_switch");
        assignCpu(next);
        if (switchHook_)
            switchHook_(*next);
        jump(cur->fiber_, next->fiber_, exiting);
    } else {
        current_ = nullptr;
        if (liveCount_ != 0) {
            // No runnable thread, yet live threads remain: everything
            // else is blocked. If the caller is also going away (exit)
            // or blocking, the guest has deadlocked — unless threads
            // are frozen for a checkpoint, in which case control goes
            // back to the driver (the quiesced state it asked for).
            bool caller_runnable =
                !exiting && cur->state == Thread::State::Running;
            if (caller_runnable) {
                // Caller yielded with nobody else to run: keep going.
                current_ = cur;
                return;
            }
            if (frozenCount_ == 0) {
                osh_panic("guest deadlock: %llu live threads, "
                          "none runnable",
                          static_cast<unsigned long long>(liveCount_));
            }
            paused_ = true;
        }
        jump(cur->fiber_, driver_, exiting);
    }
    // Resumed: whoever switched back made this thread Running.
    current_ = cur;
}

void
Scheduler::yield()
{
    Thread* cur = current_;
    osh_assert(cur != nullptr, "yield outside guest context");
    if (readyQueue_.empty())
        return;
    cur->state = Thread::State::Ready;
    readyQueue_.push_back(cur);
    stats_.inc(schedStat("yields"));
    switchFrom(cur, false);
}

void
Scheduler::preempt()
{
    Thread* cur = current_;
    osh_assert(cur != nullptr, "preempt outside guest context");
    if (readyQueue_.empty())
        return;
    cost_.charge(cost_.params().interruptDeliver, "timer_interrupt");
    cur->state = Thread::State::Ready;
    readyQueue_.push_back(cur);
    stats_.inc(schedStat("preemptions"));
    switchFrom(cur, false);
}

void
Scheduler::block(const void* channel)
{
    Thread* cur = current_;
    osh_assert(cur != nullptr, "block outside guest context");
    cur->state = Thread::State::Blocked;
    cur->waitChannel = channel;
    stats_.inc(schedStat("blocks"));
    switchFrom(cur, false);
    cur->waitChannel = nullptr;
}

void
Scheduler::wakeAll(const void* channel)
{
    std::size_t out = 0;
    for (Thread* t : active_) {
        if (t->state == Thread::State::Zombie)
            continue; // Compact finished threads out of the scan set.
        if (t->state == Thread::State::Blocked &&
            t->waitChannel == channel) {
            t->state = Thread::State::Ready;
            t->waitChannel = nullptr;
            readyQueue_.push_back(t);
            stats_.inc(schedStat("wakeups"));
        }
        active_[out++] = t;
    }
    active_.resize(out);
}

void
Scheduler::wakeThread(Thread& t)
{
    if (t.state == Thread::State::Blocked) {
        t.state = Thread::State::Ready;
        t.waitChannel = nullptr;
        readyQueue_.push_back(&t);
        stats_.inc(schedStat("wakeups"));
    }
}

void
Scheduler::freezeCurrent()
{
    Thread* cur = current_;
    osh_assert(cur != nullptr, "freeze outside guest context");
    cur->state = Thread::State::Blocked;
    cur->waitChannel = &frozenChannel_;
    ++frozenCount_;
    stats_.inc(schedStat("freezes"));
    switchFrom(cur, false);
    cur->waitChannel = nullptr;
}

bool
Scheduler::isFrozen(const Thread& t) const
{
    return t.state == Thread::State::Blocked &&
           t.waitChannel == &frozenChannel_;
}

void
Scheduler::resumeFrozen(Thread& t)
{
    osh_assert(current_ == nullptr,
               "resumeFrozen while a guest thread is running");
    osh_assert(isFrozen(t), "resumeFrozen of a thread that is not frozen");
    osh_assert(frozenCount_ > 0, "frozen count underflow");
    t.state = Thread::State::Ready;
    t.waitChannel = nullptr;
    --frozenCount_;
    readyQueue_.push_back(&t);
    stats_.inc(schedStat("thaws"));
}

std::size_t
Scheduler::reapFinished()
{
    osh_assert(current_ == nullptr,
               "reapFinished while a guest thread is running");
    auto finished = [](const Thread* t) {
        return t->state == Thread::State::Zombie;
    };
    // The scan set first: it points into the records released below.
    std::erase_if(active_, finished);
    std::size_t out = 0;
    for (auto& t : threads_) {
        if (!finished(t.get())) {
            threads_[out++] = std::move(t);
            continue;
        }
        unpoisonStack(t->fiber_.stack);
        freeStacks_.push_back(t->fiber_.stack);
#ifdef OSH_TSAN_FIBERS
        __tsan_destroy_fiber(t->fiber_.tsanFiber);
#endif
    }
    std::size_t released = threads_.size() - out;
    threads_.resize(out);
    return released;
}

std::size_t
Scheduler::joinableFinishedThreads() const
{
    return static_cast<std::size_t>(
        std::count_if(threads_.begin(), threads_.end(),
                      [](const std::unique_ptr<Thread>& t) {
                          return t->state == Thread::State::Zombie;
                      }));
}

std::uint64_t
Scheduler::run()
{
    if (liveCount_ == 0)
        return started_;
    osh_assert(current_ == nullptr, "run() while a thread is running");
    if (readyQueue_.empty()) {
        // Every live thread is frozen (or blocked behind one): the
        // machine stays quiesced; nothing to run.
        osh_assert(frozenCount_ > 0, "live threads but none ready");
        return started_;
    }

    Thread* next = readyQueue_.front();
    readyQueue_.pop_front();
    next->state = Thread::State::Running;
    current_ = next;
    assignCpu(next);
#ifdef OSH_TSAN_FIBERS
    driver_.tsanFiber = __tsan_get_current_fiber();
#endif
    leavingDriver_ = true;
    jump(driver_, next->fiber_, false);

    paused_ = false;
    current_ = nullptr;
    return started_;
}

} // namespace osh::os
