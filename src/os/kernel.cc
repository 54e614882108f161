/**
 * @file
 * Kernel core: process lifecycle, guest page-table walking, demand
 * paging, COW, the page cache and swapping. Syscall implementations
 * live in kernel_syscalls.cc.
 */

#include "os/kernel.hh"

#include "os/exceptions.hh"

#include "base/logging.hh"
#include "os/layout.hh"
#include "vmm/vcpu.hh"

#include <algorithm>
#include <array>
#include <cstring>

namespace osh::os
{

Kernel::Kernel(vmm::Vmm& vmm, Scheduler& sched, ProgramRegistry& programs)
    : vmm_(vmm), sched_(sched), programs_(programs),
      frames_(vmm.pmap().guestFrames()),
      swap_(vmm.machine().cost()), stats_("kernel", kernelStat.names)
{
    vmm_.setGuestOs(this);
    swap_.setTracer(&vmm_.machine().tracer());
}

Kernel::~Kernel()
{
    // Flush in-flight async evictions while the swap device and attack
    // hooks are still alive; the engine outlives the kernel (System
    // member order) and must not commit into destroyed state later.
    vmm_.drainAsyncEvictions();
    vmm_.setGuestOs(nullptr);
}

// ---------------------------------------------------------------------------
// GuestOsHooks
// ---------------------------------------------------------------------------

vmm::GuestPte
Kernel::translateGuest(Asid asid, GuestVA va)
{
    vmm::GuestPte out;

    // Kernel direct map: global, supervisor-only, in every address space.
    if (va >= kernelBase) {
        Gpa gpa = va - kernelBase;
        if (pageNumber(gpa) >= frames_.numFrames())
            return out;
        out.gpa = pageBase(gpa);
        out.present = true;
        out.writable = true;
        out.user = false;
        return out;
    }

    auto pit = processes_.find(static_cast<Pid>(asid));
    if (pit == processes_.end())
        return out;
    const Pte* pte = pit->second->as.findPte(pageBase(va));
    if (pte == nullptr || !pte->present)
        return out;
    out.gpa = pte->gpa;
    out.present = true;
    out.writable = pte->writable && !pte->cow;
    out.user = pte->user;
    out.cow = pte->cow;
    return out;
}

void
Kernel::handleGuestPageFault(vmm::Vcpu& vcpu, GuestVA va,
                             vmm::AccessType access)
{
    stats_.inc(kernelStat("page_faults"));
    Asid asid = vcpu.context().asid;
    GuestVA va_page = pageBase(va);

    auto pit = processes_.find(static_cast<Pid>(asid));
    if (pit == processes_.end()) {
        osh_panic("page fault in unknown address space %u va 0x%llx",
                  asid, static_cast<unsigned long long>(va));
    }
    Process& proc = *pit->second;

    // All fault handling runs in kernel mode on the faulting thread.
    KernelModeGuard guard(vcpu);
    Thread* t = threadOf(proc.pid);
    osh_assert(t != nullptr, "fault in process without a thread");

    Vma* vma = proc.as.findVma(va_page);
    if (vma == nullptr) {
        killProcess(proc, formatString("segfault: no mapping at 0x%llx",
                                       static_cast<unsigned long long>(va)));
        return; // not reached for the current process
    }
    if (access == vmm::AccessType::Write && !(vma->prot & protWrite)) {
        killProcess(proc, formatString("segfault: write to read-only "
                                       "mapping at 0x%llx",
                                       static_cast<unsigned long long>(va)));
        return;
    }
    if (access == vmm::AccessType::Read && !(vma->prot & protRead)) {
        killProcess(proc, "segfault: read from PROT_NONE mapping");
        return;
    }

    Pte& pte = proc.as.pte(va_page);

    if (pte.present) {
        if (access == vmm::AccessType::Write && pte.cow) {
            breakCow(proc, va_page, pte);
            return;
        }
        if (access == vmm::AccessType::Write && !pte.writable) {
            // Lazily promote within a writable VMA.
            pte.writable = true;
            vmm_.invalidateVa(proc.as.asid(), va_page);
            return;
        }
        // Present and permitted: the fault was a stale shadow; the VMM
        // retry will succeed.
        return;
    }

    if (pte.swapped) {
        swapIn(proc, va_page, pte, *vma);
        return;
    }

    if (vma->type == VmaType::Anon) {
        Gpa gpa = allocFrameOrEvict(FrameUse::Anon);
        // Zero-fill. A fresh frame may hold stale data from its last
        // owner; zero through raw machine memory (fresh frames are
        // never cloaked plaintext — see cloak teardown invariant).
        vmm_.machine().memory().zeroFrame(vmm_.pmap().translate(gpa));
        vmm_.machine().cost().charge(
            vmm_.machine().cost().params().pageZero, "page_zero");
        FrameInfo& fi = frames_.info(gpa);
        fi.asid = proc.as.asid();
        fi.vaPage = va_page;
        fi.pinned = false;
        addAnonMapping(gpa, proc.as.asid(), va_page);
        pte.gpa = gpa;
        pte.present = true;
        pte.writable = (vma->prot & protWrite) != 0;
        pte.user = true;
        stats_.inc(kernelStat("anon_faults"));
        return;
    }

    // File-backed mapping.
    std::uint64_t page_index =
        (va_page - vma->start + vma->fileOffset) / pageSize;
    PageCacheEntry& entry = ensureCached(vma->inode, page_index);
    entry.mapCount++;
    // Write faults dirty the page immediately; later silent writes
    // through an existing mapping are caught by notifyWrite (the
    // hardware dirty bit).
    if (access == vmm::AccessType::Write)
        entry.dirty = true;
    pte.gpa = entry.gpa;
    pte.present = true;
    pte.writable = (vma->prot & protWrite) != 0 && vma->shared;
    pte.user = true;
    stats_.inc(kernelStat("file_faults"));
}

// ---------------------------------------------------------------------------
// Process lifecycle
// ---------------------------------------------------------------------------

Process&
Kernel::createProcess(const std::string& program,
                      std::vector<std::string> argv, Pid ppid)
{
    Pid pid = nextPid_++;
    auto proc = std::make_unique<Process>(pid, ppid, program);
    proc->argv = std::move(argv);
    const Program* prog = programs_.find(program);
    osh_assert(prog != nullptr, "unknown program '%s'", program.c_str());
    proc->cloaked = prog->cloaked && cloakingAvailable_;
    Process& ref = *proc;
    processes_[pid] = std::move(proc);
    stats_.inc(kernelStat("processes_created"));
    return ref;
}

void
Kernel::setupProcessImage(Process& proc, const Program& program)
{
    // Code region (synthetic: nothing is fetched from it).
    Vma code;
    code.start = codeBase;
    code.end = codeBase + 4 * pageSize;
    code.prot = protRead;
    code.cloaked = proc.cloaked;
    bool ok = proc.as.addVma(code);
    osh_assert(ok, "code VMA collision");

    // Stack.
    Vma stack;
    stack.end = stackTop;
    stack.start = stackTop - program.stackPages * pageSize;
    stack.prot = protRead | protWrite;
    stack.cloaked = proc.cloaked;
    ok = proc.as.addVma(stack);
    osh_assert(ok, "stack VMA collision");
}

void
Kernel::bindThread(Pid pid, Thread& thread)
{
    threads_[pid] = &thread;
}

Thread*
Kernel::threadOf(Pid pid)
{
    auto it = threads_.find(pid);
    return it == threads_.end() ? nullptr : it->second;
}

void
Kernel::killProcess(Process& proc, const std::string& reason)
{
    stats_.inc(kernelStat("kills"));
    Thread* cur = sched_.current();
    if (cur != nullptr && cur->pid == proc.pid) {
        throw vmm::ProcessKilled{proc.pid, reason};
    }
    proc.killRequested = true;
    proc.killReason = reason;
    if (Thread* t = threadOf(proc.pid))
        sched_.wakeThread(*t);
}

void
Kernel::checkKillRequested(Thread& t)
{
    Process* p = findProcess(t.pid);
    if (p != nullptr && p->killRequested)
        throw vmm::ProcessKilled{p->pid, p->killReason};
}

void
Kernel::requestFreeze(Pid pid, std::uint64_t after_entries)
{
    // The thread may not have run (and bound) yet — a request right
    // after launch() is fine; the countdown is keyed by pid.
    osh_assert(findProcess(pid) != nullptr,
               "freeze request for an unknown process");
    freezeRequests_[pid] = after_entries == 0 ? 1 : after_entries;
}

bool
Kernel::isFrozen(Pid pid)
{
    Thread* t = threadOf(pid);
    return t != nullptr && sched_.isFrozen(*t);
}

void
Kernel::thaw(Pid pid)
{
    Thread* t = threadOf(pid);
    osh_assert(t != nullptr && sched_.isFrozen(*t),
               "thaw of a process that is not frozen");
    sched_.resumeFrozen(*t);
}

void
Kernel::checkFreezeRequested(Thread& t)
{
    auto it = freezeRequests_.find(t.pid);
    if (it == freezeRequests_.end())
        return;
    if (--it->second > 0)
        return;
    freezeRequests_.erase(it);
    stats_.inc(kernelStat("freezes"));
    // A checkpoint may walk swap slots while we are parked: every
    // queued eviction must be fully sealed and committed first.
    vmm_.drainAsyncEvictions();
    sched_.freezeCurrent();
    // Thawed: either the checkpoint completed and the source resumes
    // (live-migration rounds), or a kill is pending (source abandon).
    checkKillRequested(t);
}

void
Kernel::releasePte(Process& proc, GuestVA va_page, Pte& pte)
{
    if (pte.present) {
        FrameInfo& fi = frames_.info(pte.gpa);
        if (fi.use == FrameUse::Anon) {
            dropAnonMapping(pte.gpa, proc.as.asid(), va_page);
            frames_.unref(pte.gpa);
        } else if (fi.use == FrameUse::PageCache) {
            if (vfs_.exists(fi.inode)) {
                Inode& ino = vfs_.inode(fi.inode);
                auto cit = ino.cache.find(fi.pageIndex);
                if (cit != ino.cache.end() && cit->second.mapCount > 0)
                    cit->second.mapCount--;
            }
        }
    } else if (pte.swapped) {
        // A pending async eviction may still owe this slot its
        // ciphertext; commit before the slot is scrubbed and reused.
        vmm_.drainAsyncEvictions();
        attackHooks_->onSwapRelease(*this, pte.slot);
        swap_.release(pte.slot);
    }
    pte = Pte{};
}

void
Kernel::teardownAddressSpace(Process& proc)
{
    // Collect VAs first: releasePte mutates shared structures.
    std::vector<GuestVA> vas;
    vas.reserve(proc.as.ptes().size());
    for (auto& [va, pte] : proc.as.ptes())
        vas.push_back(va);
    for (GuestVA va : vas) {
        Pte* pte = proc.as.findPte(va);
        if (pte != nullptr)
            releasePte(proc, va, *pte);
    }
    for (const auto& [start, vma] : proc.as.vmas())
        unpinVmaInode(vma);
    proc.as = AddressSpace(proc.as.asid());
    vmm_.invalidateAsid(proc.as.asid());
}

void
Kernel::exitCurrent(int status)
{
    throw ThreadExit{status};
}

void
Kernel::finalizeExit(Process& proc, int status)
{
    teardownAddressSpace(proc);
    for (auto& slot : proc.fds) {
        if (slot)
            closeFile(proc, slot);
    }
    proc.fds.clear();
    proc.state = ProcState::Zombie;
    proc.exitStatus = status;
    threads_.erase(proc.pid);
    stats_.inc(kernelStat("processes_exited"));

    // Wake a parent blocked in waitpid.
    if (Process* parent = findProcess(proc.ppid))
        sched_.wakeAll(&parent->exitChannel);
}

std::size_t
Kernel::reapOrphanZombies()
{
    osh_assert(sched_.current() == nullptr,
               "reapOrphanZombies while a guest thread is running");
    std::vector<Pid> orphans;
    for (const auto& [pid, p] : processes_) {
        if (p->state != ProcState::Zombie)
            continue;
        const Process* parent = findProcess(p->ppid);
        if (parent == nullptr || parent->state == ProcState::Zombie)
            orphans.push_back(pid);
    }
    for (Pid pid : orphans)
        processes_.erase(pid);
    if (!orphans.empty())
        stats_.inc(kernelStat("zombies_reaped"), orphans.size());
    return orphans.size();
}

Process*
Kernel::findProcess(Pid pid)
{
    auto it = processes_.find(pid);
    return it == processes_.end() ? nullptr : it->second.get();
}

Process&
Kernel::process(Pid pid)
{
    Process* p = findProcess(pid);
    osh_assert(p != nullptr, "no such process %d", pid);
    return *p;
}

Process&
Kernel::currentProcess()
{
    Thread* t = sched_.current();
    osh_assert(t != nullptr, "no current thread");
    return process(t->pid);
}

Thread&
Kernel::currentThread()
{
    Thread* t = sched_.current();
    osh_assert(t != nullptr, "no current thread");
    return *t;
}

std::vector<Pid>
Kernel::pids() const
{
    std::vector<Pid> out;
    out.reserve(processes_.size());
    for (const auto& [pid, p] : processes_)
        out.push_back(pid);
    return out;
}

// ---------------------------------------------------------------------------
// User-memory helpers
// ---------------------------------------------------------------------------

bool
Kernel::validUserRange(Process& proc, GuestVA va, std::uint64_t len,
                       bool write)
{
    if (len == 0)
        return true;
    if (va >= kernelBase || va + len > kernelBase || va + len < va)
        return false;
    GuestVA cur = pageBase(va);
    GuestVA end = va + len;
    while (cur < end) {
        const Vma* vma = proc.as.findVma(cur);
        if (vma == nullptr)
            return false;
        if (write && !(vma->prot & protWrite))
            return false;
        if (!write && !(vma->prot & protRead))
            return false;
        cur = vma->end;
    }
    return true;
}

void
Kernel::copyToUser(Thread& t, GuestVA va, std::span<const std::uint8_t> data)
{
    // Kernel-mode copy through the system view: writing into a cloaked
    // destination transitions the page to ciphertext — which is exactly
    // why the shim marshals through uncloaked buffers.
    KernelModeGuard guard(t.vcpu);
    t.vcpu.writeBytes(va, data);
}

void
Kernel::copyFromUser(Thread& t, GuestVA va, std::span<std::uint8_t> out)
{
    KernelModeGuard guard(t.vcpu);
    t.vcpu.readBytes(va, out);
}

std::optional<std::string>
readPath(vmm::Vcpu& vcpu, GuestVA va)
{
    std::string path = vcpu.readCString(va, maxPathLen + 1);
    if (path.size() > maxPathLen)
        return std::nullopt;
    return path;
}

std::optional<std::string>
Kernel::readUserPath(Thread& t, GuestVA va)
{
    KernelModeGuard guard(t.vcpu);
    return readPath(t.vcpu, va);
}

void
Kernel::readFrameAsKernel(Thread& t, Gpa gpa, std::span<std::uint8_t> out)
{
    osh_assert(out.size() == pageSize, "frame copies are page sized");
    KernelModeGuard guard(t.vcpu);
    t.vcpu.readBytes(kernelVa(pageBase(gpa)), out);
}

void
Kernel::writeFrameAsKernel(Thread& t, Gpa gpa,
                           std::span<const std::uint8_t> data)
{
    osh_assert(data.size() == pageSize, "frame copies are page sized");
    KernelModeGuard guard(t.vcpu);
    t.vcpu.writeBytes(kernelVa(pageBase(gpa)), data);
}

// ---------------------------------------------------------------------------
// Memory management: eviction, swap, page cache, COW
// ---------------------------------------------------------------------------

void
Kernel::addAnonMapping(Gpa gpa, Asid asid, GuestVA va_page)
{
    std::uint64_t frame = pageNumber(gpa);
    if (frame >= anonHeads_.size())
        anonHeads_.resize(frame + 1, noMapper);
    std::uint32_t node = anonFree_;
    if (node != noMapper) {
        anonFree_ = anonMappers_[node].next;
    } else {
        node = static_cast<std::uint32_t>(anonMappers_.size());
        anonMappers_.emplace_back();
    }
    anonMappers_[node] = {asid, va_page, anonHeads_[frame]};
    anonHeads_[frame] = node;
}

void
Kernel::dropAnonMapping(Gpa gpa, Asid asid, GuestVA va_page)
{
    std::uint64_t frame = pageNumber(gpa);
    if (frame >= anonHeads_.size())
        return;
    for (std::uint32_t* link = &anonHeads_[frame]; *link != noMapper;) {
        AnonMapper& m = anonMappers_[*link];
        if (m.asid != asid || m.vaPage != va_page) {
            link = &m.next;
            continue;
        }
        std::uint32_t node = *link;
        *link = m.next;
        m.next = anonFree_;
        anonFree_ = node;
    }
}

const Kernel::AnonMapper*
Kernel::soleAnonMapper(Gpa gpa) const
{
    std::uint64_t frame = pageNumber(gpa);
    if (frame >= anonHeads_.size() || anonHeads_[frame] == noMapper)
        return nullptr;
    const AnonMapper& m = anonMappers_[anonHeads_[frame]];
    return m.next == noMapper ? &m : nullptr;
}

Gpa
Kernel::allocFrameOrEvict(FrameUse use)
{
    for (std::uint64_t attempt = 0;
         attempt < 2 * frames_.numFrames() + 8; ++attempt) {
        if (auto gpa = frames_.allocate(use)) {
            FrameInfo& fi = frames_.info(*gpa);
            fi.pinned = true; // Caller unpins once installed.
            return *gpa;
        }
        if (!evictOneFrame())
            break;
    }
    osh_panic("guest out of memory: %llu frames, none evictable",
              static_cast<unsigned long long>(frames_.numFrames()));
}

bool
Kernel::evictOneFrame()
{
    for (std::uint64_t scanned = 0; scanned < frames_.numFrames();
         ++scanned) {
        auto cand = frames_.nextEvictionCandidate();
        if (!cand)
            return false;
        Gpa gpa = *cand;
        FrameInfo& fi = frames_.info(gpa);
        if (fi.pinned || fi.refCount > 1)
            continue;
        if (fi.use == FrameUse::Anon) {
            if (soleAnonMapper(gpa) == nullptr)
                continue;
            swapOutAnon(gpa);
            stats_.inc(kernelStat("evicted_anon"));
            return true;
        }
        if (fi.use == FrameUse::PageCache) {
            if (!vfs_.exists(fi.inode))
                continue;
            Inode& ino = vfs_.inode(fi.inode);
            auto cit = ino.cache.find(fi.pageIndex);
            if (cit == ino.cache.end() || cit->second.mapCount > 0)
                continue;
            if (cit->second.dirty)
                writebackPage(ino, fi.pageIndex);
            dropPageCachePage(ino, fi.pageIndex);
            stats_.inc(kernelStat("evicted_pagecache"));
            return true;
        }
    }
    return false;
}

bool
Kernel::forceSwapOut(Pid pid, GuestVA va_page)
{
    Process* proc = findProcess(pid);
    if (proc == nullptr)
        return false;
    Pte* pte = proc->as.findPte(pageBase(va_page));
    if (pte == nullptr || !pte->present)
        return false;
    Gpa gpa = pageBase(pte->gpa);
    FrameInfo& fi = frames_.info(gpa);
    if (fi.use != FrameUse::Anon || fi.pinned || fi.refCount > 1)
        return false;
    if (soleAnonMapper(gpa) == nullptr)
        return false;
    swapOutAnon(gpa);
    stats_.inc(kernelStat("forced_swap_outs"));
    return true;
}

void
Kernel::swapOutAnon(Gpa gpa)
{
    OSH_TRACE_SCOPE(&vmm_.machine().tracer(), trace::Category::Swap,
                    "swap_out", systemDomain, 0, gpa);
    const AnonMapper* mapper = soleAnonMapper(gpa);
    osh_assert(mapper != nullptr, "swapOutAnon of shared/unmapped frame");
    const Asid asid = mapper->asid;
    const GuestVA va_page = mapper->vaPage;
    Process& proc = process(static_cast<Pid>(asid));
    Pte* pte = proc.as.findPte(va_page);
    osh_assert(pte != nullptr && pte->present && pageBase(pte->gpa) == gpa,
               "anon mapper out of sync");

    auto slot = swap_.allocate();
    osh_assert(slot.has_value(), "swap device full");

    std::uint64_t replay_key =
        (std::uint64_t{asid} << 40) | pageNumber(va_page);

    // Async pipeline: for a cloaked plaintext victim, the engine seals
    // into a staging buffer and hands the scrubbed frame back now; the
    // swap-slot write (and the hostile-kernel swap hooks, which must
    // only ever see sealed ciphertext) run when the entry retires.
    bool async_queued = vmm_.cloakBackend().evictPageAsync(
        gpa, *this, *slot, replay_key);
    if (async_queued) {
        stats_.inc(kernelStat("async_swap_outs"));
    } else {
        // Synchronous path (async disabled, or an uncloaked frame).
        // Read the victim frame through the kernel view. If it holds a
        // cloaked plaintext page the cloak engine encrypts it first —
        // so what reaches the swap device is ciphertext.
        std::array<std::uint8_t, pageSize> buf;
        readFrameAsKernel(currentThread(), gpa, buf);
        swap_.writeSlot(*slot, buf);
        attackHooks_->onSwapOut(*this, *slot, replay_key);
    }

    pte->present = false;
    pte->swapped = true;
    pte->slot = *slot;
    pte->gpa = badAddr;
    dropAnonMapping(gpa, asid, va_page);
    frames_.unref(gpa);
    vmm_.invalidateVa(asid, va_page);
}

void
Kernel::commitEviction(std::uint64_t slot, std::uint64_t replay_key,
                       std::span<const std::uint8_t> sealed)
{
    swap_.writeSlotPrepaid(slot, sealed);
    attackHooks_->onSwapOut(*this, slot, replay_key);
}

void
Kernel::swapIn(Process& proc, GuestVA va_page, Pte& pte, const Vma& vma)
{
    OSH_TRACE_SCOPE(&vmm_.machine().tracer(), trace::Category::Swap,
                    "swap_in", systemDomain, proc.pid, va_page);
    osh_assert(pte.swapped, "swapIn of non-swapped page");
    SwapSlot slot = pte.slot;

    // The slot's ciphertext may still be in flight in the async
    // eviction queue; swap-in must observe fully sealed contents.
    vmm_.drainAsyncEvictions();

    std::array<std::uint8_t, pageSize> buf;
    swap_.readSlot(slot, buf);

    std::uint64_t replay_key =
        (std::uint64_t{proc.as.asid()} << 40) | pageNumber(va_page);
    attackHooks_->onSwapIn(*this, slot, replay_key, buf);

    Gpa gpa = allocFrameOrEvict(FrameUse::Anon);
    writeFrameAsKernel(currentThread(), gpa, buf);

    FrameInfo& fi = frames_.info(gpa);
    fi.asid = proc.as.asid();
    fi.vaPage = va_page;
    fi.pinned = false;
    addAnonMapping(gpa, proc.as.asid(), va_page);

    pte.gpa = gpa;
    pte.present = true;
    pte.swapped = false;
    pte.writable = (vma.prot & protWrite) != 0 && !pte.cow;
    attackHooks_->onSwapRelease(*this, slot);
    swap_.release(slot);
    stats_.inc(kernelStat("swap_ins"));
}

void
Kernel::notifyWrite(Asid asid, GuestVA va_page)
{
    auto pit = processes_.find(static_cast<Pid>(asid));
    if (pit == processes_.end())
        return;
    Pte* pte = pit->second->as.findPte(pageBase(va_page));
    if (pte == nullptr || !pte->present)
        return;
    FrameInfo& fi = frames_.info(pte->gpa);
    if (fi.use != FrameUse::PageCache || !vfs_.exists(fi.inode))
        return;
    auto cit = vfs_.inode(fi.inode).cache.find(fi.pageIndex);
    if (cit != vfs_.inode(fi.inode).cache.end())
        cit->second.dirty = true;
}

void
Kernel::writebackPage(Inode& ino, std::uint64_t page_index,
                      bool charge_seek)
{
    OSH_TRACE_SCOPE(&vmm_.machine().tracer(), trace::Category::Vfs,
                    "writeback", systemDomain, 0, ino.id, page_index);
    auto cit = ino.cache.find(page_index);
    osh_assert(cit != ino.cache.end(), "writeback of uncached page");
    std::array<std::uint8_t, pageSize> buf;
    // Through the kernel view: cloaked file pages hit the disk as
    // ciphertext (the cloak engine seals a plaintext frame on access).
    readFrameAsKernel(currentThread(), cit->second.gpa, buf);

    std::uint64_t off = page_index * pageSize;
    std::uint64_t needed = off + pageSize;
    if (ino.diskData.size() < needed)
        ino.diskData.resize(needed, 0);
    std::memcpy(ino.diskData.data() + off, buf.data(), pageSize);
    auto& cost = vmm_.machine().cost();
    cost.charge((charge_seek ? cost.params().diskAccess : 0) +
                cost.params().diskPerByte * pageSize,
                "file_writeback");
    cit->second.dirty = false;
    stats_.inc(kernelStat("writebacks"));
}

void
Kernel::dropPageCachePage(Inode& ino, std::uint64_t page_index)
{
    auto cit = ino.cache.find(page_index);
    osh_assert(cit != ino.cache.end(), "drop of uncached page");
    osh_assert(cit->second.mapCount == 0, "drop of mapped page");
    frames_.unref(cit->second.gpa);
    ino.cache.erase(cit);
}

void
Kernel::reapInode(InodeId id)
{
    for (const PageCacheEntry& e : vfs_.reapIfUnreferenced(id))
        frames_.unref(e.gpa);
}

void
Kernel::pinVmaInode(const Vma& vma)
{
    if (vma.type == VmaType::File)
        vfs_.inode(vma.inode).vmaCount++;
}

void
Kernel::unpinVmaInode(const Vma& vma)
{
    if (vma.type != VmaType::File)
        return;
    Inode& ino = vfs_.inode(vma.inode);
    osh_assert(ino.vmaCount > 0, "vmaCount underflow");
    ino.vmaCount--;
    reapInode(vma.inode);
}

PageCacheEntry&
Kernel::ensureCached(InodeId ino_id, std::uint64_t page_index)
{
    Inode& ino = vfs_.inode(ino_id);
    auto cit = ino.cache.find(page_index);
    if (cit != ino.cache.end())
        return cit->second;

    OSH_TRACE_SCOPE(&vmm_.machine().tracer(), trace::Category::Vfs,
                    "page_cache_fill", systemDomain, 0, ino_id,
                    page_index);
    Gpa gpa = allocFrameOrEvict(FrameUse::PageCache);
    auto& cost = vmm_.machine().cost();

    // Populate from the disk image (zero-fill past EOF / sparse areas).
    std::array<std::uint8_t, pageSize> buf{};
    std::uint64_t off = page_index * pageSize;
    // Re-fetch the inode: eviction during allocation may have reshaped
    // the cache map (but never the inode object itself).
    Inode& ino2 = vfs_.inode(ino_id);
    if (off < ino2.diskData.size()) {
        std::size_t n = std::min<std::size_t>(pageSize,
                                              ino2.diskData.size() - off);
        std::memcpy(buf.data(), ino2.diskData.data() + off, n);
        cost.charge(cost.params().diskAccess +
                    cost.params().diskPerByte * pageSize,
                    "file_readin");
    } else {
        cost.charge(cost.params().pageZero, "page_zero");
    }
    writeFrameAsKernel(currentThread(), gpa, buf);

    FrameInfo& fi = frames_.info(gpa);
    fi.inode = ino_id;
    fi.pageIndex = page_index;
    fi.pinned = false;

    auto [it, inserted] = ino2.cache.emplace(page_index, PageCacheEntry{});
    osh_assert(inserted, "cache entry appeared concurrently");
    it->second.gpa = gpa;
    it->second.dirty = false;
    it->second.mapCount = 0;
    stats_.inc(kernelStat("pagecache_fills"));
    return it->second;
}

void
Kernel::breakCow(Process& proc, GuestVA va_page, Pte& pte)
{
    osh_assert(pte.present && pte.cow, "breakCow on non-COW page");
    Gpa old_gpa = pageBase(pte.gpa);
    FrameInfo& fi = frames_.info(old_gpa);
    stats_.inc(kernelStat("cow_breaks"));

    if (fi.refCount == 1) {
        // Last sharer: take exclusive ownership.
        pte.cow = false;
        pte.writable = true;
        vmm_.invalidateVa(proc.as.asid(), va_page);
        return;
    }

    Gpa new_gpa = allocFrameOrEvict(FrameUse::Anon);
    std::array<std::uint8_t, pageSize> buf;
    Thread& t = currentThread();
    readFrameAsKernel(t, old_gpa, buf);
    writeFrameAsKernel(t, new_gpa, buf);
    auto& cost = vmm_.machine().cost();
    cost.charge(cost.params().pageCopy, "cow_copy");

    FrameInfo& nfi = frames_.info(new_gpa);
    nfi.asid = proc.as.asid();
    nfi.vaPage = va_page;
    nfi.pinned = false;
    addAnonMapping(new_gpa, proc.as.asid(), va_page);

    dropAnonMapping(old_gpa, proc.as.asid(), va_page);
    frames_.unref(old_gpa);

    pte.gpa = new_gpa;
    pte.cow = false;
    pte.writable = true;
    vmm_.invalidateVa(proc.as.asid(), va_page);
}

} // namespace osh::os
