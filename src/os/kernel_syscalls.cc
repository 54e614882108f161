/**
 * @file
 * System-call implementations. See kernel.hh for the kernel core.
 */

#include "base/bytes.hh"
#include "base/logging.hh"
#include "os/kernel.hh"
#include "os/layout.hh"
#include "vmm/vcpu.hh"

#include <array>
#include <cstring>

namespace osh::os
{

std::int64_t
Kernel::syscallEntry(Thread& t)
{
    auto& cost = vmm_.machine().cost();
    cost.charge(cost.params().syscallTrap, "syscall");

    KernelModeGuard guard(t.vcpu);
    checkKillRequested(t);
    checkFreezeRequested(t);
    // Trap boundary: retire in-flight async evictions so every syscall
    // (and its attack hooks) observes fully sealed swap contents.
    vmm_.drainAsyncEvictions();

    auto& regs = t.vcpu.regs();
    OSH_TRACE_SCOPE(&vmm_.machine().tracer(), trace::Category::Syscall,
                    sysName(static_cast<Sys>(regs.gpr[0])),
                    t.vcpu.context().view, t.pid, regs.gpr[0],
                    regs.gpr[1]);
    attackHooks_->onSyscallEntry(*this, t);

    Sys num = static_cast<Sys>(regs.gpr[0]);
    SyscallArgs args{regs.gpr[1], regs.gpr[2], regs.gpr[3], regs.gpr[4],
                     regs.gpr[5]};

    std::int64_t result = dispatchSyscall(t, num, args[0], args[1],
                                          args[2], args[3], args[4]);
    attackHooks_->onSyscallReturn(*this, t, num, args, result);

    regs.gpr[0] = static_cast<std::uint64_t>(result);
    maybeDeliverSignal(t);
    cost.charge(cost.params().syscallReturn);
    return result;
}

std::int64_t
Kernel::dispatchSyscall(Thread& t, Sys num, std::uint64_t a1,
                        std::uint64_t a2, std::uint64_t a3,
                        std::uint64_t a4, std::uint64_t a5)
{
    auto& cost = vmm_.machine().cost();
    std::int64_t result;
    switch (num) {
      case Sys::Exit:
        result = sysExit(t, static_cast<std::int64_t>(a1));
        break;
      case Sys::GetPid:
        result = currentProcess().pid;
        break;
      case Sys::GetPpid:
        result = currentProcess().ppid;
        break;
      case Sys::Yield:
        sched_.yield();
        result = 0;
        break;
      case Sys::Clock:
        // Through the virtualized clock: with timing hardening off
        // this IS the raw counter, bit for bit; with it on each
        // address space sees its own offset + fuzzed view.
        result = static_cast<std::int64_t>(
            vmm_.readTsc(currentProcess().as.asid()));
        break;
      case Sys::Sleep:
        // The argument is attacker-controlled guest input: charging it
        // unvalidated lets one call wedge the simulated clock (or wrap
        // it outright near UINT64_MAX).
        if (a1 > maxSleepCycles) {
            result = -errInval;
            break;
        }
        cost.charge(a1, "sleep");
        sched_.yield();
        result = 0;
        break;
      case Sys::Mmap:
        result = sysMmap(t, a1, a2, a3, a4, a5);
        break;
      case Sys::Munmap:
        result = sysMunmap(t, a1);
        break;
      case Sys::Open:
        result = sysOpen(t, a1, a2);
        break;
      case Sys::Close:
        result = sysClose(t, a1);
        break;
      case Sys::Read:
      case Sys::Write:
        result = sysTransfer(t, num, a1, a2, a3, 0);
        break;
      case Sys::Lseek:
        result = sysLseek(t, a1, static_cast<std::int64_t>(a2), a3);
        break;
      case Sys::Fstat:
        result = sysFstat(t, a1, a2);
        break;
      case Sys::Unlink:
        {
            // Files and empty directories alike: the inode goes now if
            // this was its last reference, else at the last close or
            // munmap.
            std::optional<std::string> path = readUserPath(t, a1);
            if (!path) {
                result = -errNameTooLong;
                break;
            }
            std::int64_t id = vfs_.lookup(*path);
            result = vfs_.unlink(*path);
            if (result == 0)
                reapInode(static_cast<InodeId>(id));
        }
        break;
      case Sys::Mkdir:
        {
            std::optional<std::string> path = readUserPath(t, a1);
            if (!path) {
                result = -errNameTooLong;
                break;
            }
            std::int64_t r = vfs_.create(*path, InodeType::Directory);
            result = r < 0 ? r : 0;
        }
        break;
      case Sys::ReadDir:
        result = sysReadDir(t, a1, a2, a3, a4);
        break;
      case Sys::Ftruncate:
        result = sysFtruncate(t, a1, a2);
        break;
      case Sys::Fsync:
        result = sysFsync(t, a1);
        break;
      case Sys::Rename:
        {
            std::optional<std::string> from = readUserPath(t, a1);
            std::optional<std::string> to = readUserPath(t, a2);
            result = from && to ? vfs_.rename(*from, *to)
                                : -errNameTooLong;
        }
        break;
      case Sys::Pipe:
        result = sysPipe(t, a1);
        break;
      case Sys::Dup:
        result = sysDup(t, a1);
        break;
      case Sys::Pread:
      case Sys::Pwrite:
        result = sysTransfer(t, num, a1, a2, a3, a4);
        break;
      case Sys::Dup2:
        result = sysDup2(t, a1, a2);
        break;
      case Sys::SubmitBatch:
        result = sysSubmitBatch(t, a1, a2, a3);
        break;
      case Sys::Spawn:
        result = sysSpawn(t, a1, a2, a3);
        break;
      case Sys::Fork:
        result = sysFork(t);
        break;
      case Sys::Exec:
        result = sysExec(t, a1, a2, a3);
        break;
      case Sys::WaitPid:
        result = sysWaitPid(t, static_cast<std::int64_t>(a1), a2);
        break;
      case Sys::Kill:
        result = sysKill(t, static_cast<std::int64_t>(a1), a2);
        break;
      case Sys::SigAction:
        result = sysSigAction(t, a1, a2);
        break;
      case Sys::SigPending:
        result = static_cast<std::int64_t>(
            currentProcess().pendingSignals);
        break;
      case Sys::VmaQuery:
        result = sysVmaQuery(t, a1, a2);
        break;
      default:
        result = -errNoSys;
        break;
    }
    return result;
}

/**
 * The batch whitelist: calls with simple register/buffer semantics
 * whose handlers neither replace the process image nor juggle the
 * scheduler in ways that assume a fresh trap frame per call. Anything
 * else completes as -errInval without being dispatched.
 */
bool
Kernel::batchable(Sys num)
{
    switch (num) {
      case Sys::GetPid:
      case Sys::GetPpid:
      case Sys::Yield:
      case Sys::Clock:
      case Sys::Read:
      case Sys::Write:
      case Sys::Pread:
      case Sys::Pwrite:
      case Sys::Lseek:
      case Sys::Fstat:
      case Sys::Dup:
      case Sys::Dup2:
      case Sys::Close:
      case Sys::Ftruncate:
      case Sys::Fsync:
        return true;
      default:
        return false;
    }
}

void
Kernel::timerTick(Thread& t)
{
    KernelModeGuard guard(t.vcpu);
    checkKillRequested(t);
    checkFreezeRequested(t);
    // Trap boundary: same drain barrier as syscallEntry.
    vmm_.drainAsyncEvictions();
    maybeDeliverSignal(t);
    sched_.preempt();
}

void
Kernel::maybeDeliverSignal(Thread& t)
{
    Process& p = currentProcess();
    if (p.pendingSignals == 0 || t.deliverSignal >= 0)
        return;
    for (int sig = 0; sig < numSignals; ++sig) {
        if (!(p.pendingSignals & (1u << sig)))
            continue;
        p.pendingSignals &= ~(1u << sig);
        if (p.signals[static_cast<std::size_t>(sig)].handled) {
            t.deliverSignal = sig;
            t.deliverSignalToken =
                p.signals[static_cast<std::size_t>(sig)].token;
            stats_.inc(kernelStat("signals_delivered"));
            return;
        }
        // Default action: terminate.
        killProcess(p, formatString("killed by signal %d", sig));
    }
}

std::int64_t
Kernel::sysExit(Thread&, std::int64_t status)
{
    exitCurrent(static_cast<int>(status));
}

std::int64_t
Kernel::sysMmap(Thread&, std::uint64_t len, std::uint64_t prot,
                std::uint64_t flags, std::uint64_t fd, std::uint64_t offset)
{
    Process& p = currentProcess();
    if (len == 0)
        return -errInval;
    // Not roundUpToPage(len): that wraps to 0 for len near 2^64.
    std::uint64_t pages = len / pageSize + (pageOffset(len) != 0 ? 1 : 0);

    Vma vma;
    vma.prot = prot;
    vma.cloaked = (flags & mapCloaked) != 0;
    vma.shared = (flags & mapShared) != 0;

    if (flags & mapAnon) {
        vma.type = VmaType::Anon;
    } else {
        if (pageOffset(offset) != 0)
            return -errInval;
        OpenFile* f = p.fd(fd);
        if (f == nullptr || f->kind != OpenFile::Kind::File)
            return -errBadF;
        if (vfs_.inode(f->inode).isDir())
            return -errIsDir;
        vma.type = VmaType::File;
        vma.shared = true; // Only shared file mappings are supported.
        vma.inode = f->inode;
        vma.fileOffset = offset;
    }
    GuestVA va = p.as.allocVma(vma, pages);
    if (va == 0)
        return -errNoMem;
    pinVmaInode(vma);
    stats_.inc(kernelStat("mmaps"));
    return static_cast<std::int64_t>(va);
}

std::int64_t
Kernel::sysMunmap(Thread&, GuestVA va)
{
    Process& p = currentProcess();
    std::vector<Pte> dropped;
    std::vector<GuestVA> dropped_vas;
    auto vma = p.as.removeVma(va, dropped, dropped_vas);
    if (!vma)
        return -errInval;
    for (std::size_t i = 0; i < dropped.size(); ++i) {
        Pte pte = dropped[i];
        releasePte(p, dropped_vas[i], pte);
        vmm_.invalidateVa(p.as.asid(), dropped_vas[i]);
    }
    unpinVmaInode(*vma);
    stats_.inc(kernelStat("munmaps"));
    return 0;
}

std::int64_t
Kernel::sysOpen(Thread& t, GuestVA path_va, std::uint64_t flags)
{
    Process& p = currentProcess();
    std::optional<std::string> read = readUserPath(t, path_va);
    if (!read)
        return -errNameTooLong;
    const std::string& path = *read;

    std::int64_t id = vfs_.lookup(path);
    if (id < 0) {
        if (!(flags & openCreate))
            return id;
        id = vfs_.create(path, InodeType::File);
        if (id < 0)
            return id;
    }
    Inode& ino = vfs_.inode(static_cast<InodeId>(id));
    if (ino.isDir() && (flags & (openWrite | openTrunc)))
        return -errIsDir;
    if (flags & openTrunc) {
        ino.size = 0;
        ino.diskData.clear();
        // Drop clean unmapped cache pages; keep mapped ones alive.
        for (auto it = ino.cache.begin(); it != ino.cache.end();) {
            if (it->second.mapCount == 0) {
                frames_.unref(it->second.gpa);
                it = ino.cache.erase(it);
            } else {
                ++it;
            }
        }
    }

    auto file = std::make_shared<OpenFile>();
    file->kind = OpenFile::Kind::File;
    file->inode = ino.id;
    file->flags = flags;
    ino.openCount++;
    stats_.inc(kernelStat("opens"));
    return p.allocFd(std::move(file));
}

void
Kernel::closeFile(Process&, std::shared_ptr<OpenFile>& slot)
{
    std::shared_ptr<OpenFile> f = std::move(slot);
    slot.reset();
    // Release the underlying object only when the last descriptor
    // referencing it (across dup and fork) goes away.
    if (f.use_count() > 1)
        return;
    if (f->kind == OpenFile::Kind::File) {
        Inode& ino = vfs_.inode(f->inode);
        osh_assert(ino.openCount > 0, "openCount underflow");
        ino.openCount--;
        reapInode(f->inode);
    } else if (f->pipe) {
        if (f->kind == OpenFile::Kind::PipeRead)
            f->pipe->readers--;
        else
            f->pipe->writers--;
        sched_.wakeAll(&f->pipe->readChannel);
        sched_.wakeAll(&f->pipe->writeChannel);
    }
}

std::int64_t
Kernel::sysClose(Thread&, std::uint64_t fd)
{
    Process& p = currentProcess();
    if (fd >= p.fds.size() || !p.fds[fd])
        return -errBadF;
    closeFile(p, p.fds[fd]);
    return 0;
}

std::int64_t
Kernel::pipeRead(Thread& t, OpenFile& f, GuestVA buf, std::uint64_t len)
{
    Pipe& pipe = *f.pipe;
    if (len == 0)
        return 0; // POSIX: zero-length reads never block.
    for (;;) {
        checkKillRequested(t);
        if (!pipe.buffer.empty())
            break;
        if (pipe.writers == 0)
            return 0; // EOF
        sched_.block(&pipe.readChannel);
    }
    std::size_t n = std::min<std::size_t>(len, pipe.buffer.size());
    std::vector<std::uint8_t> tmp(n);
    for (std::size_t i = 0; i < n; ++i) {
        tmp[i] = pipe.buffer.front();
        pipe.buffer.pop_front();
    }
    copyToUser(t, buf, tmp);
    sched_.wakeAll(&pipe.writeChannel);
    return static_cast<std::int64_t>(n);
}

std::int64_t
Kernel::pipeWrite(Thread& t, OpenFile& f, GuestVA buf, std::uint64_t len)
{
    Pipe& pipe = *f.pipe;
    std::vector<std::uint8_t> tmp(len);
    copyFromUser(t, buf, tmp);
    std::size_t written = 0;
    while (written < len) {
        checkKillRequested(t);
        if (pipe.readers == 0)
            return -errPipe;
        if (pipe.buffer.size() >= pipe.capacity) {
            sched_.block(&pipe.writeChannel);
            continue;
        }
        std::size_t room = pipe.capacity - pipe.buffer.size();
        std::size_t n = std::min(room, len - written);
        for (std::size_t i = 0; i < n; ++i)
            pipe.buffer.push_back(tmp[written + i]);
        written += n;
        sched_.wakeAll(&pipe.readChannel);
    }
    return static_cast<std::int64_t>(written);
}

std::int64_t
Kernel::readAt(Thread& t, Inode& ino, std::uint64_t off, GuestVA buf,
               std::uint64_t len)
{
    if (ino.isDir())
        return -errIsDir;
    if (off >= ino.size || len == 0)
        return 0;
    std::uint64_t n = std::min<std::uint64_t>(len, ino.size - off);

    std::uint64_t done = 0;
    std::array<std::uint8_t, pageSize> tmp;
    while (done < n) {
        std::uint64_t pos = off + done;
        std::uint64_t in_page =
            std::min<std::uint64_t>(n - done, pageSize - pageOffset(pos));
        PageCacheEntry& e = ensureCached(ino.id, pageNumber(pos));
        {
            KernelModeGuard guard(t.vcpu);
            t.vcpu.readBytes(kernelVa(e.gpa) + pageOffset(pos),
                             std::span<std::uint8_t>(tmp.data(), in_page));
        }
        copyToUser(t, buf + done,
                   std::span<const std::uint8_t>(tmp.data(), in_page));
        done += in_page;
    }
    attackHooks_->onReadReturn(*this, t, buf, n);
    return static_cast<std::int64_t>(n);
}

std::int64_t
Kernel::writeAt(Thread& t, Inode& ino, std::uint64_t off, GuestVA buf,
                std::uint64_t len)
{
    if (ino.isDir())
        return -errIsDir;
    if (len == 0)
        return 0; // POSIX: nothing to write, and the size stays put.
    if (!fileEndFits(off, len))
        return -errFBig;

    std::uint64_t done = 0;
    std::array<std::uint8_t, pageSize> tmp;
    while (done < len) {
        std::uint64_t pos = off + done;
        std::uint64_t in_page =
            std::min<std::uint64_t>(len - done, pageSize - pageOffset(pos));
        copyFromUser(t, buf + done,
                     std::span<std::uint8_t>(tmp.data(), in_page));
        PageCacheEntry& e = ensureCached(ino.id, pageNumber(pos));
        {
            KernelModeGuard guard(t.vcpu);
            t.vcpu.writeBytes(
                kernelVa(e.gpa) + pageOffset(pos),
                std::span<const std::uint8_t>(tmp.data(), in_page));
        }
        e.dirty = true;
        done += in_page;
    }
    ino.size = std::max(ino.size, off + len);
    return static_cast<std::int64_t>(len);
}

std::int64_t
Kernel::sysTransfer(Thread& t, Sys num, std::uint64_t fd, GuestVA buf,
                    std::uint64_t len, std::uint64_t off)
{
    // The checks run in one order for all four calls: EBADF, ESPIPE
    // (positional calls only: a pipe has no offset), EFAULT, pipe
    // routing, then EPERM for writes. Only pread/pwrite take @p off;
    // read/write use and advance the descriptor's cursor.
    const bool in = transfersIn(num);
    const bool positional = isPositional(num);
    Process& p = currentProcess();
    OpenFile* f = p.fd(fd);
    if (f == nullptr)
        return -errBadF;
    if (positional && f->kind != OpenFile::Kind::File)
        return -errSPipe;
    if (len > 0 && !validUserRange(p, buf, len, in))
        return -errFault;
    if (f->kind == OpenFile::Kind::PipeRead)
        return in ? pipeRead(t, *f, buf, len) : -errBadF;
    if (f->kind == OpenFile::Kind::PipeWrite)
        return in ? -errBadF : pipeWrite(t, *f, buf, len);
    if (!in && !(f->flags & openWrite))
        return -errPerm;

    Inode& ino = vfs_.inode(f->inode);
    std::uint64_t at = positional ? off : f->offset;
    std::int64_t n = in ? readAt(t, ino, at, buf, len)
                        : writeAt(t, ino, at, buf, len);
    // A read counts when it moved data, a write when it succeeded.
    if (in ? n > 0 : n >= 0) {
        if (!positional)
            f->offset += static_cast<std::uint64_t>(n);
        stats_.inc(positional ? (in ? kernelStat("file_preads")
                                    : kernelStat("file_pwrites"))
                              : (in ? kernelStat("file_reads")
                                    : kernelStat("file_writes")));
    }
    return n;
}

std::int64_t
Kernel::sysLseek(Thread&, std::uint64_t fd, std::int64_t off,
                 std::uint64_t whence)
{
    Process& p = currentProcess();
    OpenFile* f = p.fd(fd);
    if (f == nullptr)
        return -errBadF;
    if (f->kind != OpenFile::Kind::File)
        return -errSPipe;
    Inode& ino = vfs_.inode(f->inode);
    std::int64_t base;
    switch (whence) {
      case seekSet: base = 0; break;
      case seekCur: base = static_cast<std::int64_t>(f->offset); break;
      case seekEnd: base = static_cast<std::int64_t>(ino.size); break;
      default: return -errInval;
    }
    std::int64_t target = base + off;
    if (target < 0)
        return -errInval;
    f->offset = static_cast<std::uint64_t>(target);
    return target;
}

std::int64_t
Kernel::sysFstat(Thread& t, std::uint64_t fd, GuestVA out_va)
{
    Process& p = currentProcess();
    OpenFile* f = p.fd(fd);
    if (f == nullptr)
        return -errBadF;
    StatBuf sb{};
    if (f->kind == OpenFile::Kind::File) {
        Inode& ino = vfs_.inode(f->inode);
        sb.size = ino.size;
        sb.isDir = ino.isDir() ? 1 : 0;
        sb.inode = static_cast<std::uint32_t>(ino.id);
    }
    // Value-initialize: if the struct ever grows padding, the copy to
    // user memory must never carry uninitialized kernel-stack bytes.
    std::array<std::uint8_t, sizeof(StatBuf)> raw{};
    std::memcpy(raw.data(), &sb, sizeof(sb));
    if (!validUserRange(p, out_va, sizeof(sb), true))
        return -errFault;
    copyToUser(t, out_va, raw);
    return 0;
}

std::int64_t
Kernel::sysReadDir(Thread& t, std::uint64_t fd, std::uint64_t index,
                   GuestVA buf, std::uint64_t buf_len)
{
    Process& p = currentProcess();
    OpenFile* f = p.fd(fd);
    if (f == nullptr || f->kind != OpenFile::Kind::File)
        return -errBadF;
    std::string name;
    std::int64_t r = vfs_.dirEntry(f->inode, index, name);
    if (r < 0)
        return r;
    if (buf_len == 0 || !validUserRange(p, buf, buf_len, true))
        return -errFault;
    std::size_t n = std::min<std::size_t>(name.size(), buf_len - 1);
    std::vector<std::uint8_t> out(n + 1, 0);
    std::memcpy(out.data(), name.data(), n);
    copyToUser(t, buf, out);
    return static_cast<std::int64_t>(n);
}

std::int64_t
Kernel::sysFtruncate(Thread&, std::uint64_t fd, std::uint64_t size)
{
    Process& p = currentProcess();
    OpenFile* f = p.fd(fd);
    if (f == nullptr || f->kind != OpenFile::Kind::File)
        return -errBadF;
    Inode& ino = vfs_.inode(f->inode);
    if (ino.isDir())
        return -errIsDir;
    if (!fileEndFits(size, 0))
        return -errFBig;
    ino.size = size;
    if (ino.diskData.size() > size)
        ino.diskData.resize(size);
    std::uint64_t first_dead_page = pageNumber(roundUpToPage(size));
    for (auto it = ino.cache.begin(); it != ino.cache.end();) {
        if (it->first >= first_dead_page && it->second.mapCount == 0) {
            frames_.unref(it->second.gpa);
            it = ino.cache.erase(it);
        } else {
            ++it;
        }
    }
    return 0;
}

std::int64_t
Kernel::sysFsync(Thread& t, std::uint64_t fd)
{
    // Durability barrier: everything queued for eviction must be on
    // its device before fsync's own writeback is ordered behind it.
    vmm_.drainAsyncEvictions();
    Process& p = currentProcess();
    OpenFile* f = p.fd(fd);
    if (f == nullptr || f->kind != OpenFile::Kind::File)
        return -errBadF;
    Inode& ino = vfs_.inode(f->inode);
    std::vector<std::uint64_t> dirty;
    for (auto& [idx, e] : ino.cache)
        if (e.dirty)
            dirty.push_back(idx);
    // Write back: one seek, then streaming.
    bool first = true;
    for (std::uint64_t idx : dirty) {
        writebackPage(ino, idx, first);
        first = false;
    }
    attackHooks_->onFsync(*this, t, ino.id);
    stats_.inc(kernelStat("fsyncs"));
    return 0;
}

std::int64_t
Kernel::sysPipe(Thread& t, GuestVA fds_out)
{
    Process& p = currentProcess();
    if (!validUserRange(p, fds_out, 8, true))
        return -errFault;
    auto pipe = std::make_shared<Pipe>();
    pipe->readers = 1;
    pipe->writers = 1;

    auto rf = std::make_shared<OpenFile>();
    rf->kind = OpenFile::Kind::PipeRead;
    rf->pipe = pipe;
    auto wf = std::make_shared<OpenFile>();
    wf->kind = OpenFile::Kind::PipeWrite;
    wf->pipe = pipe;

    int rfd = p.allocFd(std::move(rf));
    int wfd = p.allocFd(std::move(wf));

    std::array<std::uint8_t, 8> out;
    storeLe32(out.data(), static_cast<std::uint32_t>(rfd));
    storeLe32(out.data() + 4, static_cast<std::uint32_t>(wfd));
    copyToUser(t, fds_out, out);
    stats_.inc(kernelStat("pipes_created"));
    return 0;
}

std::int64_t
Kernel::sysDup(Thread&, std::uint64_t fd)
{
    Process& p = currentProcess();
    if (fd >= p.fds.size() || !p.fds[fd])
        return -errBadF;
    return p.allocFd(p.fds[fd]);
}

std::int64_t
Kernel::sysDup2(Thread&, std::uint64_t oldfd, std::uint64_t newfd)
{
    constexpr std::uint64_t maxFds = 256;
    Process& p = currentProcess();
    if (oldfd >= p.fds.size() || !p.fds[oldfd])
        return -errBadF;
    if (newfd >= maxFds)
        return -errBadF;
    if (oldfd == newfd)
        return static_cast<std::int64_t>(newfd);
    if (newfd < p.fds.size() && p.fds[newfd])
        closeFile(p, p.fds[newfd]);
    if (newfd >= p.fds.size())
        p.fds.resize(newfd + 1);
    p.fds[newfd] = p.fds[oldfd];
    return static_cast<std::int64_t>(newfd);
}

std::int64_t
Kernel::sysSubmitBatch(Thread& t, GuestVA sub_va, GuestVA comp_va,
                       std::uint64_t count)
{
    Process& p = currentProcess();
    if (count == 0 || count > maxBatchDepth)
        return -errInval;
    const std::uint64_t sub_bytes = count * batchDescBytes;
    const std::uint64_t comp_bytes = count * batchCompBytes;
    if (!validUserRange(p, sub_va, sub_bytes, false))
        return -errFault;
    if (!validUserRange(p, comp_va, comp_bytes, true))
        return -errFault;

    // The hostile-kernel window on the submission side: the ring still
    // lives in user memory (for cloaked callers, the shim's uncloaked
    // bounce area).
    attackHooks_->onBatchSubmit(*this, t, sub_va, count);

    // Single copy: every descriptor leaves the ring exactly once,
    // before anything is validated or dispatched. Nothing below ever
    // re-reads sub_va, so a concurrent (hostile) rewrite of the ring
    // cannot create a checked-vs-used mismatch.
    DescRing raw;
    auto sbytes = std::span(raw).first(sub_bytes);
    std::array<BatchDesc, maxBatchDepth> ring;
    copyFromUser(t, sub_va, sbytes);
    std::span<const BatchDesc> descs =
        std::span(ring).first(decodeDescs(sbytes, ring));

    auto& cost = vmm_.machine().cost();
    std::array<BatchComp, maxBatchDepth> comps;
    for (std::uint64_t i = 0; i < count; ++i) {
        const BatchDesc& d = descs[i];
        std::int64_t r;
        if (d.reserved != 0 || !batchable(d.num)) {
            // Malformed or non-batchable: complete with an error but
            // keep dispatching the rest of the ring.
            r = -errInval;
        } else {
            cost.charge(cost.params().batchDispatch, "batch_dispatch");
            r = dispatchSyscall(t, d.num, d.args[0], d.args[1],
                                d.args[2], d.args[3], d.args[4]);
            stats_.inc(kernelStat("batched_syscalls"));
        }
        comps[i] = {static_cast<std::uint64_t>(r), d.echo};
    }
    CompRing craw;
    encodeComps(std::span(comps).first(count), craw);
    copyToUser(t, comp_va, std::span(craw).first(comp_bytes));

    // The hostile-kernel window on the completion side: results are in
    // user memory now, the caller has not read them yet.
    attackHooks_->onBatchComplete(*this, t, comp_va, count);
    stats_.inc(kernelStat("batches"));
    return static_cast<std::int64_t>(count);
}

std::vector<std::string>
Kernel::readArgvBlob(Thread& t, GuestVA va, std::uint64_t len)
{
    std::vector<std::string> argv;
    if (va == 0 || len == 0 || len > 65536)
        return argv;
    std::vector<std::uint8_t> blob(len);
    copyFromUser(t, va, blob);
    std::string cur;
    for (std::uint8_t c : blob) {
        if (c == 0) {
            if (!cur.empty())
                argv.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(static_cast<char>(c));
        }
    }
    if (!cur.empty())
        argv.push_back(cur);
    return argv;
}

std::int64_t
Kernel::sysSpawn(Thread& t, GuestVA name_va, GuestVA argv_va,
                 std::uint64_t argv_len)
{
    Process& p = currentProcess();
    std::optional<std::string> read = readUserPath(t, name_va);
    if (!read)
        return -errNameTooLong;
    const std::string& name = *read;
    if (programs_.find(name) == nullptr)
        return -errNoEnt;
    std::vector<std::string> argv = readArgvBlob(t, argv_va, argv_len);
    Process& child = createProcess(name, std::move(argv), p.pid);
    osh_assert(host_ != nullptr, "no process host attached");
    host_->startProgram(child);
    stats_.inc(kernelStat("spawns"));
    return child.pid;
}

void
Kernel::copySwappedPage(const Pte& parent, AddressSpace& child,
                        GuestVA va)
{
    auto slot = swap_.allocate();
    osh_assert(slot.has_value(), "swap full during fork");
    // The fork's eager copies can evict (and async-enqueue) parent
    // pages it later reads back from swap: drain before reading.
    vmm_.drainAsyncEvictions();
    std::array<std::uint8_t, pageSize> buf;
    swap_.readSlot(parent.slot, buf);
    swap_.writeSlot(*slot, buf);
    Pte& cpte = child.pte(va);
    cpte.swapped = true;
    cpte.slot = *slot;
}

std::int64_t
Kernel::sysFork(Thread& t)
{
    // Env::fork parks the child's body on the thread, as sys_exec
    // parks the image it prepares; without one the child has nothing
    // to run.
    if (!t.pendingForkBody)
        return -errInval;
    ForkBody body = std::exchange(t.pendingForkBody, nullptr);
    std::uint64_t cloak_token = std::exchange(t.pendingForkToken, 0);

    Process& parent = currentProcess();
    Process& child =
        createProcess(parent.programName, parent.argv, parent.pid);
    child.cloaked = parent.cloaked;
    child.fds = parent.fds; // Shares open-file descriptions, as POSIX.
    child.signals = parent.signals;
    auto& cost = vmm_.machine().cost();

    // Clone the VMA layout (including the arena cursors, so the
    // child's future mmaps do not collide with inherited mappings).
    for (const auto& [start, vma] : parent.as.vmas()) {
        bool ok = child.as.addVma(vma);
        osh_assert(ok, "fork VMA clone collision");
        pinVmaInode(vma);
    }
    child.as.adoptCursors(parent.as);

    // Clone page-table state. Collect VAs first: eviction during child
    // frame allocation can rewrite parent PTEs mid-loop.
    std::vector<GuestVA> vas;
    vas.reserve(parent.as.ptes().size());
    for (const auto& [va, pte] : parent.as.ptes())
        vas.push_back(va);

    for (GuestVA va : vas) {
        Vma* vma = parent.as.findVma(va);
        if (vma == nullptr)
            continue;

        if (vma->type == VmaType::File) {
            Pte* ppte = parent.as.findPte(va);
            if (ppte == nullptr || !ppte->present)
                continue;
            child.as.pte(va) = *ppte;
            FrameInfo& fi = frames_.info(ppte->gpa);
            if (fi.use == FrameUse::PageCache && vfs_.exists(fi.inode)) {
                auto& cache = vfs_.inode(fi.inode).cache;
                auto cit = cache.find(fi.pageIndex);
                if (cit != cache.end())
                    cit->second.mapCount++;
            }
            continue;
        }

        if (vma->cloaked) {
            // Eager copy: cloaked pages cannot be COW-shared across the
            // fork because the kernel's copy path would fold both
            // processes onto one plaintext frame. Copying through the
            // kernel view forces encryption of each parent page — the
            // dominant cost of cloaked fork in the paper.
            Gpa new_gpa = allocFrameOrEvict(FrameUse::Anon);
            Pte* ppte = parent.as.findPte(va); // refetch after eviction
            if (ppte == nullptr) {
                frames_.unref(new_gpa);
                continue;
            }
            if (ppte->present) {
                std::array<std::uint8_t, pageSize> buf;
                readFrameAsKernel(t, pageBase(ppte->gpa), buf);
                writeFrameAsKernel(t, new_gpa, buf);
                cost.charge(cost.params().pageCopy, "fork_eager_copy");
                FrameInfo& nfi = frames_.info(new_gpa);
                nfi.asid = child.as.asid();
                nfi.vaPage = va;
                nfi.pinned = false;
                addAnonMapping(new_gpa, child.as.asid(), va);
                Pte& cpte = child.as.pte(va);
                cpte.gpa = new_gpa;
                cpte.present = true;
                cpte.writable = (vma->prot & protWrite) != 0;
            } else if (ppte->swapped) {
                frames_.unref(new_gpa);
                copySwappedPage(*ppte, child.as, va);
            } else {
                frames_.unref(new_gpa);
            }
            continue;
        }

        // Uncloaked anonymous memory: classic COW.
        Pte* ppte = parent.as.findPte(va);
        if (ppte == nullptr)
            continue;
        if (ppte->present) {
            ppte->cow = true;
            frames_.ref(ppte->gpa);
            addAnonMapping(pageBase(ppte->gpa), child.as.asid(), va);
            child.as.pte(va) = *ppte;
            // Downgrade any existing writable shadow of the parent.
            vmm_.invalidateVa(parent.as.asid(), va);
        } else if (ppte->swapped) {
            copySwappedPage(*ppte, child.as, va);
        }
    }

    // Pipe descriptor accounting: shared OpenFiles keep their counts
    // (closeFile releases on last reference).

    osh_assert(host_ != nullptr, "no process host attached");
    host_->startForkChild(child, std::move(body), cloak_token);
    stats_.inc(kernelStat("forks"));
    return child.pid;
}

std::int64_t
Kernel::sysExec(Thread& t, GuestVA name_va, GuestVA argv_va,
                std::uint64_t argv_len)
{
    Process& p = currentProcess();
    std::optional<std::string> read = readUserPath(t, name_va);
    if (!read)
        return -errNameTooLong;
    const std::string& name = *read;
    const Program* prog = programs_.find(name);
    if (prog == nullptr)
        return -errNoEnt;
    std::vector<std::string> argv = readArgvBlob(t, argv_va, argv_len);

    teardownAddressSpace(p);
    p.programName = name;
    p.argv = std::move(argv);
    p.cloaked = prog->cloaked;
    setupProcessImage(p, *prog);

    t.hasPendingExec = true;
    attackHooks_->onExec(*this, t, name);
    stats_.inc(kernelStat("execs"));
    return 0;
}

std::int64_t
Kernel::sysWaitPid(Thread& t, std::int64_t pid, GuestVA status_va)
{
    Process& p = currentProcess();
    for (;;) {
        checkKillRequested(t);
        bool have_children = false;
        Pid reaped = 0;
        int status = 0;
        for (auto& [cpid, child] : processes_) {
            if (child->ppid != p.pid)
                continue;
            if (pid >= 0 && cpid != static_cast<Pid>(pid))
                continue;
            have_children = true;
            if (child->state == ProcState::Zombie) {
                reaped = cpid;
                status = child->exitStatus;
                break;
            }
        }
        if (reaped != 0) {
            processes_.erase(reaped);
            if (status_va != 0) {
                std::array<std::uint8_t, 4> out;
                storeLe32(out.data(), static_cast<std::uint32_t>(status));
                if (validUserRange(p, status_va, 4, true))
                    copyToUser(t, status_va, out);
            }
            return reaped;
        }
        if (!have_children)
            return -errChild;
        sched_.block(&p.exitChannel);
    }
}

std::int64_t
Kernel::sysVmaQuery(Thread&, std::uint64_t index, std::uint64_t field)
{
    // Register-only ABI: a restored process uses this to rediscover its
    // own (restored) mappings, so the call must not depend on any
    // shim-marshalled buffer.
    Process& p = currentProcess();
    if (index >= p.as.vmas().size())
        return -errInval;
    auto it = p.as.vmas().begin();
    std::advance(it, static_cast<std::ptrdiff_t>(index));
    const Vma& vma = it->second;
    switch (field) {
      case vmaQueryStart:
        return static_cast<std::int64_t>(vma.start);
      case vmaQueryEnd:
        return static_cast<std::int64_t>(vma.end);
      case vmaQueryFlags:
        return static_cast<std::int64_t>(
            (vma.cloaked ? vmaFlagCloaked : 0) |
            (vma.type == VmaType::Anon ? vmaFlagAnon : 0));
      default:
        return -errInval;
    }
}

std::int64_t
Kernel::sysKill(Thread&, std::int64_t pid, std::uint64_t sig)
{
    Process* target = findProcess(static_cast<Pid>(pid));
    if (target == nullptr || target->state == ProcState::Zombie)
        return -errSrch;
    if (sig == 0)
        return 0;
    if (sig >= numSignals)
        return -errInval;
    int s = static_cast<int>(sig);
    if (s != sigKill && target->signals[sig].handled) {
        target->pendingSignals |= (1u << s);
        if (Thread* tt = threadOf(target->pid))
            sched_.wakeThread(*tt);
        return 0;
    }
    killProcess(*target, formatString("killed by signal %d", s));
    return 0;
}

std::int64_t
Kernel::sysSigAction(Thread&, std::uint64_t sig, std::uint64_t token)
{
    if (sig >= numSignals || sig == sigKill)
        return -errInval;
    Process& p = currentProcess();
    p.signals[sig].handled = token != 0;
    p.signals[sig].token = token;
    return 0;
}

} // namespace osh::os
