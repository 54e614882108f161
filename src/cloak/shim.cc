#include "cloak/shim.hh"

#include "base/bytes.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "cloak/transfer.hh"
#include "crypto/sha256.hh"
#include "os/kernel.hh"
#include "vmm/context.hh"

#include <array>
#include <vector>

namespace osh::cloak
{

using os::Sys;
using os::SyscallArgs;

std::unique_ptr<Shim>
Shim::attach(CloakEngine& engine, os::Env& env, std::uint64_t fork_token)
{
    os::Process& proc = env.process();
    osh_assert(proc.cloaked, "shim attach to an uncloaked program");
    sim::CostEvent event = "cloak_restore_launch";
    if (proc.domain != systemDomain) {
        // Restored: the migrate layer imported the domain and its
        // layout; the regions are registered already.
    } else if (fork_token != 0) {
        auto domain = engine.forkAttach(proc.as.asid(), proc.pid, fork_token);
        if (!domain.ok()) {
            // The engine refused to confer the parent's domain — a
            // hostile kernel corrupted cloaked state between fork and
            // attach (the rejection is audited). The child must not
            // run half-attached; kill it rather than panic.
            throw vmm::ProcessKilled{
                proc.pid, "cloak violation: fork attach rejected"};
        }
        proc.domain = *domain;
        event = "cloak_fork_launch";
    } else {
        proc.domain = engine.createDomain(
            proc.as.asid(), proc.pid, programIdentity(proc.programName));
        event = "cloak_launch";
    }

    // The VMM confers the domain's view on the vCPU (attested launch).
    env.vcpu().context().view = proc.domain;
    env.vcpu().vmm().chargeWorldSwitch(event);

    std::unique_ptr<Shim> shim(new Shim(engine, proc.domain, env));
    shim->initialize();
    return shim;
}

Shim::Shim(CloakEngine& engine, DomainId domain, os::Env& env)
    : engine_(engine), domain_(domain), env_(env)
{
}

Shim::~Shim()
{
    detach();
}

std::uint64_t
Shim::pathKey(const std::string& path)
{
    crypto::Digest d = crypto::Sha256::hash(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(path.data()), path.size()));
    return loadLe64(d.data());
}

bool
Shim::isProtectedPath(const std::string& path) const
{
    return path.rfind("/cloaked", 0) == 0;
}

void
Shim::initialize()
{
    const Domain* domain = engine_.findDomain(domain_);
    osh_assert(domain != nullptr, "shim for an unknown domain");
    GuestVA ctc_va = domain->ctcVa;
    bounceVa_ = domain->bounceVa;
    if (ctc_va == 0) {
        // A fresh domain: register the cloaked regions the loader
        // created (code, stack) before the program touches them.
        for (const auto& [start, vma] : env_.process().as.vmas()) {
            if (vma.cloaked)
                requireRegistered(
                    engine_.registerRegion(domain_, start, vma.pages()).ok(),
                    "loader region");
        }

        // Cloaked thread context page.
        std::int64_t ctc = env_.trapToKernel(
            Sys::Mmap, {pageSize, os::protRead | os::protWrite,
                        os::mapAnon | os::mapCloaked, ~0ull, 0});
        osh_assert(ctc > 0, "CTC allocation failed");
        ctc_va = static_cast<GuestVA>(ctc);
        requireRegistered(engine_.registerRegion(domain_, ctc_va, 1).ok(),
                          "mmap result");

        // Uncloaked bounce buffers for marshalling.
        std::int64_t bounce = env_.trapToKernel(
            Sys::Mmap, {Bounce::pages * pageSize,
                        os::protRead | os::protWrite, os::mapAnon,
                        ~0ull, 0});
        osh_assert(bounce > 0, "bounce allocation failed");
        bounceVa_ = static_cast<GuestVA>(bounce);
    }

    requireRegistered(engine_.bindThread(domain_, ctc_va, bounceVa_).ok(),
                      "bounce area");
    env_.setInterposer(this);
}

void
Shim::detach()
{
    env_.setInterposer(nullptr);
}

std::int64_t
Shim::kernelEntry(os::Env& env, Sys num, const SyscallArgs& args)
{
    return SecureTransfer::aroundSyscall(engine_, domain_, env, num, args);
}

std::int64_t
Shim::trap(Sys num, const SyscallArgs& args)
{
    return env_.trapToKernel(num, args);
}

void
Shim::copyGuest(GuestVA dst, GuestVA src, std::uint64_t len)
{
    std::array<std::uint8_t, pageSize> buf;
    std::uint64_t done = 0;
    while (done < len) {
        std::uint64_t n = std::min<std::uint64_t>(len - done, buf.size());
        env_.readBytes(src + done,
                       std::span<std::uint8_t>(buf.data(), n));
        env_.writeBytes(dst + done,
                        std::span<const std::uint8_t>(buf.data(), n));
        done += n;
    }
}

GuestVA
Shim::stageString(const std::string& s, std::uint64_t at)
{
    GuestVA va = bounceVa_ + Bounce::strings + at;
    env_.writeString(va, s);
    return va;
}

std::optional<SyscallArgs>
Shim::stageProgram(const SyscallArgs& args, std::string& name)
{
    std::optional<std::string> read = os::readPath(env_.vcpu(), args[0]);
    if (!read)
        return std::nullopt;
    name = std::move(*read);
    SyscallArgs staged{stageString(name), 0, args[2]};
    if (args[1] != 0 && args[2] != 0) {
        staged[1] = bounceVa_;
        copyGuest(bounceVa_, args[1], std::min(args[2], Bounce::dataBytes));
    }
    return staged;
}

// ---------------------------------------------------------------------------
// Marshalled calls
// ---------------------------------------------------------------------------

std::int64_t
Shim::marshalledIo(Sys num, std::uint64_t fd, GuestVA user_buf,
                   std::uint64_t len, std::optional<std::uint64_t> at)
{
    // One chunk loop for all four transfers. Outbound data is staged
    // into the bounce area's data pages before each trap, inbound data
    // copied out after it. The trap carries {fd, bounce, chunk}, plus
    // the chunk's offset for pread/pwrite: the registers an uncloaked
    // caller would pass, with the fourth left 0 for read/write.
    const bool in = os::transfersIn(num);
    std::uint64_t done = 0;
    while (done < len) {
        std::uint64_t chunk =
            std::min<std::uint64_t>(len - done, Bounce::dataBytes);
        if (!in)
            copyGuest(bounceVa_, user_buf + done, chunk);
        std::int64_t rv =
            trap(num, {fd, bounceVa_, chunk, at ? *at + done : 0});
        if (rv < 0)
            return done > 0 ? static_cast<std::int64_t>(done) : rv;
        // A kernel claiming more than the chunk would have the copy
        // below overrun the app's buffer with bytes it chose.
        if (static_cast<std::uint64_t>(rv) > chunk)
            kernelViolation(cloakStat("result_violations"),
                            "syscall result exceeds request");
        if (in && rv > 0)
            copyGuest(user_buf + done, bounceVa_,
                      static_cast<std::uint64_t>(rv));
        done += static_cast<std::uint64_t>(rv);
        // A short transfer means EOF or (for pipes) all that was
        // available; do not trap again, which could block.
        if (static_cast<std::uint64_t>(rv) < chunk)
            break;
    }
    engine_.stats().inc(in ? cloakStat("shim_marshalled_reads")
                           : cloakStat("shim_marshalled_writes"));
    return static_cast<std::int64_t>(done);
}

// ---------------------------------------------------------------------------
// Protected-file emulation
// ---------------------------------------------------------------------------

std::int64_t
Shim::openProtected(const std::string& path, std::uint64_t flags)
{
    auto& vcpu = env_.vcpu();
    GuestVA staged = stageString(path);
    std::int64_t fd = newFd(Sys::Open, trap(Sys::Open, {staged, flags}));
    if (fd < 0)
        return fd;

    std::array<std::uint64_t, 1> key_arg{pathKey(path)};
    if (flags & os::openTrunc)
        vcpu.hypercall(vmm::Hypercall::CloakDiscardFile, key_arg);

    std::int64_t res =
        vcpu.hypercall(vmm::Hypercall::CloakAttachFile, key_arg);
    if (res <= 0) {
        trap(Sys::Close, {static_cast<std::uint64_t>(fd)});
        return -os::errPerm;
    }

    // Size via a marshalled fstat.
    GuestVA out = bounceVa_ + Bounce::statOut;
    std::int64_t sr = trap(Sys::Fstat,
                           {static_cast<std::uint64_t>(fd), out});
    std::uint64_t size = 0;
    if (sr == 0)
        size = env_.load64(out); // StatBuf.size is the first field.

    std::uint64_t map_pages =
        std::max<std::uint64_t>(1, roundUpToPage(size) / pageSize);
    std::int64_t mva = trap(Sys::Mmap,
                            {map_pages * pageSize,
                             os::protRead | os::protWrite,
                             os::mapShared | os::mapCloaked,
                             static_cast<std::uint64_t>(fd), 0});
    if (mva < 0) {
        trap(Sys::Close, {static_cast<std::uint64_t>(fd)});
        return mva;
    }
    registerMapping(mva, map_pages, static_cast<ResourceId>(res));

    cloakedFiles_[static_cast<std::uint64_t>(fd)] = {
        .fd = static_cast<std::uint64_t>(fd),
        .resource = static_cast<ResourceId>(res),
        .mapVa = static_cast<GuestVA>(mva),
        .mapPages = map_pages,
        .size = size,
        .writable = (flags & os::openWrite) != 0};
    engine_.stats().inc(cloakStat("shim_protected_opens"));
    return fd;
}

std::int64_t
Shim::emulatedRead(CloakedFile& cf, GuestVA buf, std::uint64_t len,
                   std::optional<std::uint64_t> at)
{
    std::uint64_t off = at.value_or(cf.offset);
    if (off >= cf.size || len == 0)
        return 0;
    std::uint64_t n = std::min<std::uint64_t>(len, cf.size - off);
    copyGuest(buf, cf.mapVa + off, n);
    if (!at)
        cf.offset += n;
    engine_.stats().inc(cloakStat("shim_emulated_reads"));
    return static_cast<std::int64_t>(n);
}

std::int64_t
Shim::growMapping(CloakedFile& cf, std::uint64_t new_size)
{
    std::uint64_t new_pages = roundUpToPage(new_size) / pageSize;
    if (new_pages <= cf.mapPages)
        return 0;
    // Grow with slack so streaming writes do not remap per page.
    new_pages = std::max(new_pages, cf.mapPages * 2);

    auto& vcpu = env_.vcpu();
    std::array<std::uint64_t, 1> unreg{cf.mapVa};
    vcpu.hypercall(vmm::Hypercall::CloakUnregisterRegion, unreg);
    trap(Sys::Munmap, {cf.mapVa});

    std::int64_t mva = trap(Sys::Mmap,
                            {new_pages * pageSize,
                             os::protRead | os::protWrite,
                             os::mapShared | os::mapCloaked, cf.fd, 0});
    if (mva < 0)
        return mva;
    registerMapping(mva, new_pages, cf.resource);
    cf.mapVa = static_cast<GuestVA>(mva);
    cf.mapPages = new_pages;
    engine_.stats().inc(cloakStat("shim_map_grows"));
    return 0;
}

std::int64_t
Shim::emulatedWrite(CloakedFile& cf, GuestVA buf, std::uint64_t len,
                    std::optional<std::uint64_t> at)
{
    // The kernel's order: a read-only descriptor refuses even a
    // zero-length write.
    if (!cf.writable)
        return -os::errPerm;
    if (len == 0)
        return 0;
    std::uint64_t off = at.value_or(cf.offset);
    if (!os::fileEndFits(off, len))
        return -os::errFBig;
    std::uint64_t new_end = off + len;
    if (new_end > cf.mapPages * pageSize) {
        std::int64_t r = growMapping(cf, new_end);
        if (r < 0)
            return r;
    }
    copyGuest(cf.mapVa + off, buf, len);
    if (!at)
        cf.offset = new_end;
    if (new_end > cf.size) {
        cf.size = new_end;
        // Keep the kernel's idea of the size current so writeback and
        // later opens see the full file.
        trap(Sys::Ftruncate, {cf.fd, new_end});
    }
    engine_.stats().inc(cloakStat("shim_emulated_writes"));
    return static_cast<std::int64_t>(len);
}

std::int64_t
Shim::emulatedLseek(CloakedFile& cf, std::int64_t off,
                    std::uint64_t whence)
{
    std::int64_t base;
    switch (whence) {
      case os::seekSet: base = 0; break;
      case os::seekCur: base = static_cast<std::int64_t>(cf.offset); break;
      case os::seekEnd: base = static_cast<std::int64_t>(cf.size); break;
      default: return -os::errInval;
    }
    std::int64_t target = base + off;
    if (target < 0)
        return -os::errInval;
    cf.offset = static_cast<std::uint64_t>(target);
    return target;
}

Shim::CloakedFile*
Shim::localFile(Sys num, const SyscallArgs& args)
{
    std::uint64_t fd;
    switch (num) {
      case Sys::Read:
      case Sys::Write:
      case Sys::Pread:
      case Sys::Pwrite:
      case Sys::Lseek:
      case Sys::Close:
      case Sys::Ftruncate:
      case Sys::Fsync:
      case Sys::Fstat:
        fd = args[0];
        break;
      case Sys::Dup2:
        fd = args[1];
        break;
      default:
        return nullptr;
    }
    auto it = cloakedFiles_.find(fd);
    return it == cloakedFiles_.end() ? nullptr : &it->second;
}

std::int64_t
Shim::closeProtected(std::uint64_t fd)
{
    auto it = cloakedFiles_.find(fd);
    osh_assert(it != cloakedFiles_.end(), "closeProtected of unknown fd");
    CloakedFile cf = it->second;
    auto& vcpu = env_.vcpu();

    trap(Sys::Fsync, {cf.fd});
    std::array<std::uint64_t, 1> seal{cf.resource};
    vcpu.hypercall(vmm::Hypercall::CloakSealMetadata, seal);
    std::array<std::uint64_t, 1> unreg{cf.mapVa};
    vcpu.hypercall(vmm::Hypercall::CloakUnregisterRegion, unreg);
    trap(Sys::Munmap, {cf.mapVa});
    std::int64_t r = trap(Sys::Close, {cf.fd});
    cloakedFiles_.erase(it);
    engine_.stats().inc(cloakStat("shim_protected_closes"));
    return r;
}

// ---------------------------------------------------------------------------
// Batched submission
// ---------------------------------------------------------------------------

std::uint64_t
Shim::nextBatchNonce()
{
    return splitmix64(batchNonceState_);
}

[[noreturn]] void
Shim::kernelViolation(StatSlot stat, const std::string& what)
{
    engine_.stats().inc(stat);
    Pid pid = 0;
    if (Domain* d = engine_.findDomain(domain_))
        pid = d->pid;
    osh_warn("domain %llu: %s", static_cast<unsigned long long>(domain_),
             what.c_str());
    throw vmm::ProcessKilled{pid, "cloak violation: " + what};
}

std::int64_t
Shim::newFd(Sys num, std::int64_t fd)
{
    if (fd >= 0 && cloakedFiles_.contains(static_cast<std::uint64_t>(fd)))
        kernelViolation(cloakStat("result_violations"),
                        std::string(os::sysName(num)) +
                            " result aliases a protected fd");
    return fd;
}

void
Shim::registerMapping(std::int64_t va, std::uint64_t pages,
                      ResourceId resource)
{
    std::array<std::uint64_t, 4> reg{static_cast<std::uint64_t>(va),
                                     pages, resource, 0};
    requireRegistered(
        env_.vcpu().hypercall(vmm::Hypercall::CloakRegisterRegion, reg) >= 0,
        "mmap result");
}

void
Shim::requireRegistered(bool registered, const char* what)
{
    if (!registered)
        kernelViolation(cloakStat("result_violations"),
                        std::string(what) + " overlaps a protected region");
}

std::int64_t
Shim::shimSubmitBatch(const SyscallArgs& args)
{
    GuestVA app_sub = args[0];
    GuestVA app_comp = args[1];
    std::uint64_t count = args[2];
    if (count == 0 || count > os::maxBatchDepth)
        return -os::errInval;

    // Copy the app's descriptors out of cloaked memory exactly once;
    // everything below works on this private snapshot.
    os::DescRing araw;
    auto abytes = std::span(araw).first(count * os::batchDescBytes);
    std::array<os::BatchDesc, os::maxBatchDepth> descs;
    env_.readBytes(app_sub, abytes);
    os::decodeDescs(abytes, descs);

    GuestVA ksub = bounceVa_ + Bounce::submitRing;
    GuestVA kcomp = bounceVa_ + Bounce::completionRing;
    std::uint64_t stageUsed = 0;

    /** One descriptor staged onto the kernel-facing ring. Left
     *  uninitialised in the array below: each is written whole. */
    struct KernelSlot
    {
        std::uint64_t appIndex; ///< Slot in the app's ring.
        std::uint64_t nonce;    ///< Private echo token we expect back.
        Sys num;
        SyscallArgs args;       ///< Rewritten arguments.
        GuestVA appBuf;         ///< App destination for read-backs.
        GuestVA stageVa;        ///< Staging address (0: none).
        std::uint64_t len;      ///< Requested transfer length.
    };
    std::array<KernelSlot, os::maxBatchDepth> slots;
    std::size_t nslots = 0;
    std::array<std::int64_t, os::maxBatchDepth> results{};

    // Dispatch the pending kernel-facing ring in ONE secure control
    // transfer, validate every completion (echo token + result bound)
    // and copy read data back into cloaked buffers. Called when the
    // batch is fully staged, and early when staging space runs out or
    // a per-call entry follows staged kernel work.
    auto flushKernelSlots = [&]() {
        if (nslots == 0)
            return;
        os::DescRing kraw;
        auto kbytes = std::span(kraw).first(nslots * os::batchDescBytes);
        for (std::size_t k = 0; k < nslots; ++k) {
            const KernelSlot& s = slots[k];
            os::BatchDesc kd{s.num, s.args, s.nonce, 0};
            os::encodeDescs(std::span(&kd, 1),
                            kbytes.subspan(k * os::batchDescBytes));
        }
        env_.writeBytes(ksub, kbytes);

        std::int64_t rv = trap(Sys::SubmitBatch, {ksub, kcomp, nslots});
        if (rv < 0) {
            // The batch itself was refused (a denial of service, not a
            // protection violation): surface the error per call.
            for (const KernelSlot& s : std::span(slots).first(nslots))
                results[s.appIndex] = rv;
        } else if (static_cast<std::uint64_t>(rv) != nslots) {
            kernelViolation(cloakStat("ring_violations"),
                            "syscall ring tampered (completion count "
                            "mismatch)");
        } else {
            // Copy completions out of the uncloaked ring exactly once,
            // then validate each before touching cloaked memory.
            os::CompRing craw;
            std::array<os::BatchComp, os::maxBatchDepth> comps;
            auto cbytes = std::span(craw).first(nslots * os::batchCompBytes);
            env_.readBytes(kcomp, cbytes);
            os::decodeComps(cbytes, comps);
            for (std::size_t k = 0; k < nslots; ++k) {
                const KernelSlot& s = slots[k];
                auto res = static_cast<std::int64_t>(comps[k].result);
                if (comps[k].echo != s.nonce)
                    kernelViolation(cloakStat("ring_violations"),
                                    "syscall ring tampered (echo token "
                                    "mismatch)");
                if (os::isTransfer(s.num) &&
                    res > static_cast<std::int64_t>(s.len))
                    kernelViolation(cloakStat("ring_violations"),
                                    "syscall ring tampered (result "
                                    "exceeds request)");
                if (os::transfersIn(s.num) && res > 0) {
                    copyGuest(s.appBuf, s.stageVa,
                              static_cast<std::uint64_t>(res));
                }
                if (s.num == Sys::Fstat && res == 0)
                    copyGuest(s.appBuf, s.stageVa, sizeof(os::StatBuf));
                if (s.num == Sys::Dup || s.num == Sys::Dup2)
                    newFd(s.num, res);
                results[s.appIndex] = res;
            }
        }
        engine_.stats().inc(cloakStat("shim_batch_traps"));
        engine_.stats().inc(cloakStat("shim_batched_calls"), nslots);
        nslots = 0;
        stageUsed = 0;
    };

    // The per-call route, once the kernel has caught up on staged work
    // so calls retire in submission order: calls the shim serves itself
    // (syscall() refuses a dup2 onto a protected fd), and transfers too
    // large for the whole data area, which marshalledIo chunks through
    // it.
    auto servePerCall = [&](std::uint64_t i) {
        flushKernelSlots();
        results[i] = syscall(env_, descs[i].num, descs[i].args);
    };

    for (std::uint64_t i = 0; i < count; ++i) {
        const os::BatchDesc& d = descs[i];
        if (d.reserved != 0 || d.num == Sys::SubmitBatch ||
            !os::Kernel::batchable(d.num)) {
            results[i] = -os::errInval;
            continue;
        }
        // Staging space: the transfer, or fstat's result; everything
        // else (getpid/yield/clock/lseek/dup/close/...) is
        // register-only.
        std::uint64_t need = 0;
        if (os::isTransfer(d.num))
            need = d.args[2];
        else if (d.num == Sys::Fstat)
            need = sizeof(os::StatBuf);
        if (localFile(d.num, d.args) != nullptr ||
            need > Bounce::dataBytes) {
            servePerCall(i);
            continue;
        }
        if (need > Bounce::dataBytes - stageUsed)
            flushKernelSlots(); // make room, preserving order

        KernelSlot& s = slots[nslots++];
        s = {i, 0, d.num, d.args, 0, 0, 0};
        if (need > 0) {
            s.stageVa = bounceVa_ + stageUsed;
            stageUsed += need;
            s.len = need;
            if (os::isTransfer(d.num) && !os::transfersIn(d.num)) {
                // Outbound data leaves cloaked memory here, once.
                copyGuest(s.stageVa, d.args[1], need);
            } else {
                s.appBuf = d.args[1];
            }
            s.args[1] = s.stageVa;
        }
        s.nonce = nextBatchNonce();
    }
    flushKernelSlots();

    // Publish all app completions in one bulk write to cloaked memory.
    std::array<os::BatchComp, os::maxBatchDepth> acomps;
    for (std::uint64_t i = 0; i < count; ++i)
        acomps[i] = {static_cast<std::uint64_t>(results[i]), descs[i].echo};
    os::CompRing acraw;
    os::encodeComps(std::span(acomps).first(count), acraw);
    env_.writeBytes(app_comp,
                    std::span(acraw).first(count * os::batchCompBytes));
    engine_.stats().inc(cloakStat("shim_batches"));
    return static_cast<std::int64_t>(count);
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

std::int64_t
Shim::shimOpen(const SyscallArgs& args)
{
    std::optional<std::string> path = os::readPath(env_.vcpu(), args[0]);
    if (!path)
        return -os::errNameTooLong;
    std::uint64_t flags = args[1];
    if (isProtectedPath(*path))
        return openProtected(*path, flags);
    GuestVA staged = stageString(*path);
    return newFd(Sys::Open, trap(Sys::Open, {staged, flags}));
}

std::int64_t
Shim::shimMmap(const SyscallArgs& args)
{
    std::int64_t rv = trap(Sys::Mmap, args);
    if (rv > 0 && (args[2] & os::mapCloaked) && (args[2] & os::mapAnon)) {
        registerMapping(rv, roundUpToPage(args[0]) / pageSize, 0);
    }
    return rv;
}

std::int64_t
Shim::shimMunmap(const SyscallArgs& args)
{
    GuestVA va = args[0];
    // If this VA starts a registered cloaked region, detach it first so
    // the VMM scrubs/encrypts resident plaintext before the kernel
    // recycles the frames.
    if (Domain* d = engine_.findDomain(domain_)) {
        for (const Region& r : d->regions) {
            if (r.start == pageBase(va)) {
                std::array<std::uint64_t, 1> unreg{va};
                env_.vcpu().hypercall(
                    vmm::Hypercall::CloakUnregisterRegion, unreg);
                break;
            }
        }
    }
    return trap(Sys::Munmap, args);
}

std::int64_t
Shim::shimFork(const SyscallArgs& args)
{
    std::int64_t token = env_.vcpu().hypercall(
        vmm::Hypercall::CloakPrepareFork, {});
    osh_assert(token > 0, "prepareFork failed");
    // Parked beside the child's body: sys_fork hands both to the
    // child's start, which attaches through the token.
    os::Thread& thread = env_.thread();
    thread.pendingForkToken = static_cast<std::uint64_t>(token);
    std::int64_t rv = trap(Sys::Fork, args);
    thread.pendingForkToken = 0;
    if (rv < 0)
        return rv;
    // Snapshot immediately: the kernel just finished eagerly copying
    // our encrypted page images for the child, and nothing has
    // re-encrypted them yet. Only the child the trap named attaches to
    // this snapshot.
    std::array<std::uint64_t, 2> t{static_cast<std::uint64_t>(token),
                                   static_cast<std::uint64_t>(rv)};
    env_.vcpu().hypercall(vmm::Hypercall::CloakSnapshotFork, t);
    return rv;
}

std::int64_t
Shim::shimExec(const SyscallArgs& args)
{
    // Marshal the program name and argv blob out of cloaked memory
    // while we still can.
    std::string name;
    std::optional<SyscallArgs> staged = stageProgram(args, name);
    if (!staged)
        return -os::errNameTooLong;
    // Ask before dismantling anything, so an exec the kernel refuses
    // returns to this image still cloaked. A kernel that answers
    // falsely only denies service, which the threat model concedes.
    if (env_.kernel().programs().find(name) == nullptr)
        return -os::errNoEnt;

    // Dismantle this image's protection: exec replaces everything.
    for (auto it = cloakedFiles_.begin(); it != cloakedFiles_.end();) {
        std::uint64_t fd = it->first;
        ++it;
        closeProtected(fd);
    }
    auto& vcpu = env_.vcpu();
    vcpu.hypercall(vmm::Hypercall::CloakTeardownDomain, {});
    detach();
    vcpu.context().view = systemDomain;
    // The process must not name the dead domain: the next image's
    // attach would take it for a restored one.
    env_.process().domain = systemDomain;

    return env_.trapToKernel(Sys::Exec, *staged);
}

std::int64_t
Shim::syscall(os::Env& env, Sys num, const SyscallArgs& args)
{
    (void)env;
    OSH_TRACE_SCOPE(&env_.vcpu().vmm().machine().tracer(),
                    trace::Category::Shim, os::sysName(num), domain_,
                    env_.thread().pid,
                    static_cast<std::uint64_t>(num));
    CloakedFile* cf = localFile(num, args);
    switch (num) {
      case Sys::Open:
        return shimOpen(args);

      case Sys::Read:
      case Sys::Write:
      case Sys::Pread:
      case Sys::Pwrite:
        {
            std::optional<std::uint64_t> at;
            if (os::isPositional(num))
                at = args[3];
            if (cf == nullptr)
                return marshalledIo(num, args[0], args[1], args[2], at);
            if (os::transfersIn(num))
                return emulatedRead(*cf, args[1], args[2], at);
            return emulatedWrite(*cf, args[1], args[2], at);
        }

      case Sys::Lseek:
        if (cf != nullptr) {
            return emulatedLseek(*cf, static_cast<std::int64_t>(args[1]),
                                 args[2]);
        }
        return trap(num, args);

      case Sys::Dup:
        return newFd(num, trap(num, args));

      case Sys::Dup2:
        // dup/dup2 of a protected fd pass through (the duplicate is a
        // plain kernel descriptor), but dup2 must not CLOSE a protected
        // fd underneath the shim's table: refuse that.
        return cf != nullptr ? -os::errInval : newFd(num, trap(num, args));

      case Sys::SubmitBatch:
        return shimSubmitBatch(args);

      case Sys::Close:
        return cf != nullptr ? closeProtected(args[0]) : trap(num, args);

      case Sys::Ftruncate:
        if (cf != nullptr) {
            if (args[1] < cf->size)
                return -os::errInval; // Shrink unsupported (see docs).
            if (!os::fileEndFits(args[1], 0))
                return -os::errFBig;
            std::int64_t r = growMapping(*cf, args[1]);
            if (r < 0)
                return r;
            cf->size = args[1];
        }
        return trap(num, args);

      case Sys::Fsync:
        if (cf != nullptr) {
            std::array<std::uint64_t, 1> seal{cf->resource};
            std::int64_t r = trap(num, args);
            env_.vcpu().hypercall(vmm::Hypercall::CloakSealMetadata,
                                  seal);
            return r;
        }
        return trap(num, args);

      case Sys::Fstat:
        {
            GuestVA out = bounceVa_ + Bounce::statOut;
            std::int64_t r = trap(num, {args[0], out});
            if (r == 0) {
                // The kernel's size lags emulated writes that have not
                // been truncated in yet; report the shim's.
                if (cf != nullptr)
                    env_.store64(out, cf->size);
                copyGuest(args[1], out, sizeof(os::StatBuf));
            }
            return r;
        }

      case Sys::Unlink:
        {
            std::optional<std::string> path =
                os::readPath(env_.vcpu(), args[0]);
            if (!path)
                return -os::errNameTooLong;
            std::int64_t r = trap(num, {stageString(*path)});
            if (r == 0 && isProtectedPath(*path)) {
                std::array<std::uint64_t, 1> key{pathKey(*path)};
                env_.vcpu().hypercall(vmm::Hypercall::CloakDiscardFile,
                                      key);
            }
            return r;
        }

      case Sys::Mkdir:
        {
            std::optional<std::string> path =
                os::readPath(env_.vcpu(), args[0]);
            if (!path)
                return -os::errNameTooLong;
            return trap(num, {stageString(*path)});
        }

      case Sys::Rename:
        {
            std::optional<std::string> from =
                os::readPath(env_.vcpu(), args[0]);
            std::optional<std::string> to =
                os::readPath(env_.vcpu(), args[1]);
            if (!from || !to)
                return -os::errNameTooLong;
            // Back to back: a long source must not run into the target.
            GuestVA f = stageString(*from);
            GuestVA t = stageString(*to, from->size() + 1);
            return trap(num, {f, t});
        }

      case Sys::ReadDir:
        {
            GuestVA out = bounceVa_ + Bounce::readDirOut;
            std::uint64_t n = std::min(args[3], Bounce::readDirMax);
            std::int64_t r = trap(num, {args[0], args[1], out, n});
            if (r >= 0)
                copyGuest(args[2], out,
                          static_cast<std::uint64_t>(r) + 1);
            return r;
        }

      case Sys::Pipe:
        {
            GuestVA out = bounceVa_ + Bounce::pipeOut;
            std::int64_t r = trap(num, {out});
            if (r == 0) {
                std::array<std::uint8_t, 8> fds;
                env_.readBytes(out, fds);
                newFd(num, static_cast<std::int32_t>(loadLe32(fds.data())));
                newFd(num,
                      static_cast<std::int32_t>(loadLe32(fds.data() + 4)));
                env_.writeBytes(args[0], fds);
            }
            return r;
        }

      case Sys::WaitPid:
        {
            GuestVA out = bounceVa_ + Bounce::waitOut;
            std::int64_t r = trap(num, {args[0], args[1] ? out : 0});
            if (r > 0 && args[1] != 0)
                copyGuest(args[1], out, 4);
            return r;
        }

      case Sys::Spawn:
        {
            std::string name;
            std::optional<SyscallArgs> staged = stageProgram(args, name);
            return staged ? trap(num, *staged) : -os::errNameTooLong;
        }

      case Sys::Mmap:
        return shimMmap(args);

      case Sys::Munmap:
        return shimMunmap(args);

      case Sys::Fork:
        return shimFork(args);

      case Sys::Exec:
        return shimExec(args);

      default:
        // Pass-through: no memory operands.
        return trap(num, args);
    }
}

} // namespace osh::cloak
