#include "os/env.hh"

#include "base/logging.hh"

#include <cstring>

namespace osh::os
{

Env::Env(Kernel& kernel, Thread& thread) : kernel_(kernel), thread_(thread)
{
}

const std::vector<std::string>&
Env::args() const
{
    return kernel_.process(thread_.pid).argv;
}

void
Env::writeString(GuestVA va, const std::string& s)
{
    std::vector<std::uint8_t> bytes(s.size() + 1, 0);
    std::memcpy(bytes.data(), s.data(), s.size());
    writeBytes(va, bytes);
}

std::string
Env::readString(GuestVA va, std::size_t max)
{
    return thread_.vcpu.readCString(va, max);
}

std::int64_t
Env::rawKernelEntry(Sys num, const SyscallArgs& args)
{
    auto& regs = thread_.vcpu.regs();
    regs.gpr[0] = static_cast<std::uint64_t>(num);
    for (std::size_t i = 0; i < args.size(); ++i)
        regs.gpr[i + 1] = args[i];
    return kernel_.syscallEntry(thread_);
}

std::int64_t
Env::trapToKernel(Sys num, const SyscallArgs& args)
{
    std::int64_t result = interposer_ != nullptr
                              ? interposer_->kernelEntry(*this, num, args)
                              : rawKernelEntry(num, args);

    // exec prepared a new image for this thread?
    if (thread_.hasPendingExec) {
        thread_.hasPendingExec = false;
        // User-side state died with the old image.
        scratch_ = 0;
        batchArea_ = 0;
        handlers_.clear();
        inInterposer_ = false;
        thread_.deliverSignal = -1;
        throw ExecRequested{};
    }
    if (!inInterposer_)
        pollSignals();
    return result;
}

std::int64_t
Env::syscall(Sys num, SyscallArgs args)
{
    if (interposer_ == nullptr)
        return trapToKernel(num, args);
    inInterposer_ = true;
    std::int64_t result = interposer_->syscall(*this, num, args);
    inInterposer_ = false;
    pollSignals();
    return result;
}

GuestVA
Env::scratch()
{
    // Uncloaked for native processes; cloaked for cloaked processes
    // (their shim then marshals its contents — this is the paper's
    // argument-marshalling path, not an information leak).
    if (scratch_ == 0)
        scratch_ = allocPages(Scratch::pages);
    return scratch_;
}

GuestVA
Env::stagePath(const std::string& path, std::uint64_t at)
{
    if (path.size() > maxPathLen)
        return 0;
    GuestVA va = scratch() + at;
    writeString(va, path);
    return va;
}

GuestVA
Env::batchArea()
{
    if (batchArea_ == 0) {
        // One page fits a full-depth descriptor ring plus completions.
        // Cloaked processes get a cloaked ring: the entries are
        // application state, and the shim is what re-stages them into
        // its kernel-visible (uncloaked) bounce area.
        static_assert(maxBatchDepth *
                              (batchDescBytes + batchCompBytes) <=
                          pageSize,
                      "batch ring no longer fits one page");
        batchArea_ = allocPages(1);
    }
    return batchArea_;
}

std::int64_t
Env::submitBatch(const std::vector<BatchEntry>& entries,
                 std::vector<std::int64_t>& results)
{
    results.clear();
    if (entries.empty() || entries.size() > maxBatchDepth)
        return -errInval;
    GuestVA sub = batchArea();
    GuestVA comp = sub + maxBatchDepth * batchDescBytes;

    const std::size_t n = entries.size();
    DescRing raw;
    auto sbytes = std::span(raw).first(n * batchDescBytes);
    for (std::size_t i = 0; i < n; ++i) {
        // App-level echo is just the slot index; the shim substitutes
        // its own private tokens on the kernel-facing ring.
        BatchDesc d{entries[i].num, entries[i].args, i, 0};
        encodeDescs(std::span(&d, 1), sbytes.subspan(i * batchDescBytes));
    }
    writeBytes(sub, sbytes);

    std::int64_t r = syscall(Sys::SubmitBatch, {sub, comp, n});
    if (r < 0)
        return r;

    CompRing craw;
    auto cbytes = std::span(craw).first(n * batchCompBytes);
    std::array<BatchComp, maxBatchDepth> comps;
    readBytes(comp, cbytes);
    decodeComps(cbytes, comps);
    for (const BatchComp& c : std::span(comps).first(n))
        results.push_back(static_cast<std::int64_t>(c.result));
    return r;
}

[[noreturn]] void
Env::exit(int status)
{
    syscall(Sys::Exit, {static_cast<std::uint64_t>(status)});
    osh_panic("exit returned");
}

std::int64_t
Env::mmap(std::uint64_t len, std::uint64_t prot, std::uint64_t flags,
          std::uint64_t fd, std::uint64_t offset)
{
    return syscall(Sys::Mmap, {len, prot, flags, fd, offset});
}

GuestVA
Env::allocPages(std::uint64_t pages)
{
    bool cloaked = kernel_.process(thread_.pid).cloaked;
    std::uint64_t flags = mapAnon | (cloaked ? mapCloaked : 0);
    std::int64_t va =
        mmap(pages * pageSize, protRead | protWrite, flags);
    osh_assert(va > 0, "allocPages failed");
    return static_cast<GuestVA>(va);
}

GuestVA
Env::allocUncloakedPages(std::uint64_t pages)
{
    std::int64_t va = mmap(pages * pageSize, protRead | protWrite, mapAnon);
    osh_assert(va > 0, "allocUncloakedPages failed");
    return static_cast<GuestVA>(va);
}

std::int64_t
Env::open(const std::string& path, std::uint64_t flags)
{
    GuestVA s = stagePath(path);
    return s == 0 ? -errInval : syscall(Sys::Open, {s, flags});
}

std::int64_t
Env::fstat(std::uint64_t fd, StatBuf& out)
{
    GuestVA s = scratch() + Scratch::statOut;
    std::int64_t r = syscall(Sys::Fstat, {fd, s});
    if (r == 0) {
        std::array<std::uint8_t, sizeof(StatBuf)> raw;
        readBytes(s, raw);
        std::memcpy(&out, raw.data(), sizeof(out));
    }
    return r;
}

std::int64_t
Env::unlink(const std::string& path)
{
    GuestVA s = stagePath(path);
    return s == 0 ? -errInval : syscall(Sys::Unlink, {s});
}

std::int64_t
Env::mkdir(const std::string& path)
{
    GuestVA s = stagePath(path);
    return s == 0 ? -errInval : syscall(Sys::Mkdir, {s});
}

std::int64_t
Env::readdir(std::uint64_t fd, std::uint64_t index, std::string& name_out)
{
    GuestVA s = scratch() + Scratch::readDirOut;
    std::int64_t r =
        syscall(Sys::ReadDir, {fd, index, s, Scratch::readDirMax});
    if (r >= 0)
        name_out = readString(s, Scratch::readDirMax);
    return r;
}

std::int64_t
Env::rename(const std::string& from, const std::string& to)
{
    // Back to back: a long source must not run into the target.
    GuestVA s = stagePath(from);
    GuestVA t = s == 0 ? 0 : stagePath(to, from.size() + 1);
    return t == 0 ? -errInval : syscall(Sys::Rename, {s, t});
}

std::int64_t
Env::pipe(int& read_fd, int& write_fd)
{
    GuestVA s = scratch() + Scratch::pipeOut;
    std::int64_t r = syscall(Sys::Pipe, {s});
    if (r == 0) {
        read_fd = static_cast<int>(load32(s));
        write_fd = static_cast<int>(load32(s + 4));
    }
    return r;
}

std::int64_t
Env::writeAll(std::uint64_t fd, const std::string& data)
{
    // Stage through a private buffer in guest memory.
    std::uint64_t pages = roundUpToPage(std::max<std::uint64_t>(
                              data.size(), 1)) / pageSize;
    GuestVA buf = allocPages(pages);
    writeBytes(buf, std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
    std::int64_t r = write(fd, buf, data.size());
    munmap(buf);
    return r;
}

std::string
Env::readSome(std::uint64_t fd, std::size_t n)
{
    std::uint64_t pages =
        roundUpToPage(std::max<std::uint64_t>(n, 1)) / pageSize;
    GuestVA buf = allocPages(pages);
    std::int64_t r = read(fd, buf, n);
    std::string out;
    if (r > 0) {
        std::vector<std::uint8_t> bytes(static_cast<std::size_t>(r));
        readBytes(buf, bytes);
        out.assign(reinterpret_cast<const char*>(bytes.data()),
                   bytes.size());
    }
    munmap(buf);
    return out;
}

Pid
Env::fork(ForkBody child_body)
{
    // Parked for sys_fork, as sys_exec parks the image it prepares.
    thread_.pendingForkBody = std::move(child_body);
    return static_cast<Pid>(syscall(Sys::Fork));
}

std::optional<SyscallArgs>
Env::stageProgram(const std::string& program,
                  const std::vector<std::string>& argv)
{
    std::string blob;
    for (const std::string& a : argv) {
        blob += a;
        blob.push_back('\0');
    }
    // The blob goes right after the name.
    std::uint64_t at = program.size() + 1;
    if (program.size() > maxPathLen || blob.size() > Scratch::bytes - at)
        return std::nullopt;
    GuestVA s = stagePath(program);
    GuestVA blob_va = 0;
    if (!blob.empty()) {
        blob_va = s + at;
        writeBytes(blob_va, std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(blob.data()),
            blob.size()));
    }
    return SyscallArgs{s, blob_va, blob.size()};
}

Pid
Env::spawn(const std::string& program, const std::vector<std::string>& argv)
{
    std::optional<SyscallArgs> args = stageProgram(program, argv);
    if (!args)
        return static_cast<Pid>(-errInval);
    return static_cast<Pid>(syscall(Sys::Spawn, *args));
}

[[noreturn]] void
Env::exec(const std::string& program, const std::vector<std::string>& argv)
{
    std::optional<SyscallArgs> args = stageProgram(program, argv);
    std::int64_t r = args ? syscall(Sys::Exec, *args) : -errInval;
    // On success the syscall path throws ExecRequested before we get
    // here; reaching this point means the exec failed.
    osh_panic("exec('%s') failed: %lld", program.c_str(),
              static_cast<long long>(r));
}

std::int64_t
Env::waitpid(Pid pid, int* status)
{
    GuestVA s = scratch() + Scratch::waitOut;
    std::int64_t r = syscall(
        Sys::WaitPid, {static_cast<std::uint64_t>(pid), status ? s : 0});
    if (r > 0 && status != nullptr)
        *status = static_cast<int>(load32(s));
    return r;
}

void
Env::onSignal(int sig, std::function<void(Env&, int)> handler)
{
    std::uint64_t token = nextHandlerToken_++;
    handlers_[token] = std::move(handler);
    syscall(Sys::SigAction,
            {static_cast<std::uint64_t>(sig), token});
}

void
Env::pollSignals()
{
    if (inSignalHandler_ || thread_.deliverSignal < 0)
        return;
    int sig = thread_.deliverSignal;
    std::uint64_t token = thread_.deliverSignalToken;
    thread_.deliverSignal = -1;
    thread_.deliverSignalToken = 0;
    auto it = handlers_.find(token);
    if (it == handlers_.end()) {
        osh_warn("signal %d delivered with unknown handler token", sig);
        return;
    }
    inSignalHandler_ = true;
    it->second(*this, sig);
    inSignalHandler_ = false;
}

} // namespace osh::os
