/**
 * @file
 * Env: the user-space view a guest program runs against.
 *
 * Every guest program receives an Env. It provides:
 *   - guest memory access through the thread's Vcpu (all loads/stores
 *     take the full MMU path: shadow faults, guest faults, cloaking);
 *   - the system-call interface, with one interposition point used by
 *     the Overshadow runtime: a SyscallInterposer (the cloaked shim),
 *     which marshals/emulates every call and wraps every kernel entry
 *     in the secure control transfer that saves/scrubs/restores
 *     registers;
 *   - user-side conveniences (typed syscall wrappers, signal handler
 *     dispatch, fork bodies).
 */

#ifndef OSH_OS_ENV_HH
#define OSH_OS_ENV_HH

#include "base/types.hh"
#include "os/exceptions.hh"
#include "os/kernel.hh"
#include "os/syscalls.hh"
#include "os/thread.hh"

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace osh::os
{

class Env;

/** One call of a batched submission (Env::submitBatch). */
struct BatchEntry
{
    Sys num = Sys::GetPid;
    SyscallArgs args{};
};

/** Interposes on every syscall a program issues (the cloaked shim). */
class SyscallInterposer
{
  public:
    virtual ~SyscallInterposer() = default;

    /** Serve a call the program issued (Env::syscall). */
    virtual std::int64_t syscall(Env& env, Sys num,
                                 const SyscallArgs& args) = 0;

    /** Enter the kernel for one trap (Env::trapToKernel); calls
     *  Env::rawKernelEntry inside whatever it wraps around it. */
    virtual std::int64_t kernelEntry(Env& env, Sys num,
                                     const SyscallArgs& args) = 0;
};

/** The user-space execution environment of one guest thread. */
class Env
{
  public:
    Env(Kernel& kernel, Thread& thread);

    Thread& thread() { return thread_; }
    Kernel& kernel() { return kernel_; }
    Process& process() { return kernel_.process(thread_.pid); }
    vmm::Vcpu& vcpu() { return thread_.vcpu; }
    vmm::RegisterFile& regs() { return thread_.vcpu.regs(); }

    /** Program arguments. */
    const std::vector<std::string>& args() const;

    // Guest memory (full MMU path) --------------------------------------
    std::uint8_t load8(GuestVA va) { return thread_.vcpu.load8(va); }
    std::uint64_t load64(GuestVA va) { return thread_.vcpu.load64(va); }
    std::uint32_t load32(GuestVA va) { return thread_.vcpu.load32(va); }
    void store8(GuestVA va, std::uint8_t v) { thread_.vcpu.store8(va, v); }
    void store32(GuestVA va, std::uint32_t v)
    {
        thread_.vcpu.store32(va, v);
    }
    void store64(GuestVA va, std::uint64_t v)
    {
        thread_.vcpu.store64(va, v);
    }
    void
    readBytes(GuestVA va, std::span<std::uint8_t> out)
    {
        thread_.vcpu.readBytes(va, out);
    }
    void
    writeBytes(GuestVA va, std::span<const std::uint8_t> data)
    {
        thread_.vcpu.writeBytes(va, data);
    }
    void writeString(GuestVA va, const std::string& s);
    std::string readString(GuestVA va, std::size_t max = maxPathLen);

    // Syscall plumbing ----------------------------------------------------

    /**
     * Issue a system call. Routed through the interposer when one is
     * installed (cloaked processes); otherwise traps directly. Signal
     * handlers run once the whole call is done, not at an interposer's
     * inner traps: the shim's bounce area still holds the interrupted
     * call's data there, which a handler's own I/O would overwrite.
     */
    std::int64_t syscall(Sys num, SyscallArgs args = {});

    /**
     * Trap into the kernel without the interposer's marshalling (the
     * shim uses this after marshalling), through its kernelEntry
     * (the secure control transfer) when one is installed.
     */
    std::int64_t trapToKernel(Sys num, const SyscallArgs& args);

    void setInterposer(SyscallInterposer* in) { interposer_ = in; }

    /** The bare kernel entry (the interposer's kernelEntry calls it). */
    std::int64_t rawKernelEntry(Sys num, const SyscallArgs& args);

    // Typed wrappers -------------------------------------------------------
    [[noreturn]] void exit(int status);
    Pid getpid() { return static_cast<Pid>(syscall(Sys::GetPid)); }
    Pid getppid() { return static_cast<Pid>(syscall(Sys::GetPpid)); }
    void yield() { syscall(Sys::Yield); }
    Cycles clock()
    {
        return static_cast<Cycles>(syscall(Sys::Clock));
    }
    void sleep(Cycles c) { syscall(Sys::Sleep, {c}); }

    /** mmap; returns VA or negative error. */
    std::int64_t mmap(std::uint64_t len, std::uint64_t prot,
                      std::uint64_t flags, std::uint64_t fd = ~0ull,
                      std::uint64_t offset = 0);
    std::int64_t munmap(GuestVA va) { return syscall(Sys::Munmap, {va}); }

    /**
     * Allocate anonymous pages. Cloaked processes get cloaked pages by
     * default (their heap is private data).
     */
    GuestVA allocPages(std::uint64_t pages);
    GuestVA allocUncloakedPages(std::uint64_t pages);

    std::int64_t open(const std::string& path, std::uint64_t flags);
    std::int64_t close(std::uint64_t fd)
    {
        return syscall(Sys::Close, {fd});
    }
    std::int64_t read(std::uint64_t fd, GuestVA buf, std::uint64_t len)
    {
        return syscall(Sys::Read, {fd, buf, len});
    }
    std::int64_t write(std::uint64_t fd, GuestVA buf, std::uint64_t len)
    {
        return syscall(Sys::Write, {fd, buf, len});
    }
    std::int64_t lseek(std::uint64_t fd, std::int64_t off,
                       std::uint64_t whence)
    {
        return syscall(Sys::Lseek,
                       {fd, static_cast<std::uint64_t>(off), whence});
    }
    std::int64_t pread(std::uint64_t fd, GuestVA buf, std::uint64_t len,
                       std::uint64_t off)
    {
        return syscall(Sys::Pread, {fd, buf, len, off});
    }
    std::int64_t pwrite(std::uint64_t fd, GuestVA buf, std::uint64_t len,
                        std::uint64_t off)
    {
        return syscall(Sys::Pwrite, {fd, buf, len, off});
    }
    std::int64_t fstat(std::uint64_t fd, StatBuf& out);
    std::int64_t unlink(const std::string& path);
    std::int64_t mkdir(const std::string& path);
    std::int64_t readdir(std::uint64_t fd, std::uint64_t index,
                         std::string& name_out);
    std::int64_t ftruncate(std::uint64_t fd, std::uint64_t size)
    {
        return syscall(Sys::Ftruncate, {fd, size});
    }
    std::int64_t fsync(std::uint64_t fd)
    {
        return syscall(Sys::Fsync, {fd});
    }
    std::int64_t rename(const std::string& from, const std::string& to);
    std::int64_t pipe(int& read_fd, int& write_fd);
    std::int64_t dup(std::uint64_t fd) { return syscall(Sys::Dup, {fd}); }
    std::int64_t dup2(std::uint64_t oldfd, std::uint64_t newfd)
    {
        return syscall(Sys::Dup2, {oldfd, newfd});
    }

    /**
     * Submit @p entries as one batched kernel entry (Sys::SubmitBatch):
     * the calls are staged into this Env's ring pages, dispatched in
     * one trap, and the per-call results land in @p results (same
     * order). Returns the number of completions, or a negative error
     * if the batch itself was rejected. Cloaked processes route this
     * through the shim, which re-stages the ring in its uncloaked
     * bounce area and validates every completion.
     */
    std::int64_t submitBatch(const std::vector<BatchEntry>& entries,
                             std::vector<std::int64_t>& results);

    /** Convenience: write a whole string to a descriptor. */
    std::int64_t writeAll(std::uint64_t fd, const std::string& data);
    /** Convenience: read up to n bytes into a host string. */
    std::string readSome(std::uint64_t fd, std::size_t n);

    /** fork: the child runs @p child_body and exits with its result. */
    Pid fork(ForkBody child_body);

    /** spawn: start @p program as a child process (fork+exec combo). */
    Pid spawn(const std::string& program,
              const std::vector<std::string>& argv = {});

    /** exec: replace this process image. Throws ExecRequested. */
    [[noreturn]] void exec(const std::string& program,
                           const std::vector<std::string>& argv = {});

    std::int64_t waitpid(Pid pid, int* status = nullptr);
    std::int64_t kill(Pid pid, int sig)
    {
        return syscall(Sys::Kill,
                       {static_cast<std::uint64_t>(pid),
                        static_cast<std::uint64_t>(sig)});
    }

    /** Query the i-th VMA of this process (register-only ABI). */
    std::int64_t vmaQuery(std::uint64_t index, std::uint64_t field)
    {
        return syscall(Sys::VmaQuery, {index, field});
    }

    /** Register a user signal handler (runs at syscall boundaries). */
    void onSignal(int sig, std::function<void(Env&, int)> handler);

    /** Deliver any pending signal marker (called after each syscall). */
    void pollSignals();

  private:
    /**
     * Layout of the scratch area, which holds one call's kernel-facing
     * operands. Strings go back to back from its base: rename's two
     * paths, or spawn/exec's program name and argv blob. The out slots
     * of fstat, readdir, pipe and waitpid lie in its first page; no
     * call stages both strings and an out slot.
     */
    struct Scratch
    {
        static constexpr std::uint64_t pages = 3;
        static constexpr std::uint64_t bytes = pages * pageSize;
        static constexpr std::uint64_t statOut = 512;
        static constexpr std::uint64_t readDirOut = 1024;
        static constexpr std::uint64_t readDirMax = 256;
        static constexpr std::uint64_t pipeOut = 2048;
        static constexpr std::uint64_t waitOut = 3072;
    };
    static_assert(2 * (maxPathLen + 1) <= Scratch::bytes,
                  "two maximal paths no longer fit the scratch area");
    static_assert(Scratch::statOut + sizeof(StatBuf) <= Scratch::readDirOut &&
                      Scratch::readDirOut + Scratch::readDirMax + 1 <=
                          Scratch::pipeOut &&
                      Scratch::pipeOut + 8 <= Scratch::waitOut &&
                      Scratch::waitOut + 4 <= pageSize,
                  "scratch out slots overlap");

    /** The scratch area (allocated on first use). */
    GuestVA scratch();

    /** Write @p path at @p at in the scratch area and return its
     *  address, or 0 if it is longer than maxPathLen. */
    GuestVA stagePath(const std::string& path, std::uint64_t at = 0);

    /** Stage spawn/exec's name and argv blob in the scratch area;
     *  returns the call's {name, blob, blob length}, or nullopt if
     *  the name is too long or the blob does not fit after it. */
    std::optional<SyscallArgs>
    stageProgram(const std::string& program,
                 const std::vector<std::string>& argv);

    /** Ring page for submitBatch (descriptors + completions). */
    GuestVA batchArea();

    Kernel& kernel_;
    Thread& thread_;
    SyscallInterposer* interposer_ = nullptr;

    GuestVA scratch_ = 0;
    GuestVA batchArea_ = 0;
    std::uint64_t nextHandlerToken_ = 1;
    std::map<std::uint64_t, std::function<void(Env&, int)>> handlers_;
    bool inSignalHandler_ = false;
    bool inInterposer_ = false; ///< Handlers wait for the call's end.
};

} // namespace osh::os

#endif // OSH_OS_ENV_HH
