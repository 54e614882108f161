/**
 * @file
 * The cloaked shim.
 *
 * Overshadow loads a small shim into every cloaked application. It
 * interposes on all system calls and adapts each one so the untrusted
 * kernel can service it without ever seeing plaintext:
 *
 *   - *Pass-through* calls carry no memory references (getpid, yield,
 *     close, ...) and trap straight through.
 *   - *Marshalled* calls carry buffers or strings; the shim copies them
 *     between cloaked memory and an uncloaked bounce buffer and
 *     rewrites the pointers, so the kernel only ever touches the
 *     bounce pages.
 *   - *Emulated* calls are file I/O on protected files: the shim maps
 *     the cloaked file into the address space once and turns read()/
 *     write()/lseek() into memory copies against the mapping — the
 *     paper's "transparent memory-mapped emulation of I/O calls". Data
 *     never crosses the kernel in plaintext, and the page cache holds
 *     ciphertext from the kernel's point of view.
 *
 * Files under "/cloaked" are treated as protected; everything else
 * (pipes, ordinary files) is marshalled.
 */

#ifndef OSH_CLOAK_SHIM_HH
#define OSH_CLOAK_SHIM_HH

#include "base/types.hh"
#include "cloak/engine.hh"
#include "os/env.hh"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace osh::cloak
{

/** The per-process cloaked shim. */
class Shim : public os::SyscallInterposer
{
  public:
    /**
     * @param engine The cloak engine.
     * @param domain The domain this shim's process runs in.
     * @param env The process's environment.
     */
    Shim(CloakEngine& engine, DomainId domain, os::Env& env);

    /**
     * Allocate the CTC page and bounce buffers, register the existing
     * cloaked regions (stack, code) with the VMM and install the
     * interposer + secure-trap hook on the Env.
     *
     * @param inherit_from Present for fork children: the parent shim's
     *        layout (regions already attached via fork; only hooks and
     *        tables need rebuilding).
     */
    struct InheritedLayout
    {
        GuestVA ctcVa;
        GuestVA bounceVa;
    };
    void initialize(const std::optional<InheritedLayout>& inherit = {});

    /** Tear down hooks (before exec / exit). */
    void detach();

    GuestVA ctcVa() const { return ctcVa_; }
    GuestVA bounceVa() const { return bounceVa_; }

    /** Cloak fork token minted at the last Fork syscall (consumed by
     *  the system layer when starting the child). */
    std::uint64_t takePendingForkToken();

    /** Is @p path a protected file (under "/cloaked")? */
    bool isProtectedPath(const std::string& path) const;

    // os::SyscallInterposer ------------------------------------------------
    std::int64_t syscall(os::Env& env, os::Sys num,
                         const os::SyscallArgs& args) override;

  private:
    /** An open protected file, served via its cloaked mapping. */
    struct CloakedFile
    {
        std::uint64_t fd = 0;
        std::string path;
        std::uint64_t fileKey = 0;
        ResourceId resource = 0;
        GuestVA mapVa = 0;
        std::uint64_t mapPages = 0;
        std::uint64_t size = 0;
        std::uint64_t offset = 0;
        bool writable = false; ///< Opened with os::openWrite.
    };

    /** Trap with secure control transfer. */
    std::int64_t trap(os::Sys num, const os::SyscallArgs& args);

    /** Guest-to-guest memory copy through a host staging buffer. */
    void copyGuest(GuestVA dst, GuestVA src, std::uint64_t len);

    /** Copy a string into the bounce area; returns its VA. */
    GuestVA stageString(const std::string& s, std::uint64_t slot);

    /**
     * The one marshalled transfer: read, write, pread or pwrite (@p num
     * gives the direction) of a non-protected fd, in bounce-buffer
     * chunks. @p at is pread/pwrite's file offset; without it the
     * kernel's cursor moves.
     */
    std::int64_t marshalledIo(os::Sys num, std::uint64_t fd,
                              GuestVA user_buf, std::uint64_t len,
                              std::optional<std::uint64_t> at);
    std::int64_t shimOpen(const os::SyscallArgs& args);
    std::int64_t shimMmap(const os::SyscallArgs& args);
    std::int64_t shimMunmap(const os::SyscallArgs& args);
    std::int64_t shimExec(const os::SyscallArgs& args);
    std::int64_t shimFork(const os::SyscallArgs& args);

    std::int64_t openProtected(const std::string& path,
                               std::uint64_t flags);
    /**
     * The emulated transfers: copies against the cloaked mapping of a
     * protected file. @p at is pread/pwrite's offset; without it the
     * shim's cursor is used and advanced. A write refuses a range
     * ending past os::maxFileBytes with -errFBig, as the kernel does.
     */
    std::int64_t emulatedRead(CloakedFile& cf, GuestVA buf,
                              std::uint64_t len,
                              std::optional<std::uint64_t> at);
    std::int64_t emulatedWrite(CloakedFile& cf, GuestVA buf,
                               std::uint64_t len,
                               std::optional<std::uint64_t> at);
    std::int64_t emulatedLseek(CloakedFile& cf, std::int64_t off,
                               std::uint64_t whence);
    std::int64_t growMapping(CloakedFile& cf, std::uint64_t new_size);
    std::int64_t closeProtected(std::uint64_t fd);

    /**
     * Which calls the shim serves itself: the protected file an fd
     * call names (dup2: the fd it would close), or nullptr when the
     * kernel serves the call. syscall() and shimSubmitBatch() both
     * route by this one predicate.
     */
    CloakedFile* localFile(os::Sys num, const os::SyscallArgs& args);

    /**
     * Batched submission (Sys::SubmitBatch from a cloaked process):
     * reads the app's descriptor ring out of cloaked memory once,
     * serves emulated calls locally, stages the rest into the marshal
     * arena's kernel-facing ring and dispatches them in ONE secure
     * control transfer, then validates every completion (echo token +
     * result bounds) before copying data back. args = {app submission
     * VA, app completion VA, count}.
     */
    std::int64_t shimSubmitBatch(const os::SyscallArgs& args);

    /** Lazily allocate the persistent uncloaked marshal arena. */
    GuestVA marshalArena();

    /** Next echo token from the shim's private stream. */
    std::uint64_t nextBatchNonce();

    /** Kill this process as a cloak violation: a kernel result broke
     *  the contract of the call or the syscall ring (@p what), counted
     *  under @p stat. */
    [[noreturn]] void kernelViolation(StatSlot stat,
                                      const std::string& what);

    /** Cloak @p pages at @p va, an address the kernel's mmap returned
     *  (backed by @p resource, 0 for a fresh one). An address that
     *  overlaps a protected region is a kernel violation. */
    void registerMapping(std::int64_t va, std::uint64_t pages,
                         ResourceId resource);

    /** @p fd, a descriptor the kernel's @p num just handed out. One
     *  the shim already serves as a protected file is a kernel
     *  violation: the app's plain I/O on it would reach that file's
     *  plaintext. */
    std::int64_t newFd(os::Sys num, std::int64_t fd);

    static std::uint64_t pathKey(const std::string& path);

    CloakEngine& engine_;
    DomainId domain_;
    os::Env& env_;

    GuestVA ctcVa_ = 0;
    GuestVA bounceVa_ = 0;
    static constexpr std::uint64_t bouncePages_ = 20;
    /** Bytes of bounce space usable for data staging. */
    static constexpr std::uint64_t bounceDataBytes = 16 * pageSize;

    /**
     * Persistent marshal arena for batched submission: page 0 holds the
     * kernel-facing submission ring, page 1 the completion ring, and
     * the rest is scatter/gather data staging. Allocated on the first
     * batch deeper than 1 and reused for the life of the shim, so a
     * busy server pays the setup once instead of per call. Uncloaked by
     * construction — everything staged here is data the kernel would
     * see on the legacy marshalled path anyway.
     */
    GuestVA arenaVa_ = 0;
    static constexpr std::uint64_t arenaDataPages_ = 16;
    static constexpr std::uint64_t arenaPages_ = 2 + arenaDataPages_;
    std::uint64_t batchNonceState_ = 0x0b5e55ed0a7e4a11ull;

    std::map<std::uint64_t, CloakedFile> cloakedFiles_;
    std::vector<std::uint64_t> pendingForkTokens_;
};

} // namespace osh::cloak

#endif // OSH_CLOAK_SHIM_HH
