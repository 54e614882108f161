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
#include <memory>
#include <optional>
#include <string>

namespace osh::cloak
{

/** The per-process cloaked shim. */
class Shim : public os::SyscallInterposer
{
  public:
    /**
     * Attested start of a cloaked process: pick its domain, confer the
     * domain's view on the vCPU and build the shim. The domain is, in
     * this order, the one the process already names (a restored
     * process, whose domain the migrate layer imported), the parent's
     * domain conferred through @p fork_token (a fork child), or a
     * fresh one for the program's identity (a launch), all within one
     * world switch. A fork attach the VMM refuses kills the child.
     */
    static std::unique_ptr<Shim> attach(CloakEngine& engine, os::Env& env,
                                        std::uint64_t fork_token);

    ~Shim() override;

    Shim(const Shim&) = delete;
    Shim& operator=(const Shim&) = delete;

    /** Is @p path a protected file (under "/cloaked")? */
    bool isProtectedPath(const std::string& path) const;

    // os::SyscallInterposer ------------------------------------------------
    std::int64_t syscall(os::Env& env, os::Sys num,
                         const os::SyscallArgs& args) override;
    /** The secure control transfer around every kernel entry. */
    std::int64_t kernelEntry(os::Env& env, os::Sys num,
                             const os::SyscallArgs& args) override;

  private:
    /** @param domain The domain this shim's process runs in. */
    Shim(CloakEngine& engine, DomainId domain, os::Env& env);

    /** An open protected file, served via its cloaked mapping. */
    struct CloakedFile
    {
        std::uint64_t fd = 0;
        ResourceId resource = 0;
        GuestVA mapVa = 0;
        std::uint64_t mapPages = 0;
        std::uint64_t size = 0;
        std::uint64_t offset = 0;
        bool writable = false; ///< Opened with os::openWrite.
    };

    /**
     * Adopt the domain's layout (a fork child or restored process
     * inherits it), or else register the loader's cloaked regions and
     * allocate the CTC page and bounce area; then bind the thread and
     * interpose on the Env. A CTC page or bounce area over a region
     * kills.
     */
    void initialize();

    /** Stop interposing (before exec / exit). */
    void detach();

    /** Trap with secure control transfer. */
    std::int64_t trap(os::Sys num, const os::SyscallArgs& args);

    /** Guest-to-guest memory copy through a host staging buffer. */
    void copyGuest(GuestVA dst, GuestVA src, std::uint64_t len);

    /** Copy a string into the bounce area's strings, @p at bytes in;
     *  returns its VA. */
    GuestVA stageString(const std::string& s, std::uint64_t at = 0);

    /** Stage spawn/exec's {name, argv blob, blob length}; returns the
     *  arguments the kernel call takes and sets @p name, or nullopt
     *  for an over-long name (-errNameTooLong). */
    std::optional<os::SyscallArgs>
    stageProgram(const os::SyscallArgs& args, std::string& name);

    /**
     * The one marshalled transfer: read, write, pread or pwrite (@p num
     * gives the direction) of a non-protected fd, in chunks through
     * the bounce area's data pages. @p at is pread/pwrite's file
     * offset; without it the kernel's cursor moves.
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
     * Batched submission (Sys::SubmitBatch from a cloaked process), at
     * every depth: reads the app's descriptor ring out of cloaked
     * memory once, stages kernel-bound calls into the bounce area's
     * data pages and kernel-facing ring and dispatches them in ONE
     * secure control transfer, then validates every completion (echo
     * token + result bounds) before copying data back. Emulated calls
     * and transfers larger than the data pages go through syscall()
     * in order. args = {app submission VA, app completion VA, count}.
     */
    std::int64_t shimSubmitBatch(const os::SyscallArgs& args);

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

    /** Kill unless @p registered: the kernel put @p what over a region. */
    void requireRegistered(bool registered, const char* what);

    /** @p fd, a descriptor the kernel's @p num just handed out. One
     *  the shim already serves as a protected file is a kernel
     *  violation: the app's plain I/O on it would reach that file's
     *  plaintext. */
    std::int64_t newFd(os::Sys num, std::int64_t fd);

    static std::uint64_t pathKey(const std::string& path);

    CloakEngine& engine_;
    DomainId domain_;
    os::Env& env_;

    /** The bounce area's base: the domain's bounceVa, cached. */
    GuestVA bounceVa_ = 0;

    /**
     * The bounce area, the shim's one uncloaked region: mapped at
     * attach, inherited by fork children and restored processes, and
     * the only memory the kernel reads or writes for a cloaked call.
     * Everything staged here is data the kernel must see anyway.
     *
     *   pages 0-15  data: one marshalled transfer chunk, or a batch's
     *               scatter/gather buffers
     *   page 16     path strings from its start (a rename's two, back
     *               to back, may run on through page 18); the out
     *               slots in its upper half. No call stages a path and
     *               reads an out slot at once.
     *   page 19     the kernel-facing submission ring, then the
     *               completion ring
     */
    struct Bounce
    {
        static constexpr std::uint64_t pages = bouncePages;
        static constexpr std::uint64_t dataBytes = 16 * pageSize;
        static constexpr std::uint64_t strings = dataBytes;
        static constexpr std::uint64_t readDirMax = 512;
        static constexpr std::uint64_t readDirOut = strings + 2048;
        static constexpr std::uint64_t statOut = strings + 3 * 1024;
        static constexpr std::uint64_t pipeOut = statOut + 256;
        static constexpr std::uint64_t waitOut = statOut + 512;
        static constexpr std::uint64_t submitRing = 19 * pageSize;
        static constexpr std::uint64_t completionRing =
            submitRing + os::maxBatchDepth * os::batchDescBytes;
    };
    static_assert(Bounce::readDirOut + Bounce::readDirMax + 1 <=
                      Bounce::statOut &&
                  Bounce::statOut + sizeof(os::StatBuf) <= Bounce::pipeOut &&
                  Bounce::pipeOut + 8 <= Bounce::waitOut &&
                  Bounce::waitOut + 4 <= Bounce::strings + pageSize,
                  "bounce out slots overlap");
    static_assert(Bounce::strings + 2 * (os::maxPathLen + 1) <=
                      Bounce::submitRing,
                  "two maximal paths no longer fit before the rings");
    static_assert(Bounce::completionRing +
                          os::maxBatchDepth * os::batchCompBytes <=
                      Bounce::pages * pageSize,
                  "kernel-facing rings no longer fit the bounce area");

    std::uint64_t batchNonceState_ = 0x0b5e55ed0a7e4a11ull;

    std::map<std::uint64_t, CloakedFile> cloakedFiles_;
};

} // namespace osh::cloak

#endif // OSH_CLOAK_SHIM_HH
