/**
 * @file
 * System-call numbers, flags and error codes of the guest ABI.
 *
 * Arguments travel in registers r0 (number) and r1..r5; the result comes
 * back in r0 as a non-negative value or a negative Err. Buffers and
 * strings are guest virtual addresses; the kernel moves data with
 * copyin/copyout through its system view — which is precisely where
 * Overshadow's cloaking interposes.
 */

#ifndef OSH_OS_SYSCALLS_HH
#define OSH_OS_SYSCALLS_HH

#include "base/bytes.hh"
#include "base/logging.hh"

#include <array>
#include <cstdint>
#include <span>

namespace osh::os
{

/** System call numbers. */
enum class Sys : std::uint64_t
{
    Exit = 1,
    GetPid = 2,
    GetPpid = 3,
    Yield = 4,
    Clock = 5,       ///< Read the simulated cycle counter.
    Sleep = 6,       ///< Sleep for N cycles (cooperative).

    Mmap = 10,
    Munmap = 11,

    Open = 20,
    Close = 21,
    Read = 22,
    Write = 23,
    Lseek = 24,
    Fstat = 25,
    Unlink = 26,
    Mkdir = 27,
    ReadDir = 28,    ///< Read the name of the i-th directory entry.
    Ftruncate = 29,
    Fsync = 30,
    Rename = 31,
    Pipe = 32,
    Dup = 33,
    Pread = 34,      ///< Positional read: offset argument, fd offset untouched.
    Pwrite = 35,     ///< Positional write: offset argument, fd offset untouched.
    Dup2 = 36,       ///< Duplicate oldfd onto a caller-chosen newfd.
    SubmitBatch = 37,///< Dispatch a ring of syscall descriptors in one trap.

    Spawn = 40,      ///< fork+exec combo: start a program as a child.
    Fork = 41,
    Exec = 42,
    WaitPid = 43,
    Kill = 44,
    SigAction = 45,
    SigPending = 46,
    VmaQuery = 47,   ///< Inspect the i-th VMA of the caller (register ABI).
};

/** Stable name of a syscall number (tracing, diagnostics). */
constexpr const char*
sysName(Sys num)
{
    switch (num) {
      case Sys::Exit: return "exit";
      case Sys::GetPid: return "getpid";
      case Sys::GetPpid: return "getppid";
      case Sys::Yield: return "yield";
      case Sys::Clock: return "clock";
      case Sys::Sleep: return "sleep";
      case Sys::Mmap: return "mmap";
      case Sys::Munmap: return "munmap";
      case Sys::Open: return "open";
      case Sys::Close: return "close";
      case Sys::Read: return "read";
      case Sys::Write: return "write";
      case Sys::Lseek: return "lseek";
      case Sys::Fstat: return "fstat";
      case Sys::Unlink: return "unlink";
      case Sys::Mkdir: return "mkdir";
      case Sys::ReadDir: return "readdir";
      case Sys::Ftruncate: return "ftruncate";
      case Sys::Fsync: return "fsync";
      case Sys::Rename: return "rename";
      case Sys::Pipe: return "pipe";
      case Sys::Dup: return "dup";
      case Sys::Pread: return "pread";
      case Sys::Pwrite: return "pwrite";
      case Sys::Dup2: return "dup2";
      case Sys::SubmitBatch: return "submit_batch";
      case Sys::Spawn: return "spawn";
      case Sys::Fork: return "fork";
      case Sys::Exec: return "exec";
      case Sys::WaitPid: return "waitpid";
      case Sys::Kill: return "kill";
      case Sys::SigAction: return "sigaction";
      case Sys::SigPending: return "sigpending";
      case Sys::VmaQuery: return "vmaquery";
    }
    return "sys_unknown";
}

/** Error codes (returned negated). */
enum Err : std::int64_t
{
    errOk = 0,
    errPerm = 1,
    errNoEnt = 2,
    errSrch = 3,
    errBadF = 9,
    errChild = 10,
    errNoMem = 12,
    errFault = 14,
    errBusy = 16,
    errExist = 17,
    errNotDir = 20,
    errIsDir = 21,
    errInval = 22,
    errNFile = 23,
    errFBig = 27,
    errNoSpc = 28,
    errSPipe = 29,
    errPipe = 32,
    errNameTooLong = 36,
    errNoSys = 38,
};

/**
 * Upper bound on a Sys::Sleep argument (in cycles). ~4.3 billion
 * cycles is hours of simulated time — far beyond any legitimate
 * cooperative sleep — while still a small fraction of the counter's
 * range, so the charge can never overflow or wedge the clock.
 * Larger arguments return -errInval without charging anything.
 */
constexpr std::uint64_t maxSleepCycles = 1ull << 32;

/**
 * Upper bound on a file's size: 64 MiB, 256x the largest file any
 * workload or bench writes. Every path that can grow a file (the
 * kernel's write, ftruncate, the shim's emulated write) refuses an end
 * offset past it, or one that overflows, with -errFBig, so a guest
 * cannot make the host allocate a disk image of its choosing.
 */
constexpr std::uint64_t maxFileBytes = 64ull << 20;

/** The longest path a call reads, in bytes before the terminator; a
 *  longer one is refused with -errNameTooLong (os::readPath). */
constexpr std::size_t maxPathLen = 4096;

/** True if the byte range [off, off + len) ends within maxFileBytes. */
constexpr bool
fileEndFits(std::uint64_t off, std::uint64_t len)
{
    return off <= maxFileBytes && len <= maxFileBytes - off;
}

/** The four data-moving calls: read, write, pread, pwrite. */
constexpr bool
isTransfer(Sys num)
{
    return num == Sys::Read || num == Sys::Write || num == Sys::Pread ||
           num == Sys::Pwrite;
}

/** A transfer that moves file data into the caller's buffer. */
constexpr bool
transfersIn(Sys num)
{
    return num == Sys::Read || num == Sys::Pread;
}

/** A transfer at an explicit offset (args[3]) that leaves the cursor. */
constexpr bool
isPositional(Sys num)
{
    return num == Sys::Pread || num == Sys::Pwrite;
}

/** Syscall arguments (r1..r5). */
using SyscallArgs = std::array<std::uint64_t, 5>;

/** mmap protection bits. */
constexpr std::uint64_t protRead = 1;
constexpr std::uint64_t protWrite = 2;

/** mmap flags. */
constexpr std::uint64_t mapAnon = 1;
constexpr std::uint64_t mapShared = 2;
/**
 * Hint that the region holds cloaked data. This is a resource-management
 * hint for the OS (like a special mmap flag the shim passes); protection
 * itself is enforced purely by the VMM, never by this flag.
 */
constexpr std::uint64_t mapCloaked = 4;

/** open() flags. */
constexpr std::uint64_t openRead = 1;
constexpr std::uint64_t openWrite = 2;
constexpr std::uint64_t openCreate = 4;
constexpr std::uint64_t openTrunc = 8;

/** lseek whence. */
constexpr std::uint64_t seekSet = 0;
constexpr std::uint64_t seekCur = 1;
constexpr std::uint64_t seekEnd = 2;

/** VmaQuery fields (all results fit in the return register, so the
 *  call needs no user-memory operands and passes through the shim). */
constexpr std::uint64_t vmaQueryStart = 0;
constexpr std::uint64_t vmaQueryEnd = 1;
constexpr std::uint64_t vmaQueryFlags = 2;
/** VmaQuery flag bits. */
constexpr std::uint64_t vmaFlagCloaked = 1;
constexpr std::uint64_t vmaFlagAnon = 2;

/** Signals. */
constexpr int sigKill = 9;
constexpr int sigUser1 = 10;
constexpr int sigUser2 = 12;
constexpr int sigTerm = 15;
constexpr int numSignals = 32;

/** fstat result, written to user memory. */
struct StatBuf
{
    std::uint64_t size;
    std::uint32_t isDir;
    std::uint32_t inode;
};

/**
 * Batched-syscall ring ABI (Sys::SubmitBatch).
 *
 * SubmitBatch(sub_va, comp_va, count) names a submission array of
 * `count` descriptors at sub_va and a completion array of `count`
 * entries at comp_va, both in user memory. The kernel copies every
 * descriptor out ONCE before dispatching anything (the caller — for
 * cloaked processes, the shim — likewise copies each completion out
 * once before trusting it), dispatches the batch through the ordinary
 * per-syscall handlers inside the single trap, and writes one
 * completion per descriptor. The return value is the number of
 * completions written, or a negative Err if the ring itself is
 * malformed (bad count, unmapped arrays).
 *
 * Descriptor (8 little-endian u64 words, 64 bytes):
 *   word 0  syscall number (must be batch-whitelisted, see kernel)
 *   word 1..5  arguments r1..r5
 *   word 6  echo token, copied verbatim into the completion
 *   word 7  reserved, must be 0
 *
 * Completion (2 little-endian u64 words, 16 bytes):
 *   word 0  result (r0 of the dispatched call)
 *   word 1  the descriptor's echo token
 *
 * The echo token exists for the cloaked path: the shim draws tokens
 * from a private stream, and a completion whose token does not match
 * what the shim wrote proves the (hostile) kernel forged or reordered
 * completions — grounds for a cloak-violation kill, never for trusting
 * the data.
 */
constexpr std::uint64_t batchDescWords = 8;
constexpr std::uint64_t batchDescBytes = batchDescWords * 8;
constexpr std::uint64_t batchCompWords = 2;
constexpr std::uint64_t batchCompBytes = batchCompWords * 8;
/** Hard ring capacity: a batch deeper than this is rejected whole. */
constexpr std::uint64_t maxBatchDepth = 32;

/** One batch descriptor, host-side view (serialized little-endian). */
struct BatchDesc
{
    Sys num = Sys::GetPid;
    SyscallArgs args{};
    std::uint64_t echo = 0;
    std::uint64_t reserved = 0;
};

/** One batch completion, host-side view. */
struct BatchComp
{
    std::uint64_t result = 0;
    std::uint64_t echo = 0;
};

/*
 * Ring codec: the only code that packs or unpacks the layouts above.
 * Kernel, shim, Env and the attack director all go through it, so a
 * check on ring bytes has one place to live. Every side works in
 * storage it owns (at most maxBatchDepth entries), so a batch costs no
 * heap allocation. Encoders fill the front of @p raw, which must hold
 * every entry. Decoders take whole entries only, ignore a trailing
 * partial one, and return how many they wrote to @p out, which must
 * hold them all.
 */
// Fixed layout, no length from ring bytes, no allocation: no PayloadReader.

inline void
encodeDescs(std::span<const BatchDesc> descs, std::span<std::uint8_t> raw)
{
    osh_assert(raw.size() >= descs.size() * batchDescBytes,
               "descriptor ring too small");
    std::uint8_t* p = raw.data();
    for (const BatchDesc& d : descs) {
        storeLe64(p, static_cast<std::uint64_t>(d.num));
        for (std::size_t a = 0; a < d.args.size(); ++a)
            storeLe64(p + 8 * (a + 1), d.args[a]);
        storeLe64(p + 48, d.echo);
        storeLe64(p + 56, d.reserved);
        p += batchDescBytes;
    }
}

inline std::size_t
decodeDescs(std::span<const std::uint8_t> raw, std::span<BatchDesc> out)
{
    const std::size_t n = raw.size() / batchDescBytes;
    osh_assert(out.size() >= n, "descriptor buffer too small");
    const std::uint8_t* p = raw.data();
    for (BatchDesc& d : out.first(n)) {
        d.num = static_cast<Sys>(loadLe64(p));
        for (std::size_t a = 0; a < d.args.size(); ++a)
            d.args[a] = loadLe64(p + 8 * (a + 1));
        d.echo = loadLe64(p + 48);
        d.reserved = loadLe64(p + 56);
        p += batchDescBytes;
    }
    return n;
}

inline void
encodeComps(std::span<const BatchComp> comps, std::span<std::uint8_t> raw)
{
    osh_assert(raw.size() >= comps.size() * batchCompBytes,
               "completion ring too small");
    std::uint8_t* p = raw.data();
    for (const BatchComp& c : comps) {
        storeLe64(p, c.result);
        storeLe64(p + 8, c.echo);
        p += batchCompBytes;
    }
}

inline std::size_t
decodeComps(std::span<const std::uint8_t> raw, std::span<BatchComp> out)
{
    const std::size_t n = raw.size() / batchCompBytes;
    osh_assert(out.size() >= n, "completion buffer too small");
    const std::uint8_t* p = raw.data();
    for (BatchComp& c : out.first(n)) {
        c.result = loadLe64(p);
        c.echo = loadLe64(p + 8);
        p += batchCompBytes;
    }
    return n;
}

/** Storage for one full ring of descriptors or completions. */
using DescRing = std::array<std::uint8_t, maxBatchDepth * batchDescBytes>;
using CompRing = std::array<std::uint8_t, maxBatchDepth * batchCompBytes>;

} // namespace osh::os

#endif // OSH_OS_SYSCALLS_HH
