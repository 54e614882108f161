#include "workloads/workloads.hh"

#include "base/bytes.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "os/env.hh"
#include "os/layout.hh"

#include <algorithm>
#include <array>
#include <cstring>

namespace osh::workloads
{

using os::Env;

namespace
{

// ---------------------------------------------------------------------------
// Guest-side helpers
// ---------------------------------------------------------------------------

constexpr std::uint64_t fnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t fnvPrime = 0x100000001b3ull;

void
fnvMix(std::uint64_t& h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= fnvPrime;
    }
}

std::uint64_t
argAt(Env& env, std::size_t i, std::uint64_t fallback)
{
    const auto& args = env.args();
    if (i >= args.size())
        return fallback;
    return std::strtoull(args[i].c_str(), nullptr, 10);
}

/** Workload seed: the system seed, so native/cloaked runs match. */
std::uint64_t
workloadSeed(Env& env)
{
    return env.kernel().vmm().machine().config().seed;
}

std::string
toHex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
}

/** Write the result checksum to /results/<name> (public output). */
int
writeResult(Env& env, const std::string& name, std::uint64_t checksum)
{
    env.mkdir("/results"); // errExist is fine
    std::int64_t fd = env.open("/results/" + name,
                               os::openCreate | os::openWrite |
                                   os::openTrunc);
    if (fd < 0)
        return 20;
    std::string hex = toHex64(checksum);
    if (env.writeAll(static_cast<std::uint64_t>(fd), hex) !=
        static_cast<std::int64_t>(hex.size()))
        return 21;
    env.close(static_cast<std::uint64_t>(fd));
    return 0;
}

/**
 * Hash a guest buffer in chunks (charges guest memory costs). Mixes
 * eight little-endian bytes per multiply, with a shift to fold the high
 * bits back down, and a byte at a time over the tail.
 */
std::uint64_t
hashGuestRange(Env& env, GuestVA va, std::uint64_t len)
{
    std::uint64_t h = fnvOffset;
    std::array<std::uint8_t, 4096> buf;
    std::uint64_t done = 0;
    while (done < len) {
        std::uint64_t n = std::min<std::uint64_t>(len - done, buf.size());
        env.readBytes(va + done, std::span<std::uint8_t>(buf.data(), n));
        std::uint64_t i = 0;
        for (; i + 8 <= n; i += 8) {
            h = (h ^ loadLe64(buf.data() + i)) * fnvPrime;
            h ^= h >> 29;
        }
        for (; i < n; ++i) {
            h ^= buf[i];
            h *= fnvPrime;
        }
        done += n;
    }
    return h;
}

// ---------------------------------------------------------------------------
// Compute kernels (F1 suite)
// ---------------------------------------------------------------------------

int
wlMatmul(Env& env)
{
    std::uint64_t n = argAt(env, 0, 20);
    std::uint64_t bytes = n * n * 8;
    GuestVA a = env.allocPages(roundUpToPage(bytes) / pageSize);
    GuestVA b = env.allocPages(roundUpToPage(bytes) / pageSize);
    GuestVA c = env.allocPages(roundUpToPage(bytes) / pageSize);

    std::uint64_t s = workloadSeed(env);
    for (std::uint64_t i = 0; i < n * n; ++i) {
        env.store64(a + i * 8, splitmix64(s) & 0xffff);
        env.store64(b + i * 8, splitmix64(s) & 0xffff);
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        for (std::uint64_t j = 0; j < n; ++j) {
            std::uint64_t acc = 0;
            for (std::uint64_t k = 0; k < n; ++k) {
                acc += env.load64(a + (i * n + k) * 8) *
                       env.load64(b + (k * n + j) * 8);
            }
            env.store64(c + (i * n + j) * 8, acc);
        }
    }
    std::uint64_t h = fnvOffset;
    for (std::uint64_t i = 0; i < n * n; ++i)
        fnvMix(h, env.load64(c + i * 8));
    return writeResult(env, "wl.matmul", h);
}

int
wlSort(Env& env)
{
    std::uint64_t n = argAt(env, 0, 4096);
    GuestVA arr = env.allocPages(roundUpToPage(n * 8) / pageSize);
    std::uint64_t s = workloadSeed(env);
    for (std::uint64_t i = 0; i < n; ++i)
        env.store64(arr + i * 8, splitmix64(s));

    // In-place iterative bottom-up merge sort with a scratch buffer.
    GuestVA tmp = env.allocPages(roundUpToPage(n * 8) / pageSize);
    for (std::uint64_t width = 1; width < n; width *= 2) {
        for (std::uint64_t lo = 0; lo < n; lo += 2 * width) {
            std::uint64_t mid = std::min(lo + width, n);
            std::uint64_t hi = std::min(lo + 2 * width, n);
            std::uint64_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi) {
                std::uint64_t vi = env.load64(arr + i * 8);
                std::uint64_t vj = env.load64(arr + j * 8);
                if (vi <= vj) {
                    env.store64(tmp + k * 8, vi);
                    ++i;
                } else {
                    env.store64(tmp + k * 8, vj);
                    ++j;
                }
                ++k;
            }
            for (; i < mid; ++i, ++k)
                env.store64(tmp + k * 8, env.load64(arr + i * 8));
            for (; j < hi; ++j, ++k)
                env.store64(tmp + k * 8, env.load64(arr + j * 8));
        }
        std::swap(arr, tmp);
    }

    // Verify sorted while hashing.
    std::uint64_t h = fnvOffset;
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t v = env.load64(arr + i * 8);
        if (v < prev)
            return 30;
        prev = v;
        fnvMix(h, v);
    }
    return writeResult(env, "wl.sort", h);
}

int
wlStream(Env& env)
{
    std::uint64_t kb = argAt(env, 0, 256);
    std::uint64_t passes = argAt(env, 1, 2);
    std::uint64_t bytes = kb * 1024;
    GuestVA buf = env.allocPages(roundUpToPage(bytes) / pageSize);
    std::uint64_t s = workloadSeed(env);
    // Fill in 64-bit strides, then stream-hash repeatedly.
    for (std::uint64_t i = 0; i < bytes; i += 8)
        env.store64(buf + i, splitmix64(s));
    std::uint64_t h = fnvOffset;
    for (std::uint64_t p = 0; p < passes; ++p)
        fnvMix(h, hashGuestRange(env, buf, bytes));
    return writeResult(env, "wl.stream", h);
}

int
wlChase(Env& env)
{
    std::uint64_t n = argAt(env, 0, 8192);
    std::uint64_t steps = argAt(env, 1, 4 * n);
    GuestVA arr = env.allocPages(roundUpToPage(n * 8) / pageSize);

    // Build a random single-cycle permutation (Sattolo's algorithm).
    std::uint64_t s = workloadSeed(env);
    for (std::uint64_t i = 0; i < n; ++i)
        env.store64(arr + i * 8, i);
    for (std::uint64_t i = n - 1; i > 0; --i) {
        std::uint64_t j = splitmix64(s) % i;
        std::uint64_t vi = env.load64(arr + i * 8);
        std::uint64_t vj = env.load64(arr + j * 8);
        env.store64(arr + i * 8, vj);
        env.store64(arr + j * 8, vi);
    }
    std::uint64_t pos = 0;
    std::uint64_t h = fnvOffset;
    for (std::uint64_t k = 0; k < steps; ++k) {
        pos = env.load64(arr + pos * 8);
        fnvMix(h, pos);
    }
    return writeResult(env, "wl.chase", h);
}

int
wlHistogram(Env& env)
{
    std::uint64_t n = argAt(env, 0, 65536);
    GuestVA data = env.allocPages(roundUpToPage(n) / pageSize);
    GuestVA hist = env.allocPages(1);
    std::uint64_t s = workloadSeed(env);
    for (std::uint64_t i = 0; i < n; i += 8)
        env.store64(data + i, splitmix64(s));
    for (std::uint64_t i = 0; i < 256; ++i)
        env.store64(hist + i * 8, 0);
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint8_t b = env.load8(data + i);
        GuestVA slot = hist + std::uint64_t{b} * 8;
        env.store64(slot, env.load64(slot) + 1);
    }
    std::uint64_t h = fnvOffset;
    for (std::uint64_t i = 0; i < 256; ++i)
        fnvMix(h, env.load64(hist + i * 8));
    return writeResult(env, "wl.histogram", h);
}

int
wlStencil(Env& env)
{
    std::uint64_t g = argAt(env, 0, 48);
    std::uint64_t iters = argAt(env, 1, 8);
    std::uint64_t bytes = g * g * 8;
    GuestVA cur = env.allocPages(roundUpToPage(bytes) / pageSize);
    GuestVA nxt = env.allocPages(roundUpToPage(bytes) / pageSize);
    std::uint64_t s = workloadSeed(env);
    for (std::uint64_t i = 0; i < g * g; ++i)
        env.store64(cur + i * 8, splitmix64(s) & 0xffff);

    for (std::uint64_t it = 0; it < iters; ++it) {
        for (std::uint64_t y = 1; y + 1 < g; ++y) {
            for (std::uint64_t x = 1; x + 1 < g; ++x) {
                std::uint64_t acc =
                    env.load64(cur + ((y - 1) * g + x) * 8) +
                    env.load64(cur + ((y + 1) * g + x) * 8) +
                    env.load64(cur + (y * g + x - 1) * 8) +
                    env.load64(cur + (y * g + x + 1) * 8) +
                    env.load64(cur + (y * g + x) * 8);
                env.store64(nxt + (y * g + x) * 8, acc / 5);
            }
        }
        std::swap(cur, nxt);
    }
    std::uint64_t h = fnvOffset;
    for (std::uint64_t i = 0; i < g * g; ++i)
        fnvMix(h, env.load64(cur + i * 8));
    return writeResult(env, "wl.stencil", h);
}

// ---------------------------------------------------------------------------
// File server (F2)
// ---------------------------------------------------------------------------

int
wlFileserver(Env& env)
{
    std::uint64_t file_kb = argAt(env, 0, 128);
    std::uint64_t requests = argAt(env, 1, 100);
    std::uint64_t req_bytes = argAt(env, 2, 4096);
    bool protected_file = argAt(env, 3, 1) != 0;

    std::string path;
    if (protected_file) {
        env.mkdir("/cloaked");
        path = "/cloaked/site.dat";
    } else {
        env.mkdir("/www");
        path = "/www/site.dat";
    }

    // Populate the data file deterministically.
    std::uint64_t file_bytes = file_kb * 1024;
    {
        std::int64_t fd = env.open(path, os::openCreate | os::openWrite |
                                             os::openTrunc);
        if (fd < 0)
            return 40;
        GuestVA chunk = env.allocPages(1);
        std::uint64_t s = workloadSeed(env) ^ 0xf11e;
        std::uint64_t written = 0;
        while (written < file_bytes) {
            for (std::uint64_t i = 0; i < pageSize; i += 8)
                env.store64(chunk + i, splitmix64(s));
            std::uint64_t n =
                std::min<std::uint64_t>(pageSize, file_bytes - written);
            if (env.write(static_cast<std::uint64_t>(fd), chunk, n) !=
                static_cast<std::int64_t>(n))
                return 41;
            written += n;
        }
        env.close(static_cast<std::uint64_t>(fd));
    }

    // Serve requests: seek to a pseudo-random offset, read the payload
    // and "send" it — modelled as a write to an uncloaked response
    // sink (a socket is public by nature), which crosses the kernel
    // exactly as Apache's response writes do.
    std::int64_t fd = env.open(path, os::openRead);
    if (fd < 0)
        return 42;
    env.mkdir("/www");
    std::int64_t sink = env.open("/www/response",
                                 os::openCreate | os::openWrite |
                                     os::openTrunc);
    if (sink < 0)
        return 44;
    GuestVA buf = env.allocPages(
        std::max<std::uint64_t>(1, roundUpToPage(req_bytes) / pageSize));
    std::uint64_t s = workloadSeed(env) ^ 0x5e71;
    std::uint64_t h = fnvOffset;
    std::uint64_t span = file_bytes > req_bytes
                             ? file_bytes - req_bytes
                             : 1;
    std::uint64_t depth = argAt(env, 4, 0);
    if (depth > 1) {
        // Batched serve loop: groups of up to `depth` requests are
        // submitted as one pread batch (range reads replace the
        // lseek+read pairs), hashed, then answered with one pwrite
        // batch. Byte-for-byte the same responses and final sink state
        // as the serial loop below — only the trap count changes.
        std::uint64_t k_max = std::min<std::uint64_t>(
            std::min<std::uint64_t>(depth, os::maxBatchDepth), requests);
        std::uint64_t req_pages = std::max<std::uint64_t>(
            1, roundUpToPage(req_bytes) / pageSize);
        GuestVA bufs = env.allocPages(req_pages * k_max);
        std::vector<os::BatchEntry> entries;
        std::vector<std::int64_t> results;
        std::uint64_t r = 0;
        while (r < requests) {
            std::uint64_t k =
                std::min<std::uint64_t>(k_max, requests - r);
            entries.clear();
            for (std::uint64_t c = 0; c < k; ++c) {
                std::uint64_t off = splitmix64(s) % span;
                entries.push_back(
                    {os::Sys::Pread,
                     {static_cast<std::uint64_t>(fd),
                      bufs + c * req_pages * pageSize, req_bytes, off}});
            }
            if (env.submitBatch(entries, results) !=
                static_cast<std::int64_t>(k))
                return 46;
            entries.clear();
            for (std::uint64_t c = 0; c < k; ++c) {
                std::int64_t got = results[c];
                if (got <= 0)
                    return 43;
                GuestVA cbuf = bufs + c * req_pages * pageSize;
                fnvMix(h, hashGuestRange(
                              env, cbuf,
                              static_cast<std::uint64_t>(got)));
                entries.push_back(
                    {os::Sys::Pwrite,
                     {static_cast<std::uint64_t>(sink), cbuf,
                      static_cast<std::uint64_t>(got), 0}});
            }
            if (env.submitBatch(entries, results) !=
                static_cast<std::int64_t>(k))
                return 46;
            for (std::uint64_t c = 0; c < k; ++c)
                if (results[c] < 0)
                    return 45;
            r += k;
        }
    } else {
        for (std::uint64_t r = 0; r < requests; ++r) {
            std::uint64_t off = splitmix64(s) % span;
            env.lseek(static_cast<std::uint64_t>(fd),
                      static_cast<std::int64_t>(off), os::seekSet);
            std::int64_t got = env.read(static_cast<std::uint64_t>(fd),
                                        buf, req_bytes);
            if (got <= 0)
                return 43;
            fnvMix(h, hashGuestRange(env, buf,
                                     static_cast<std::uint64_t>(got)));
            if (env.write(static_cast<std::uint64_t>(sink), buf,
                          static_cast<std::uint64_t>(got)) != got)
                return 45;
            env.lseek(static_cast<std::uint64_t>(sink), 0, os::seekSet);
        }
    }
    env.close(static_cast<std::uint64_t>(sink));
    env.close(static_cast<std::uint64_t>(fd));
    return writeResult(env, "wl.fileserver", h);
}

// ---------------------------------------------------------------------------
// Build driver (F3)
// ---------------------------------------------------------------------------

int
wlCompile(Env& env)
{
    std::uint64_t index = argAt(env, 0, 0);
    std::string src = formatString("/src/file_%llu.c",
                                   static_cast<unsigned long long>(index));
    std::string obj = formatString("/obj/file_%llu.o",
                                   static_cast<unsigned long long>(index));

    std::int64_t fd = env.open(src, os::openRead);
    if (fd < 0)
        return 50;
    os::StatBuf sb{};
    env.fstat(static_cast<std::uint64_t>(fd), sb);
    std::uint64_t size = sb.size;
    GuestVA buf = env.allocPages(
        std::max<std::uint64_t>(1, roundUpToPage(size) / pageSize));
    if (env.read(static_cast<std::uint64_t>(fd), buf, size) !=
        static_cast<std::int64_t>(size))
        return 51;
    env.close(static_cast<std::uint64_t>(fd));

    // "Compile": a couple of transformation passes over the buffer.
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t i = 0; i + 8 <= size; i += 8) {
            std::uint64_t v = env.load64(buf + i);
            v = (v ^ 0xa5a5a5a5a5a5a5a5ull) * fnvPrime;
            v = (v << 13) | (v >> 51);
            env.store64(buf + i, v);
        }
    }

    std::int64_t ofd = env.open(obj, os::openCreate | os::openWrite |
                                         os::openTrunc);
    if (ofd < 0)
        return 52;
    if (env.write(static_cast<std::uint64_t>(ofd), buf, size) !=
        static_cast<std::int64_t>(size))
        return 53;
    env.close(static_cast<std::uint64_t>(ofd));
    return static_cast<int>(index & 0x3f);
}

int
wlBuild(Env& env)
{
    std::uint64_t tasks = argAt(env, 0, 4);
    std::uint64_t work_kb = argAt(env, 1, 16);
    env.mkdir("/src");
    env.mkdir("/obj");

    // Generate the "source files".
    std::uint64_t s = workloadSeed(env) ^ 0xb01d;
    GuestVA chunk = env.allocPages(1);
    for (std::uint64_t i = 0; i < tasks; ++i) {
        std::string src =
            formatString("/src/file_%llu.c",
                         static_cast<unsigned long long>(i));
        std::int64_t fd = env.open(src, os::openCreate | os::openWrite |
                                            os::openTrunc);
        if (fd < 0)
            return 60;
        std::uint64_t remaining = work_kb * 1024;
        while (remaining > 0) {
            for (std::uint64_t b = 0; b < pageSize; b += 8)
                env.store64(chunk + b, splitmix64(s));
            std::uint64_t n = std::min<std::uint64_t>(pageSize,
                                                      remaining);
            env.write(static_cast<std::uint64_t>(fd), chunk, n);
            remaining -= n;
        }
        env.close(static_cast<std::uint64_t>(fd));
    }

    // Spawn one compiler per source and wait for all of them.
    std::vector<Pid> children;
    for (std::uint64_t i = 0; i < tasks; ++i) {
        Pid pid = env.spawn("wl.compile",
                            {formatString("%llu",
                                          static_cast<unsigned long long>(
                                              i))});
        if (pid <= 0)
            return 61;
        children.push_back(pid);
    }
    for (Pid pid : children) {
        int status = -1;
        if (env.waitpid(pid, &status) != pid)
            return 62;
        (void)status;
    }

    // Checksum the object files.
    std::uint64_t h = fnvOffset;
    GuestVA buf = env.allocPages(
        std::max<std::uint64_t>(1, roundUpToPage(work_kb * 1024) /
                                        pageSize));
    for (std::uint64_t i = 0; i < tasks; ++i) {
        std::string obj =
            formatString("/obj/file_%llu.o",
                         static_cast<unsigned long long>(i));
        std::int64_t fd = env.open(obj, os::openRead);
        if (fd < 0)
            return 63;
        std::int64_t got = env.read(static_cast<std::uint64_t>(fd), buf,
                                    work_kb * 1024);
        if (got <= 0)
            return 64;
        fnvMix(h, hashGuestRange(env, buf,
                                 static_cast<std::uint64_t>(got)));
        env.close(static_cast<std::uint64_t>(fd));
    }
    return writeResult(env, "wl.build", h);
}

// ---------------------------------------------------------------------------
// Memory-pressure stressor (F5)
// ---------------------------------------------------------------------------

int
wlMemstress(Env& env)
{
    std::uint64_t pages = argAt(env, 0, 512);
    std::uint64_t passes = argAt(env, 1, 3);
    // 0 = sequential sweep (worst case for clock eviction),
    // 1 = uniform random touches (graduated miss rate).
    std::uint64_t random_order = argAt(env, 2, 0);
    GuestVA buf = env.allocPages(pages);

    std::uint64_t s = workloadSeed(env) ^ 0x3355;
    // Initialize every page.
    for (std::uint64_t p = 0; p < pages; ++p)
        env.store64(buf + p * pageSize, splitmix64(s) | 1);
    // Repeated passes of read-modify-write, one line per page touch,
    // forcing paging when the resident budget is under the buffer size.
    std::uint64_t h = fnvOffset;
    std::uint64_t rs = workloadSeed(env) ^ 0x77aa;
    for (std::uint64_t pass = 0; pass < passes; ++pass) {
        for (std::uint64_t i = 0; i < pages; ++i) {
            std::uint64_t p =
                random_order ? splitmix64(rs) % pages : i;
            GuestVA va = buf + p * pageSize;
            std::uint64_t v = env.load64(va);
            v = v * fnvPrime + pass;
            env.store64(va, v);
            fnvMix(h, v);
        }
    }
    return writeResult(env, "wl.memstress", h);
}

// Attack-campaign victims --------------------------------------------------

/** Fill @p pages whole pages at @p va with the sentinel word. */
void
plantSentinel(Env& env, GuestVA va, std::uint64_t pages,
              std::uint64_t sentinel)
{
    for (std::uint64_t off = 0; off < pages * pageSize; off += 8)
        env.store64(va + off, sentinel);
}

/** Re-read every sentinel word; false means silent corruption. */
bool
sentinelIntact(Env& env, GuestVA va, std::uint64_t pages,
               std::uint64_t sentinel)
{
    for (std::uint64_t off = 0; off < pages * pageSize; off += 8)
        if (env.load64(va + off) != sentinel)
            return false;
    return true;
}

// Migration-aware victim machinery -----------------------------------------
//
// The compute and paging victims are also the checkpoint/restore test
// subjects, so they must survive being frozen at ANY trap boundary
// (syscall entry or timer tick), serialized, and re-entered from
// main() on a different machine. Host-side locals are lost across that
// trip; all progress lives in a state page INSIDE the cloaked arena:
//
//   word 0  magic      seed-derived tag proving the arena is ours
//   word 1  phase      current phase of the state machine
//   word 2  pass       mutation pass within the phase
//   word 3  index      next word/page to process within the pass
//
// Every mutation write is a pure function of (seed, pass, index) — not
// a read-modify-write — so the one iteration that may replay after a
// restore (frozen between the data store and the index store) writes
// the same bytes again. Read-only phases (verify/hash) restart from
// zero on resume instead of persisting an accumulator, because a
// checksum and its index cannot be committed atomically.

constexpr std::uint64_t stMagic = 0;
constexpr std::uint64_t stPhase = 8;
constexpr std::uint64_t stPass = 16;
constexpr std::uint64_t stIndex = 24;

std::uint64_t
arenaMagic(std::uint64_t seed)
{
    std::uint64_t s = seed ^ 0x517a7e0ff5e7ull;
    return splitmix64(s) | 1;
}

/** The pure per-index word: what mutation @p pass leaves at @p index. */
std::uint64_t
victimWord(std::uint64_t seed, std::uint64_t salt, std::uint64_t index,
           std::uint64_t pass_done)
{
    std::uint64_t s = seed ^ salt ^ (index * 0x9e3779b97f4a7c15ull);
    std::uint64_t v = splitmix64(s) | 1;
    for (std::uint64_t p = 0; p < pass_done; ++p)
        v = v * fnvPrime + p;
    return v;
}

/**
 * Find this victim's arena from a previous (checkpointed) life: the
 * cloaked anonymous mapping of exactly @p pages pages in the mmap
 * range whose state page carries our magic. 0 when this is a fresh
 * start. The scan is the reason Sys::VmaQuery exists: a restored
 * process owns mappings it never created in this life.
 */
GuestVA
findResumeArena(Env& env, std::uint64_t pages, std::uint64_t magic,
                GuestVA state_offset)
{
    for (std::uint64_t i = 0;; ++i) {
        std::int64_t start = env.vmaQuery(i, os::vmaQueryStart);
        if (start < 0)
            return 0;
        std::int64_t end = env.vmaQuery(i, os::vmaQueryEnd);
        std::int64_t flags = env.vmaQuery(i, os::vmaQueryFlags);
        if (end < 0 || flags < 0)
            return 0;
        GuestVA va = static_cast<GuestVA>(start);
        if (va < os::mmapBase || va >= os::fileMapBase)
            continue;
        if (static_cast<GuestVA>(end) - va != pages * pageSize)
            continue;
        std::uint64_t want = os::vmaFlagCloaked | os::vmaFlagAnon;
        if ((static_cast<std::uint64_t>(flags) & want) != want)
            continue;
        if (env.load64(va + state_offset + stMagic) == magic)
            return va;
    }
}

/**
 * Compute-category victim: sentinel arena + multiply-accumulate passes
 * over a work arena, with getpid() traps sprinkled through the passes
 * so syscall-boundary attacks (snoop/scribble/trap-frame/shadow) and
 * migration freezes get boundaries to land on. Checkpoint/restore-safe
 * (see the state-page commentary above); the result checksum is
 * pid-independent so it matches across the migration's pid change.
 */
int
wlVictimCompute(Env& env)
{
    const std::uint64_t seed = workloadSeed(env);
    const std::uint64_t sentinel = attackSentinel(seed);
    const std::uint64_t magic = arenaMagic(seed ^ 0xc0);
    const std::uint64_t secret_pages = 4;
    const std::uint64_t work_pages = 4;
    const std::uint64_t total_pages = secret_pages + work_pages + 1;
    const std::uint64_t work_words = work_pages * pageSize / 8;
    const std::uint64_t passes = 4;
    const GuestVA state_offset = (secret_pages + work_pages) * pageSize;

    GuestVA arena =
        findResumeArena(env, total_pages, magic, state_offset);
    if (arena == 0) {
        arena = env.allocPages(total_pages);
        GuestVA st = arena + state_offset;
        env.store64(st + stPhase, 0);
        env.store64(st + stPass, 0);
        env.store64(st + stIndex, 0);
        env.store64(st + stMagic, magic); // commits the arena last
    }
    GuestVA work = arena + secret_pages * pageSize;
    GuestVA st = arena + state_offset;

    // Phase 0: plant the sentinel + initial work words (pure writes).
    if (env.load64(st + stPhase) == 0) {
        plantSentinel(env, arena, secret_pages, sentinel);
        for (std::uint64_t i = 0; i < work_words; ++i)
            env.store64(work + i * 8, victimWord(seed, 0xc09a, i, 0));
        env.store64(st + stPhase, 1);
        env.getpid();
    }

    // Phase 1: the mutation passes, progress committed per word.
    while (env.load64(st + stPhase) == 1) {
        std::uint64_t pass = env.load64(st + stPass);
        if (pass >= passes) {
            env.store64(st + stPhase, 2);
            break;
        }
        for (std::uint64_t i = env.load64(st + stIndex); i < work_words;
             ++i) {
            std::uint64_t have = env.load64(work + i * 8);
            // Tolerate exactly the one replayed iteration a restore
            // can produce; anything else is silent corruption.
            if (have != victimWord(seed, 0xc09a, i, pass) &&
                have != victimWord(seed, 0xc09a, i, pass + 1))
                return victimStatusCorrupt;
            env.store64(work + i * 8,
                        victimWord(seed, 0xc09a, i, pass + 1));
            env.store64(st + stIndex, i + 1);
            if (i % 128 == 0)
                env.getpid();
        }
        env.store64(st + stIndex, 0);
        env.store64(st + stPass, pass + 1);
        env.getpid();
    }

    // Phase 2: read-only verify + checksum (restarts whole on resume).
    if (!sentinelIntact(env, arena, secret_pages, sentinel))
        return victimStatusCorrupt;
    std::uint64_t h = fnvOffset;
    for (std::uint64_t i = 0; i < work_words; ++i) {
        std::uint64_t v = env.load64(work + i * 8);
        if (v != victimWord(seed, 0xc09a, i, passes))
            return victimStatusCorrupt;
        fnvMix(h, v);
    }
    return writeResult(env, "wl.victim.compute", h);
}

/**
 * Process-category victim: the sentinel arena is inherited by a fork
 * child through cloaked COW; both sides verify. A child killed by the
 * cloak engine surfaces in System::results() and the campaign
 * classifier treats any cloak-violation kill as Detected, so the
 * parent's exit code need not propagate the child's fate exactly.
 */
int
wlVictimFork(Env& env)
{
    const std::uint64_t sentinel = attackSentinel(workloadSeed(env));
    const std::uint64_t secret_pages = 4;
    GuestVA arena = env.allocPages(secret_pages);
    plantSentinel(env, arena, secret_pages, sentinel);
    env.getpid();

    Pid child = env.fork([arena, secret_pages, sentinel](Env& c) {
        if (!sentinelIntact(c, arena, secret_pages, sentinel))
            return victimStatusCorrupt;
        // Dirty the COW pages from the child side, then re-verify.
        for (std::uint64_t p = 0; p < secret_pages; ++p)
            c.store64(arena + p * pageSize, sentinel);
        c.getpid();
        if (!sentinelIntact(c, arena, secret_pages, sentinel))
            return victimStatusCorrupt;
        return 33;
    });
    if (child < 0)
        return 9;
    int child_status = 0;
    if (env.waitpid(child, &child_status) != child)
        return 9;
    if (child_status == victimStatusCorrupt)
        return victimStatusCorrupt;

    env.getpid();
    if (!sentinelIntact(env, arena, secret_pages, sentinel))
        return victimStatusCorrupt;
    return child_status == 33 || child_status == -1 ? 0 : 9;
}

/**
 * File-I/O-category victim: seals the sentinel into a protected file
 * twice (v1 then v2), crossing two fsync boundaries and one exec
 * boundary — the injection points for sealed-metadata corruption,
 * truncation and rollback replay. The exec'd "read" phase re-opens the
 * file: a refused open (the engine rejected tampered metadata) exits
 * victimStatusRefused, silently wrong bytes exit victimStatusCorrupt.
 */
int
wlVictimFileio(Env& env)
{
    const std::uint64_t sentinel = attackSentinel(workloadSeed(env));
    const std::uint64_t file_pages = 2;
    const std::uint64_t file_bytes = file_pages * pageSize;
    const std::string path = "/cloaked/attack_vault";
    const auto& args = env.args();
    bool read_phase = !args.empty() && args[0] == "read";

    if (!read_phase) {
        env.mkdir("/cloaked");
        GuestVA buf = env.allocPages(file_pages);
        plantSentinel(env, buf, file_pages, sentinel);

        // A plain scratch file whose fsync provides the boundary (the
        // protected file's own I/O is emulated inside the shim and
        // never traps). Contents are public — never the sentinel.
        GuestVA pub = env.allocUncloakedPages(1);
        env.store64(pub, 0x5a5a5a5a5a5a5a5aull);
        std::int64_t sync_fd =
            env.open("/victim_syncfile",
                     os::openCreate | os::openWrite | os::openTrunc);
        if (sync_fd < 0)
            return 9;

        for (std::uint64_t round = 0; round < 2; ++round) {
            std::int64_t fd =
                env.open(path, os::openCreate | os::openWrite |
                                   os::openTrunc);
            if (fd == -os::errPerm)
                return victimStatusRefused;
            if (fd < 0)
                return 9;
            if (env.write(fd, buf, file_bytes) !=
                static_cast<std::int64_t>(file_bytes)) {
                return 9;
            }
            env.close(fd); // close seals this version
            if (env.write(sync_fd, pub, 8) != 8)
                return 9;
            env.fsync(sync_fd); // fsync boundary after each seal
        }
        env.close(sync_fd);
        // Read the public scratch file back through the trapping read
        // path. Its contents are kernel-controlled (unprotected), so
        // the victim must tolerate whatever comes back — read-buffer
        // corruption of *unprotected* data is outside the guarantee.
        std::int64_t rb = env.open("/victim_syncfile", os::openRead);
        if (rb < 0)
            return 10;
        env.read(rb, pub, 8);
        env.close(rb);
        env.exec("wl.victim.fileio", {"read"}); // exec boundary
    }

    std::int64_t fd = env.open(path, os::openRead);
    if (fd == -os::errPerm)
        return victimStatusRefused;
    if (fd < 0)
        return 9;
    GuestVA back = env.allocPages(file_pages);
    if (env.read(fd, back, file_bytes) !=
        static_cast<std::int64_t>(file_bytes)) {
        return victimStatusCorrupt;
    }
    env.close(fd);
    if (!sentinelIntact(env, back, file_pages, sentinel))
        return victimStatusCorrupt;
    return 0;
}

/**
 * Paging-category victim: an arena larger than guest memory (campaigns
 * run it with guestFrames well below the arena size), so the sentinel
 * and work pages cycle through swap — the injection point for swap
 * tampering, replay, and freed-slot resurrection. Checkpoint/restore-
 * safe via the same state-page protocol as the compute victim (the
 * state page rides at the end of the cloaked arena, so it swaps and
 * migrates with everything else).
 */
int
wlVictimPaging(Env& env)
{
    const std::uint64_t seed = workloadSeed(env);
    const std::uint64_t sentinel = attackSentinel(seed);
    const std::uint64_t magic = arenaMagic(seed ^ 0x9a);
    std::uint64_t pages = argAt(env, 0, 144);
    std::uint64_t passes = argAt(env, 1, 2);
    const std::uint64_t secret_pages = 4;
    if (pages <= secret_pages)
        return 9;
    const std::uint64_t total_pages = pages + 1;
    const GuestVA state_offset = pages * pageSize;

    GuestVA arena =
        findResumeArena(env, total_pages, magic, state_offset);
    if (arena == 0) {
        arena = env.allocPages(total_pages);
        GuestVA st = arena + state_offset;
        env.store64(st + stPhase, 0);
        env.store64(st + stPass, 0);
        env.store64(st + stIndex, 0);
        env.store64(st + stMagic, magic); // commits the arena last
    }
    GuestVA st = arena + state_offset;

    // Phase 0: sentinel + one pure word per work page.
    if (env.load64(st + stPhase) == 0) {
        plantSentinel(env, arena, secret_pages, sentinel);
        for (std::uint64_t p = secret_pages; p < pages; ++p)
            env.store64(arena + p * pageSize,
                        victimWord(seed, 0x9a61, p, 0));
        env.store64(st + stPhase, 1);
        env.getpid();
    }

    // Phase 1: mutation passes over the work pages, committed per page.
    while (env.load64(st + stPhase) == 1) {
        std::uint64_t pass = env.load64(st + stPass);
        if (pass >= passes) {
            env.store64(st + stPhase, 2);
            break;
        }
        std::uint64_t start =
            std::max(env.load64(st + stIndex), secret_pages);
        for (std::uint64_t p = start; p < pages; ++p) {
            GuestVA va = arena + p * pageSize;
            std::uint64_t have = env.load64(va);
            if (have != victimWord(seed, 0x9a61, p, pass) &&
                have != victimWord(seed, 0x9a61, p, pass + 1))
                return victimStatusCorrupt;
            env.store64(va, victimWord(seed, 0x9a61, p, pass + 1));
            env.store64(st + stIndex, p + 1);
            if (p % 16 == 0)
                env.getpid();
        }
        // Touch the sentinel pages each pass so they keep swapping.
        for (std::uint64_t p = 0; p < secret_pages; ++p)
            if (env.load64(arena + p * pageSize) != sentinel)
                return victimStatusCorrupt;
        env.store64(st + stIndex, 0);
        env.store64(st + stPass, pass + 1);
        env.getpid();
    }

    // Phase 2: read-only verify + checksum (restarts whole on resume).
    if (!sentinelIntact(env, arena, secret_pages, sentinel))
        return victimStatusCorrupt;
    std::uint64_t h = fnvOffset;
    for (std::uint64_t p = secret_pages; p < pages; ++p) {
        std::uint64_t v = env.load64(arena + p * pageSize);
        if (v != victimWord(seed, 0x9a61, p, passes))
            return victimStatusCorrupt;
        fnvMix(h, v);
    }
    return writeResult(env, "wl.victim.paging", h);
}

/**
 * Server-category victim: a many-connection content server that
 * submits its syscalls in batches (Sys::SubmitBatch), so the
 * submission/completion rings in uncloaked memory become attack
 * surface — the injection point for ring descriptor tampering and
 * completion forgery. Secrets live in a cloaked sentinel arena; the
 * served content is public (a socket is public by nature), so the
 * victim tolerates corrupted response payloads but not sentinel damage.
 */
int
wlVictimServer(Env& env)
{
    const std::uint64_t seed = workloadSeed(env);
    const std::uint64_t sentinel = attackSentinel(seed);
    const std::uint64_t secret_pages = 4;
    const std::uint64_t conns = argAt(env, 0, 6);
    const std::uint64_t rounds = argAt(env, 1, 3);
    const std::uint64_t req_bytes = 512;
    const std::uint64_t file_pages = 4;
    const std::uint64_t file_bytes = file_pages * pageSize;

    GuestVA arena = env.allocPages(secret_pages);
    plantSentinel(env, arena, secret_pages, sentinel);
    env.getpid();

    // Public content file.
    env.mkdir("/www");
    std::int64_t fd = env.open("/www/srv_content",
                               os::openCreate | os::openRead |
                                   os::openWrite | os::openTrunc);
    if (fd < 0)
        return 9;
    {
        GuestVA page = env.allocPages(1);
        std::uint64_t s = seed ^ 0x5e6e6;
        for (std::uint64_t p = 0; p < file_pages; ++p) {
            for (std::uint64_t i = 0; i < pageSize; i += 8)
                env.store64(page + i, splitmix64(s));
            if (env.write(static_cast<std::uint64_t>(fd), page,
                          pageSize) !=
                static_cast<std::int64_t>(pageSize))
                return 9;
        }
    }
    std::int64_t sink = env.open("/www/srv_resp",
                                 os::openCreate | os::openWrite |
                                     os::openTrunc);
    if (sink < 0)
        return 9;

    std::uint64_t k = std::min<std::uint64_t>(conns, os::maxBatchDepth);
    std::uint64_t req_pages =
        std::max<std::uint64_t>(1, roundUpToPage(req_bytes) / pageSize);
    GuestVA bufs = env.allocPages(req_pages * k);
    std::uint64_t s = seed ^ 0x5e71e;
    std::uint64_t h = fnvOffset;
    std::vector<os::BatchEntry> entries;
    std::vector<std::int64_t> results;
    for (std::uint64_t round = 0; round < rounds; ++round) {
        entries.clear();
        for (std::uint64_t c = 0; c < k; ++c) {
            std::uint64_t off = splitmix64(s) % (file_bytes - req_bytes);
            entries.push_back({os::Sys::Pread,
                               {static_cast<std::uint64_t>(fd),
                                bufs + c * req_pages * pageSize,
                                req_bytes, off}});
        }
        if (env.submitBatch(entries, results) !=
            static_cast<std::int64_t>(k))
            return 9;
        entries.clear();
        for (std::uint64_t c = 0; c < k; ++c) {
            // The content is public and kernel-controlled, so only the
            // transfer length is checked — never the payload bytes.
            if (results[c] != static_cast<std::int64_t>(req_bytes))
                return 9;
            GuestVA cbuf = bufs + c * req_pages * pageSize;
            fnvMix(h, hashGuestRange(env, cbuf, req_bytes));
            entries.push_back({os::Sys::Pwrite,
                               {static_cast<std::uint64_t>(sink), cbuf,
                                req_bytes, c * req_bytes}});
        }
        if (env.submitBatch(entries, results) !=
            static_cast<std::int64_t>(k))
            return 9;
        for (std::uint64_t c = 0; c < k; ++c)
            if (results[c] != static_cast<std::int64_t>(req_bytes))
                return 9;
        env.getpid(); // per-round trap boundary for syscall attacks
        if (!sentinelIntact(env, arena, secret_pages, sentinel))
            return victimStatusCorrupt;
    }
    env.close(static_cast<std::uint64_t>(sink));
    env.close(static_cast<std::uint64_t>(fd));
    if (!sentinelIntact(env, arena, secret_pages, sentinel))
        return victimStatusCorrupt;
    return writeResult(env, "wl.victim.server", h);
}

/**
 * Timing-channel victim: encodes a balanced 32-bit secret purely into
 * *cloak-cache behavior* — never into any kernel-visible byte. Arena
 * layout (20 pages):
 *
 *   [0..1]   sentinel pages (leak oracle, as in every victim)
 *   [2..17]  16 noise pages driving the metadata-LRU signal
 *   [18]     signal page B: always read (always clean)
 *   [19]     signal page A: bit=1 -> written (dirty), bit=0 -> read
 *
 * Each round also encodes the bit into metadata-cache residency:
 * bit=1 touches all 16 distinct noise pages (evicting B from a
 * 12-entry LRU), bit=0 touches noise[0] 16 times (B stays resident).
 * One Yield per round hands the hostile kernel a probe point that is
 * exactly synchronous with the bit; the timing campaign's oracle
 * recovers the secret from cost deltas alone — or fails to, once the
 * virtualized clock and constant-cost hardening are enabled.
 */
int
wlVictimTiming(Env& env)
{
    const std::uint64_t seed = workloadSeed(env);
    const std::uint64_t sentinel = attackSentinel(seed);
    const std::vector<std::uint8_t> bits = timingSecretBits(seed);
    const std::uint64_t sentinel_pages = 2;
    const std::uint64_t noise_pages = 16;
    const std::uint64_t total_pages = 20;

    GuestVA arena = env.allocPages(total_pages);
    GuestVA noise = arena + sentinel_pages * pageSize;
    GuestVA page_b = arena + (total_pages - 2) * pageSize;
    GuestVA page_a = arena + (total_pages - 1) * pageSize;

    plantSentinel(env, arena, sentinel_pages, sentinel);
    for (std::uint64_t i = 0; i < noise_pages; ++i)
        env.store64(noise + i * pageSize, victimWord(seed, 0x7193, i, 0));
    env.store64(page_b, victimWord(seed, 0x7193, 100, 0));
    env.store64(page_a, victimWord(seed, 0x7193, 101, 0));

    std::uint64_t h = fnvOffset;
    env.yield(); // Warmup round: lets a prober seal the arena once.

    for (std::size_t r = 0; r < bits.size(); ++r) {
        if (bits[r]) {
            // Secret bit 1: dirty the signal page. The store is a pure
            // function of (seed, round) so reruns are deterministic.
            env.store64(page_a, victimWord(seed, 0x7193, 200 + r, 0));
        } else {
            // Secret bit 0: same page, read-only touch.
            fnvMix(h, env.load64(page_a));
        }
        fnvMix(h, env.load64(page_b));
        for (std::uint64_t i = 0; i < noise_pages; ++i) {
            GuestVA p = bits[r] ? noise + i * pageSize : noise;
            fnvMix(h, env.load64(p));
        }
        env.yield(); // The probe point: one trap per encoded bit.
    }

    if (!sentinelIntact(env, arena, sentinel_pages, sentinel))
        return victimStatusCorrupt;
    return writeResult(env, "wl.victim.timing", h);
}

// ---------------------------------------------------------------------------
// Scale-bench tenant (bench_scale)
// ---------------------------------------------------------------------------
//
// One small cloaked tenant: a couple of private pages, seeded stores, a
// strided hash, exit status derived from the hash. Argv[0] is the tenant
// index so every tenant computes a distinct (but host-predictable)
// result; tenantStatus() mirrors the computation without a guest. No
// /results file is written — ten thousand of these must not grow the
// guest filesystem.

std::uint64_t
tenantHash(std::uint64_t system_seed, std::uint64_t tenant_idx,
           std::uint64_t pages)
{
    std::uint64_t s = system_seed ^
                      (tenant_idx * 0x9e3779b97f4a7c15ull) ^ 0x7e4a47ull;
    std::uint64_t words = pages * (pageSize / 8);
    std::uint64_t h = fnvOffset;
    std::uint64_t stream = s;
    // The strided hash reads every 7th stored word; replay the store
    // stream and fold in the same positions.
    for (std::uint64_t i = 0; i < words; ++i) {
        std::uint64_t v = splitmix64(stream);
        if (i % 7 == 0)
            fnvMix(h, v);
    }
    return h;
}

int
wlTenant(Env& env)
{
    std::uint64_t idx = argAt(env, 0, 0);
    std::uint64_t pages = argAt(env, 1, 2);
    GuestVA buf = env.allocPages(pages);
    std::uint64_t s = workloadSeed(env) ^
                      (idx * 0x9e3779b97f4a7c15ull) ^ 0x7e4a47ull;
    std::uint64_t words = pages * (pageSize / 8);
    for (std::uint64_t i = 0; i < words; ++i)
        env.store64(buf + i * 8, splitmix64(s));
    std::uint64_t h = fnvOffset;
    for (std::uint64_t i = 0; i < words; i += 7)
        fnvMix(h, env.load64(buf + i * 8));
    return static_cast<int>(h & 0x3f);
}

} // namespace

int
tenantStatus(std::uint64_t system_seed, std::uint64_t tenant_idx,
             std::uint64_t pages)
{
    return static_cast<int>(tenantHash(system_seed, tenant_idx, pages) &
                            0x3f);
}

const std::vector<std::string>&
victimNames()
{
    static const std::vector<std::string> names = {
        "wl.victim.compute",
        "wl.victim.fork",
        "wl.victim.fileio",
        "wl.victim.paging",
        "wl.victim.server",
        "wl.victim.timing",
    };
    return names;
}

std::vector<std::uint8_t>
timingSecretBits(std::uint64_t system_seed)
{
    // 16 ones and 16 zeros, order shuffled by a seeded Fisher-Yates,
    // so a guess-everything strategy recovers exactly half the bits.
    std::vector<std::uint8_t> bits(32, 0);
    for (std::size_t i = 0; i < 16; ++i)
        bits[i] = 1;
    std::uint64_t s = system_seed ^ 0x0071b17e5ec2e7ull;
    for (std::size_t i = bits.size() - 1; i > 0; --i) {
        std::size_t j = splitmix64(s) % (i + 1);
        std::swap(bits[i], bits[j]);
    }
    return bits;
}

std::uint64_t
attackSentinel(std::uint64_t system_seed)
{
    // High bit + low bit forced on so the sentinel can never collide
    // with zeroed frames or small loop counters in kernel memory.
    std::uint64_t s = system_seed ^ 0x0a77ac5e471e1ull;
    return splitmix64(s) | 0x8000000000000001ull;
}

void
registerAll(system::System& sys)
{
    auto add = [&sys](const std::string& name, os::ProgramMain main) {
        os::Program p;
        p.main = std::move(main);
        p.cloaked = true;
        sys.addProgram(name, std::move(p));
    };
    add("wl.matmul", wlMatmul);
    add("wl.sort", wlSort);
    add("wl.stream", wlStream);
    add("wl.chase", wlChase);
    add("wl.histogram", wlHistogram);
    add("wl.stencil", wlStencil);
    add("wl.fileserver", wlFileserver);
    add("wl.compile", wlCompile);
    add("wl.build", wlBuild);
    add("wl.memstress", wlMemstress);
    add("wl.tenant", wlTenant);
    add("wl.victim.compute", wlVictimCompute);
    add("wl.victim.fork", wlVictimFork);
    add("wl.victim.fileio", wlVictimFileio);
    add("wl.victim.paging", wlVictimPaging);
    add("wl.victim.server", wlVictimServer);
    add("wl.victim.timing", wlVictimTiming);
}

std::string
readGuestFile(system::System& sys, const std::string& path)
{
    auto& vfs = sys.kernel().vfs();
    std::int64_t ino_id = vfs.lookup(path);
    if (ino_id < 0)
        return {};
    os::Inode& ino = vfs.inode(static_cast<os::InodeId>(ino_id));
    std::string out(ino.size, '\0');
    // Assemble from the page cache where present, disk image otherwise.
    for (std::uint64_t off = 0; off < ino.size; off += pageSize) {
        std::uint64_t n = std::min<std::uint64_t>(pageSize,
                                                  ino.size - off);
        auto cit = ino.cache.find(pageNumber(off));
        if (cit != ino.cache.end()) {
            Mpa mpa = sys.vmm().pmap().translate(cit->second.gpa);
            auto frame = sys.machine().memory().framePlain(mpa);
            std::memcpy(out.data() + off, frame.data(), n);
        } else if (off < ino.diskData.size()) {
            std::uint64_t have =
                std::min<std::uint64_t>(n, ino.diskData.size() - off);
            std::memcpy(out.data() + off, ino.diskData.data() + off,
                        have);
        }
    }
    return out;
}

std::string
resultOf(system::System& sys, const std::string& name)
{
    return readGuestFile(sys, "/results/" + name);
}

void
writeGuestFile(system::System& sys, const std::string& path,
               const std::string& contents)
{
    auto& vfs = sys.kernel().vfs();
    std::int64_t ino_id = vfs.lookup(path);
    if (ino_id < 0) {
        ino_id = vfs.create(path, os::InodeType::File);
        osh_assert(ino_id > 0, "writeGuestFile: cannot create '%s'",
                   path.c_str());
    }
    os::Inode& ino = vfs.inode(static_cast<os::InodeId>(ino_id));
    ino.diskData.assign(
        reinterpret_cast<const std::uint8_t*>(contents.data()),
        reinterpret_cast<const std::uint8_t*>(contents.data()) +
            contents.size());
    ino.size = contents.size();
}

} // namespace osh::workloads
