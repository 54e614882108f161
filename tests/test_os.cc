/**
 * @file
 * Guest-OS integration tests (native unless a test says otherwise):
 * memory management, demand paging, COW fork, files and their
 * lifetime, pipes, signals, spawn/exec/wait and zombie reaping,
 * swapping under memory pressure.
 */

#include "cloak/engine.hh"
#include "os/env.hh"
#include "system/system.hh"
#include "workloads/workloads.hh"

#include <gtest/gtest.h>

namespace osh
{
namespace
{

using os::Env;
using system::System;
using system::SystemConfig;

SystemConfig
nativeConfig(std::uint64_t frames = 1024)
{
    SystemConfig cfg;
    cfg.cloakingEnabled = false;
    cfg.guestFrames = frames;
    cfg.preemptOpsPerTick = 0; // Deterministic single-flow tests.
    return cfg;
}

/** Run a single program body and return its exit result. */
system::ExitResult
runBody(const SystemConfig& cfg, std::function<int(Env&)> body)
{
    System sys(cfg);
    sys.addProgram("test", os::Program{std::move(body), false, 64});
    return sys.runProgram("test");
}

TEST(OsMemory, AnonAllocZeroFilledAndWritable)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        GuestVA p = env.allocPages(4);
        // Demand-zero contents.
        for (GuestVA off = 0; off < 4 * pageSize; off += 512) {
            if (env.load64(p + off) != 0)
                return 1;
        }
        env.store64(p + 100, 0xdeadbeef);
        if (env.load64(p + 100) != 0xdeadbeef)
            return 2;
        // Page-crossing access.
        env.store64(p + pageSize - 4, 0x1122334455667788ull);
        if (env.load64(p + pageSize - 4) != 0x1122334455667788ull)
            return 3;
        return 0;
    });
    EXPECT_EQ(r.status, 0);
    EXPECT_FALSE(r.killed);
}

TEST(OsMemory, MunmapThenAccessKills)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        GuestVA p = env.allocPages(1);
        env.store64(p, 1);
        env.munmap(p);
        env.load64(p); // must fault fatally
        return 0;
    });
    EXPECT_TRUE(r.killed);
    EXPECT_NE(r.killReason.find("segfault"), std::string::npos);
}

TEST(OsMemory, WriteToReadOnlyMappingKills)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        std::int64_t va = env.mmap(pageSize, os::protRead, os::mapAnon);
        if (va < 0)
            return 1;
        env.store8(static_cast<GuestVA>(va), 1);
        return 0;
    });
    EXPECT_TRUE(r.killed);
}

TEST(OsMemory, MmapPastArenaEndIsRefused)
{
    // 2^36 bytes fits no arena; 1 GiB would run from the anonymous
    // arena into the file arena.
    auto r = runBody(nativeConfig(), [](Env& env) {
        constexpr std::uint64_t rw = os::protRead | os::protWrite;
        if (env.mmap(1ull << 36, rw, os::mapAnon) != -os::errNoMem)
            return 1;
        if (env.mmap(1ull << 30, rw, os::mapAnon) != -os::errNoMem)
            return 2;
        if (env.mmap(~0ull, rw, os::mapAnon) != -os::errNoMem)
            return 3;
        // The file arena ends at the shim's region.
        auto f = static_cast<std::uint64_t>(env.open(
            "/f", os::openCreate | os::openRead | os::openWrite));
        if (env.mmap(1ull << 30, rw, os::mapShared, f, 0) != -os::errNoMem)
            return 4;
        // Refusals leave the cursors: small mappings still work.
        GuestVA p = env.allocPages(2);
        env.store64(p + pageSize, 42);
        if (env.load64(p + pageSize) != 42)
            return 5;
        return env.mmap(pageSize, rw, os::mapShared, f, 0) > 0 ? 0 : 6;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(OsMemory, StackIsUsable)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        GuestVA sp = os::stackTop - 8;
        env.store64(sp, 0xabcd);
        return env.load64(sp) == 0xabcd ? 0 : 1;
    });
    EXPECT_EQ(r.status, 0);
}

TEST(OsFiles, CreateWriteReadRoundTrip)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        env.mkdir("/data");
        std::int64_t fd = env.open("/data/f.txt",
                                   os::openCreate | os::openRead |
                                       os::openWrite);
        if (fd < 0)
            return 1;
        if (env.writeAll(fd, "hello world") != 11)
            return 2;
        env.lseek(fd, 0, os::seekSet);
        if (env.readSome(fd, 64) != "hello world")
            return 3;
        os::StatBuf sb{};
        env.fstat(fd, sb);
        if (sb.size != 11 || sb.isDir != 0)
            return 4;
        env.close(fd);
        return 0;
    });
    EXPECT_EQ(r.status, 0);
}

TEST(OsFiles, LargeFileSpanningManyPages)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        std::int64_t fd = env.open("/big",
                                   os::openCreate | os::openRead |
                                       os::openWrite);
        GuestVA buf = env.allocPages(4);
        // Write 5 pages worth with a pattern.
        for (int chunk = 0; chunk < 5; ++chunk) {
            for (GuestVA off = 0; off < pageSize; off += 8)
                env.store64(buf + off, chunk * 1000 + off);
            if (env.write(fd, buf, pageSize) !=
                static_cast<std::int64_t>(pageSize))
                return 1;
        }
        // Seek into the middle and verify.
        env.lseek(fd, 3 * pageSize + 16, os::seekSet);
        GuestVA rd = env.allocPages(1);
        if (env.read(fd, rd, 8) != 8)
            return 2;
        if (env.load64(rd) != 3000 + 16)
            return 3;
        os::StatBuf sb{};
        env.fstat(fd, sb);
        return sb.size == 5 * pageSize ? 0 : 4;
    });
    EXPECT_EQ(r.status, 0);
}

TEST(OsFiles, UnlinkRenameReaddir)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        env.mkdir("/d");
        std::int64_t a = env.open("/d/a", os::openCreate | os::openWrite);
        std::int64_t b = env.open("/d/b", os::openCreate | os::openWrite);
        env.close(a);
        env.close(b);
        if (env.rename("/d/a", "/d/c") != 0)
            return 1;
        if (env.open("/d/a", os::openRead) >= 0)
            return 2;
        if (env.unlink("/d/b") != 0)
            return 3;

        std::int64_t dfd = env.open("/d", os::openRead);
        std::string name;
        if (env.readdir(dfd, 0, name) < 0 || name != "c")
            return 4;
        if (env.readdir(dfd, 1, name) != -os::errNoEnt)
            return 5;
        env.close(dfd);
        return 0;
    });
    EXPECT_EQ(r.status, 0);
}

TEST(OsFiles, FtruncateAndEof)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        std::int64_t fd = env.open("/t", os::openCreate | os::openRead |
                                             os::openWrite);
        env.writeAll(fd, "0123456789");
        env.ftruncate(fd, 4);
        env.lseek(fd, 0, os::seekSet);
        if (env.readSome(fd, 32) != "0123")
            return 1;
        // Read at EOF returns 0.
        GuestVA buf = env.allocPages(1);
        if (env.read(fd, buf, 8) != 0)
            return 2;
        env.close(fd);
        return 0;
    });
    EXPECT_EQ(r.status, 0);
}

TEST(OsFiles, MmapSharedFileReflectsWrites)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        std::int64_t fd = env.open("/m", os::openCreate | os::openRead |
                                             os::openWrite);
        env.writeAll(fd, std::string(100, 'x'));
        std::int64_t va = env.mmap(pageSize, os::protRead | os::protWrite,
                                   os::mapShared, fd, 0);
        if (va < 0)
            return 1;
        if (env.load8(static_cast<GuestVA>(va)) != 'x')
            return 2;
        env.store8(static_cast<GuestVA>(va), 'y');
        // read() must see the mmap write (same page cache).
        env.lseek(fd, 0, os::seekSet);
        std::string s = env.readSome(fd, 1);
        env.close(fd);
        return s == "y" ? 0 : 3;
    });
    EXPECT_EQ(r.status, 0);
}

TEST(OsFiles, BadDescriptorErrors)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        GuestVA buf = env.allocPages(1);
        if (env.read(99, buf, 8) != -os::errBadF)
            return 1;
        if (env.close(99) != -os::errBadF)
            return 2;
        if (env.open("/nope/deep", os::openRead) != -os::errNoEnt)
            return 3;
        if (env.open("/nofile", os::openRead) != -os::errNoEnt)
            return 4;
        return 0;
    });
    EXPECT_EQ(r.status, 0);
}

TEST(OsFiles, TransferErrnoOrderTable)
{
    // read, write, pread and pwrite share one kernel body. Each row is
    // one descriptor and buffer; a cell pins the first check that
    // fires (EBADF, then ESPIPE for the positional calls, EFAULT, pipe
    // routing, EPERM) and the file_* counter that moves, so a
    // reordered check or a miscounted call fails here.
    enum class Fd { Bad, PipeRead, PipeWrite, ReadOnly, ReadWrite };
    struct Row
    {
        const char* name;
        Fd fd;
        bool badBuf;
        std::uint64_t len;
        std::array<std::int64_t, 4> want; ///< read, write, pread, pwrite
        std::array<std::uint64_t, 4> counted; ///< The call's own stat.
    };
    constexpr std::int64_t badF = -os::errBadF, fault = -os::errFault,
                           sPipe = -os::errSPipe, perm = -os::errPerm;
    const std::vector<Row> rows = {
        {"bad fd", Fd::Bad, true, 8, {badF, badF, badF, badF}, {}},
        {"pipe read end", Fd::PipeRead, false, 8,
         {8, badF, sPipe, sPipe}, {}},
        {"pipe write end", Fd::PipeWrite, false, 8,
         {badF, 8, sPipe, sPipe}, {}},
        {"pipe read end, bad buffer", Fd::PipeRead, true, 8,
         {fault, fault, sPipe, sPipe}, {}},
        {"read-only file", Fd::ReadOnly, false, 8, {8, perm, 8, perm},
         {1, 0, 1, 0}},
        {"bad buffer", Fd::ReadOnly, true, 8, {fault, fault, fault, fault},
         {}},
        {"zero length", Fd::ReadWrite, true, 0, {0, 0, 0, 0},
         {0, 1, 0, 1}},
        {"zero length, read-only", Fd::ReadOnly, true, 0,
         {0, perm, 0, perm}, {}},
    };
    const std::array<os::Sys, 4> calls = {os::Sys::Read, os::Sys::Write,
                                          os::Sys::Pread, os::Sys::Pwrite};
    const std::array<const char*, 4> statNames = {
        "file_reads", "file_writes", "file_preads", "file_pwrites"};

    System sys(nativeConfig());
    std::vector<std::int64_t> got;
    std::vector<std::array<std::uint64_t, 4>> moved;
    sys.addProgram("test", os::Program{[&](Env& env) {
        GuestVA buf = env.allocPages(1);
        auto src = static_cast<std::uint64_t>(
            env.open("/src", os::openCreate | os::openWrite));
        env.write(src, buf, 16);
        env.close(src);
        auto counters = [&] {
            std::array<std::uint64_t, 4> v{};
            for (std::size_t k = 0; k < v.size(); ++k)
                v[k] = sys.kernel().stats().value(statNames[k]);
            return v;
        };
        for (const Row& row : rows) {
            for (os::Sys call : calls) {
                int rfd = -1, wfd = -1;
                env.pipe(rfd, wfd);
                env.write(static_cast<std::uint64_t>(wfd), buf, 8);
                std::int64_t ro = env.open("/src", os::openRead);
                std::int64_t rw =
                    env.open("/src", os::openRead | os::openWrite);
                std::int64_t fd = 99;
                switch (row.fd) {
                  case Fd::Bad: break;
                  case Fd::PipeRead: fd = rfd; break;
                  case Fd::PipeWrite: fd = wfd; break;
                  case Fd::ReadOnly: fd = ro; break;
                  case Fd::ReadWrite: fd = rw; break;
                }
                auto before = counters();
                got.push_back(env.syscall(
                    call, {static_cast<std::uint64_t>(fd),
                           row.badBuf ? GuestVA{0x10} : buf, row.len, 0}));
                auto after = counters();
                for (std::size_t k = 0; k < after.size(); ++k)
                    after[k] -= before[k];
                moved.push_back(after);
                for (std::int64_t f : {std::int64_t{rfd}, std::int64_t{wfd},
                                       ro, rw})
                    env.close(static_cast<std::uint64_t>(f));
            }
        }
        return 0;
    }, false, 64});
    auto r = sys.runProgram("test");
    ASSERT_EQ(r.status, 0) << r.killReason;
    ASSERT_EQ(got.size(), rows.size() * calls.size());

    std::size_t cell = 0;
    for (const Row& row : rows) {
        for (std::size_t c = 0; c < calls.size(); ++c, ++cell) {
            SCOPED_TRACE(std::string(row.name) + " / " +
                         os::sysName(calls[c]));
            EXPECT_EQ(got[cell], row.want[c]);
            std::array<std::uint64_t, 4> want_moved{};
            want_moved[c] = row.counted[c];
            EXPECT_EQ(moved[cell], want_moved);
        }
    }
}

TEST(OsFiles, WritesPastFileBoundAreRefused)
{
    // Accepted, each of these writes would make the fsync size the
    // disk image to 2^40 bytes, or wrap the end offset and write
    // outside it: the bound refuses them before anything is cached.
    auto r = runBody(nativeConfig(), [](Env& env) {
        auto f = static_cast<std::uint64_t>(env.open(
            "/big", os::openCreate | os::openRead | os::openWrite));
        GuestVA buf = env.allocPages(1);
        if (env.pwrite(f, buf, 8, 1ull << 40) != -os::errFBig)
            return 1;
        if (env.fsync(f) != 0)
            return 2;
        if (env.pwrite(f, buf, 8, ~0ull - 3) != -os::errFBig)
            return 3;
        if (env.fsync(f) != 0)
            return 4;
        env.lseek(f, 1ll << 40, os::seekSet);
        if (env.write(f, buf, 8) != -os::errFBig)
            return 5;
        if (env.fsync(f) != 0)
            return 6;
        if (env.lseek(f, 0, os::seekCur) != 1ll << 40)
            return 7; // A refused write leaves the cursor.
        if (env.ftruncate(f, os::maxFileBytes + 1) != -os::errFBig)
            return 8;
        os::StatBuf sb{};
        if (env.fstat(f, sb) != 0 || sb.size != 0)
            return 9;
        // The bound is inclusive: a write ending exactly on it lands.
        if (env.pwrite(f, buf, 8, os::maxFileBytes - 8) != 8)
            return 10;
        if (env.pwrite(f, buf, 8, os::maxFileBytes - 4) != -os::errFBig)
            return 11;
        return 0;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(OsFiles, ZeroLengthWritesLeaveSizeAlone)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        auto f = static_cast<std::uint64_t>(env.open(
            "/z", os::openCreate | os::openRead | os::openWrite));
        GuestVA buf = env.allocPages(1);
        os::StatBuf sb{};
        env.lseek(f, 100, os::seekSet);
        if (env.write(f, buf, 0) != 0)
            return 1;
        if (env.fstat(f, sb) != 0 || sb.size != 0)
            return 2;
        if (env.pwrite(f, buf, 0, 300) != 0)
            return 3;
        if (env.fstat(f, sb) != 0 || sb.size != 0)
            return 4;
        return env.lseek(f, 0, os::seekCur) == 100 ? 0 : 5;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

/**
 * Map a 4-page file, drop its name and descriptor in the given order,
 * then fault an untouched page of the mapping: the mapping alone must
 * keep the inode (and its data) alive, and munmap must free it.
 */
int
mappingOutlivesNameAndFd(Env& env, bool unlink_first)
{
    os::Vfs& vfs = env.kernel().vfs();
    const std::size_t inodes = vfs.inodeCount();
    std::int64_t fd = env.open("/m", os::openCreate | os::openRead |
                                         os::openWrite);
    std::string data;
    for (char c = 'a'; c < 'e'; ++c)
        data += std::string(pageSize, c);
    env.writeAll(fd, data);
    std::int64_t va = env.mmap(4 * pageSize, os::protRead | os::protWrite,
                               os::mapShared, fd, 0);
    if (va < 0)
        return 1;
    if (unlink_first) {
        env.unlink("/m");
        env.close(fd);
    } else {
        env.close(fd);
        env.unlink("/m");
    }
    // Page 2 was never faulted in through the mapping.
    if (env.load8(static_cast<GuestVA>(va) + 2 * pageSize) != 'c')
        return 2;
    if (vfs.inodeCount() != inodes + 1)
        return 3;
    if (env.munmap(static_cast<GuestVA>(va)) != 0)
        return 4;
    return vfs.inodeCount() == inodes ? 0 : 5;
}

TEST(OsFiles, MappingPinsFileUnlinkedThenClosed)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        return mappingOutlivesNameAndFd(env, true);
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(OsFiles, MappingPinsFileClosedThenUnlinked)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        return mappingOutlivesNameAndFd(env, false);
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(OsFiles, UnlinkedFileCyclesKeepFramesAndInodesFlat)
{
    System sys(nativeConfig());
    sys.addProgram("cycler", os::Program{[](Env& env) {
        const std::uint64_t len = 64 * 1024;
        GuestVA buf = env.allocPages(len / pageSize);
        for (GuestVA off = 0; off < len; off += pageSize)
            env.store64(buf + off, off + 1);
        os::Kernel& k = env.kernel();
        const std::size_t inodes0 = k.vfs().inodeCount();
        std::uint64_t free0 = 0; // After the first cycle: Env's scratch.
        for (int i = 0; i < 32; ++i) {
            std::int64_t fd = env.open("/cycle", os::openCreate |
                                                     os::openWrite);
            if (env.write(fd, buf, len) != static_cast<std::int64_t>(len))
                return 1;
            env.close(fd);
            if (env.unlink("/cycle") != 0)
                return 2;
            if (i == 0)
                free0 = k.frames().freeFrames();
            else if (k.frames().freeFrames() != free0)
                return 100 + i;
            if (k.vfs().inodeCount() != inodes0)
                return 200 + i;
        }
        return 0;
    }, false, 16});
    auto r = sys.runProgram("cycler");
    EXPECT_EQ(r.status, 0);
    EXPECT_EQ(sys.kernel().vfs().stats().value("inodes_reaped"), 32u);
}

TEST(OsFiles, UnlinkReapsEmptyDirectory)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        os::Vfs& vfs = env.kernel().vfs();
        const std::size_t inodes = vfs.inodeCount();
        env.mkdir("/d");
        if (vfs.inodeCount() != inodes + 1)
            return 1;
        if (env.unlink("/d") != 0 || vfs.inodeCount() != inodes)
            return 2;
        if (env.open("/d", os::openRead) != -os::errNoEnt)
            return 3;
        // An open descriptor keeps an unlinked directory until close.
        env.mkdir("/e");
        std::int64_t dfd = env.open("/e", os::openRead);
        if (env.unlink("/e") != 0 || vfs.inodeCount() != inodes + 1)
            return 4;
        env.close(dfd);
        return vfs.inodeCount() == inodes ? 0 : 5;
    });
    EXPECT_EQ(r.status, 0);
}

TEST(OsFiles, ProtectedFileCyclesReleaseFramesAndBundle)
{
    // Through the shim: the protected file is a cloaked file mapping
    // whose metadata is sealed on close and reset on unlink, where the
    // owner's discard seals it empty.
    SystemConfig cfg = nativeConfig();
    cfg.cloakingEnabled = true;
    System sys(cfg);
    sys.addProgram("vault", os::Program{[](Env& env) {
        os::Kernel& k = env.kernel();
        env.mkdir("/cloaked");
        const std::string secret(16 * 1024, 's');
        std::uint64_t free0 = 0;
        for (int i = 0; i < 8; ++i) {
            std::int64_t fd = env.open("/cloaked/f", os::openCreate |
                                                         os::openRead |
                                                         os::openWrite);
            if (fd < 0)
                return 1;
            env.writeAll(fd, secret);
            env.close(fd);
            if (env.unlink("/cloaked/f") != 0)
                return 2;
            if (i == 0)
                free0 = k.frames().freeFrames();
            else if (k.frames().freeFrames() != free0)
                return 100 + i;
        }
        return 0;
    }, true, 64});
    auto r = sys.runProgram("vault");
    EXPECT_EQ(r.status, 0) << r.killReason;
    ASSERT_NE(sys.cloak(), nullptr);
    // One bundle is left, and it holds no page: its header (file key,
    // version, owner), an empty page list and the MAC.
    ASSERT_EQ(sys.cloak()->sealedStore().size(), 1u);
    EXPECT_EQ(sys.cloak()->sealedStore().begin()->second.size(),
              8 + 8 + 32 + 8 + crypto::sha256DigestSize);
    EXPECT_EQ(sys.cloak()->stats().value("file_discards"), 8u);
}

TEST(OsPipes, RoundTripAndEof)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        int rfd = -1, wfd = -1;
        if (env.pipe(rfd, wfd) != 0)
            return 1;
        if (env.writeAll(wfd, "ping") != 4)
            return 2;
        if (env.readSome(rfd, 16) != "ping")
            return 3;
        env.close(wfd);
        GuestVA buf = env.allocPages(1);
        // All writers closed: EOF.
        if (env.read(rfd, buf, 8) != 0)
            return 4;
        env.close(rfd);
        return 0;
    });
    EXPECT_EQ(r.status, 0);
}

TEST(OsPipes, WriteToClosedReaderFails)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        int rfd = -1, wfd = -1;
        env.pipe(rfd, wfd);
        env.close(rfd);
        GuestVA buf = env.allocPages(1);
        return env.write(wfd, buf, 4) == -os::errPipe ? 0 : 1;
    });
    EXPECT_EQ(r.status, 0);
}

TEST(OsPipes, BlockingHandoffBetweenProcesses)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        int rfd = -1, wfd = -1;
        env.pipe(rfd, wfd);
        Pid child = env.fork([rfd, wfd](Env& c) {
            c.close(wfd);
            // Blocks until the parent writes.
            std::string got = c.readSome(rfd, 32);
            c.close(rfd);
            return got == "work item" ? 7 : 1;
        });
        if (child <= 0)
            return 1;
        env.close(rfd);
        env.yield(); // Let the child block on the empty pipe first.
        env.writeAll(wfd, "work item");
        env.close(wfd);
        int status = -1;
        if (env.waitpid(child, &status) != child)
            return 2;
        return status == 7 ? 0 : 3;
    });
    EXPECT_EQ(r.status, 0);
}

TEST(OsProcess, ForkSeesSnapshotCow)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        GuestVA p = env.allocPages(2);
        env.store64(p, 111);
        env.store64(p + pageSize, 222);
        Pid child = env.fork([p](Env& c) {
            // Child sees the snapshot...
            if (c.load64(p) != 111)
                return 1;
            // ...and its writes are private.
            c.store64(p, 999);
            return c.load64(p) == 999 ? 5 : 2;
        });
        int status = -1;
        env.waitpid(child, &status);
        if (status != 5)
            return 3;
        // Parent value undisturbed by the child's write.
        if (env.load64(p) != 111)
            return 4;
        // Parent writes work too (COW break on the parent side).
        env.store64(p, 123);
        return env.load64(p) == 123 ? 0 : 5;
    });
    EXPECT_EQ(r.status, 0);
}

TEST(OsProcess, WaitPidSpecificAndAny)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        Pid a = env.fork([](Env&) { return 10; });
        Pid b = env.fork([](Env&) { return 20; });
        int status = -1;
        if (env.waitpid(b, &status) != b || status != 20)
            return 1;
        if (env.waitpid(-1, &status) != a || status != 10)
            return 2;
        // No children left.
        if (env.waitpid(-1, &status) != -os::errChild)
            return 3;
        return 0;
    });
    EXPECT_EQ(r.status, 0);
}

TEST(OsProcess, SpawnRunsProgramWithArgs)
{
    SystemConfig cfg = nativeConfig();
    System sys(cfg);
    sys.addProgram("child", os::Program{[](Env& env) {
        if (env.args().size() != 2)
            return 1;
        return env.args()[0] == "alpha" && env.args()[1] == "42" ? 33
                                                                  : 2;
    }, false, 64});
    sys.addProgram("parent", os::Program{[](Env& env) {
        Pid c = env.spawn("child", {"alpha", "42"});
        if (c <= 0)
            return 1;
        int status = -1;
        env.waitpid(c, &status);
        return status == 33 ? 0 : 2;
    }, false, 64});
    auto r = sys.runProgram("parent");
    EXPECT_EQ(r.status, 0);
}

TEST(OsProcess, ExecReplacesImage)
{
    SystemConfig cfg = nativeConfig();
    System sys(cfg);
    sys.addProgram("second", os::Program{[](Env& env) {
        // Fresh image: the first stack page must be demand-zero.
        if (env.load64(os::stackTop - 8) != 0)
            return 1;
        if (env.args().size() != 1 || env.args()[0] != "from-exec")
            return 2;
        return 44;
    }, false, 64});
    sys.addProgram("first", os::Program{[](Env& env) {
        env.store64(os::stackTop - 8, 0x5a5a); // dirty the stack
        env.exec("second", {"from-exec"});
        return 0; // exec does not return
    }, false, 64});
    auto r = sys.runProgram("first");
    EXPECT_EQ(r.status, 44);
}

TEST(OsProcess, GetPidAndParent)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        Pid self = env.getpid();
        if (self <= 0)
            return 1;
        Pid child = env.fork([self](Env& c) {
            return c.getppid() == self ? 11 : 1;
        });
        int status = -1;
        env.waitpid(child, &status);
        return status == 11 ? 0 : 2;
    });
    EXPECT_EQ(r.status, 0);
}

TEST(OsProcess, DriverLaunchedProcessLeavesNoRecord)
{
    System sys(nativeConfig());
    sys.addProgram("test", os::Program{[](Env&) { return 9; }, false, 16});
    Pid pid = sys.launch("test");
    sys.run();
    EXPECT_TRUE(sys.kernel().pids().empty());
    EXPECT_EQ(sys.kernel().findProcess(pid), nullptr);
    const system::ExitResult* r = sys.resultOf(pid);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->status, 9);
    EXPECT_EQ(sys.kernel().stats().value("zombies_reaped"), 1u);
}

TEST(OsProcess, WaitedChildIsReapedOnce)
{
    System sys(nativeConfig());
    sys.addProgram("test", os::Program{[](Env& env) {
        Pid child = env.fork([](Env&) { return 7; });
        int status = -1;
        if (env.waitpid(child, &status) != child || status != 7)
            return 1;
        return env.waitpid(child, &status) == -os::errChild ? 0 : 2;
    }, false, 16});
    auto r = sys.runProgram("test");
    EXPECT_EQ(r.status, 0);
    EXPECT_TRUE(sys.kernel().pids().empty());
    // waitpid reaped the child; only the driver-launched parent was
    // left for the orphan rule.
    EXPECT_EQ(sys.kernel().stats().value("zombies_reaped"), 1u);
}

TEST(OsProcess, ChildOutlivingParentIsReapedAtItsExit)
{
    System sys(nativeConfig());
    Pid child = 0;
    sys.addProgram("test", os::Program{[&child](Env& env) {
        Pid self = env.getpid();
        child = env.fork([self](Env& c) {
            for (int i = 0; i < 4; ++i)
                c.yield();
            const os::Process* parent = c.kernel().findProcess(self);
            if (parent == nullptr || parent->state != os::ProcState::Zombie)
                return 1;
            // No reparenting.
            return c.getppid() == self ? 12 : 2;
        });
        return 0; // Exits without waiting.
    }, false, 16});
    Pid parent = sys.launch("test");
    sys.run();
    ASSERT_NE(child, 0);
    EXPECT_EQ(sys.resultOf(parent)->status, 0);
    ASSERT_NE(sys.resultOf(child), nullptr);
    EXPECT_EQ(sys.resultOf(child)->status, 12);
    EXPECT_TRUE(sys.kernel().pids().empty());
    EXPECT_EQ(sys.kernel().stats().value("zombies_reaped"), 2u);
}

TEST(OsProcess, OrphanRuleKeepsOnlyWaitableZombies)
{
    System sys(nativeConfig());
    sys.addProgram("p", os::Program{[](Env&) { return 0; }, false, 16});
    os::Kernel& k = sys.kernel();
    auto make = [&k](Pid ppid, bool zombie) {
        os::Process& p = k.createProcess("p", {}, ppid);
        if (zombie)
            p.state = os::ProcState::Zombie;
        return p.pid;
    };
    Pid live = make(0, false);
    Pid waitable = make(live, true);       // Live parent may waitpid.
    Pid running = make(waitable, false);   // Not a zombie.
    Pid of_zombie = make(waitable, true);  // Parent can never wait.
    Pid orphan = make(0, true);            // Driver-launched.
    Pid lost = make(orphan + 1000, true);  // Parent already reaped.
    EXPECT_EQ(k.reapOrphanZombies(), 3u);
    EXPECT_EQ(k.pids(), (std::vector<Pid>{live, waitable, running}));
    EXPECT_EQ(k.findProcess(of_zombie), nullptr);
    EXPECT_EQ(k.findProcess(lost), nullptr);
    EXPECT_EQ(k.reapOrphanZombies(), 0u);
}

TEST(OsSignals, HandlerRunsAtSyscallBoundary)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        int fired = 0;
        env.onSignal(os::sigUser1, [&fired](Env&, int sig) {
            fired = sig;
        });
        env.kill(env.getpid(), os::sigUser1);
        env.yield(); // Delivery point.
        return fired == os::sigUser1 ? 0 : 1;
    });
    EXPECT_EQ(r.status, 0);
}

TEST(OsSignals, DefaultActionTerminates)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        env.kill(env.getpid(), os::sigTerm);
        env.yield();
        return 0; // Unreachable.
    });
    EXPECT_TRUE(r.killed);
    EXPECT_NE(r.killReason.find("signal"), std::string::npos);
}

TEST(OsSignals, KillAnotherBlockedProcess)
{
    auto r = runBody(nativeConfig(), [](Env& env) {
        int rfd = -1, wfd = -1;
        env.pipe(rfd, wfd);
        Pid child = env.fork([rfd](Env& c) {
            GuestVA buf = c.allocPages(1);
            c.read(rfd, buf, 8); // Blocks forever.
            return 0;
        });
        env.yield(); // Let the child block.
        env.kill(child, os::sigKill);
        int status = -1;
        if (env.waitpid(child, &status) != child)
            return 1;
        return status == -1 ? 0 : 2; // Killed marker.
    });
    EXPECT_EQ(r.status, 0);
}

TEST(OsSwap, SurvivesMemoryPressure)
{
    // 96 frames of RAM, a working set of ~200 pages: must swap and
    // still compute the right answer.
    SystemConfig cfg = nativeConfig(96);
    System sys(cfg);
    sys.addProgram("stress", os::Program{[](Env& env) {
        const std::uint64_t pages = 200;
        GuestVA buf = env.allocPages(pages);
        for (std::uint64_t p = 0; p < pages; ++p)
            env.store64(buf + p * pageSize, p * 7 + 1);
        // Re-walk: every page verifies after swap-out/swap-in.
        for (std::uint64_t p = 0; p < pages; ++p) {
            if (env.load64(buf + p * pageSize) != p * 7 + 1)
                return static_cast<int>(p + 1);
        }
        return 0;
    }, false, 16});
    auto r = sys.runProgram("stress");
    EXPECT_EQ(r.status, 0);
    EXPECT_GT(sys.kernel().stats().value("evicted_anon"), 0u);
    EXPECT_GT(sys.kernel().stats().value("swap_ins"), 0u);
}

TEST(OsSwap, FileCacheEvictionWritesBack)
{
    SystemConfig cfg = nativeConfig(64);
    System sys(cfg);
    sys.addProgram("filepress", os::Program{[](Env& env) {
        // Write a file bigger than RAM, then read it all back.
        std::int64_t fd = env.open("/huge",
                                   os::openCreate | os::openRead |
                                       os::openWrite);
        GuestVA buf = env.allocPages(1);
        const std::uint64_t file_pages = 128;
        for (std::uint64_t p = 0; p < file_pages; ++p) {
            for (GuestVA off = 0; off < pageSize; off += 8)
                env.store64(buf + off, p * pageSize + off);
            env.write(fd, buf, pageSize);
        }
        env.lseek(fd, 0, os::seekSet);
        for (std::uint64_t p = 0; p < file_pages; ++p) {
            env.read(fd, buf, pageSize);
            for (GuestVA off = 0; off < pageSize; off += 512) {
                if (env.load64(buf + off) != p * pageSize + off)
                    return static_cast<int>(p + 1);
            }
        }
        env.close(fd);
        return 0;
    }, false, 16});
    auto r = sys.runProgram("filepress");
    EXPECT_EQ(r.status, 0);
    EXPECT_GT(sys.kernel().stats().value("writebacks"), 0u);
}

TEST(OsSched, PreemptionInterleavesCompute)
{
    SystemConfig cfg = nativeConfig();
    cfg.preemptOpsPerTick = 2000;
    System sys(cfg);
    sys.addProgram("spin", os::Program{[](Env& env) {
        GuestVA p = env.allocPages(1);
        for (int i = 0; i < 20000; ++i)
            env.store64(p, static_cast<std::uint64_t>(i));
        return 0;
    }, false, 16});
    sys.addProgram("boss", os::Program{[](Env& env) {
        Pid a = env.spawn("spin");
        Pid b = env.spawn("spin");
        int sa = -1, sb = -1;
        env.waitpid(a, &sa);
        env.waitpid(b, &sb);
        return sa == 0 && sb == 0 ? 0 : 1;
    }, false, 16});
    auto r = sys.runProgram("boss");
    EXPECT_EQ(r.status, 0);
    EXPECT_GT(sys.sched().stats().value("preemptions"), 0u);
}

TEST(OsDeterminism, IdenticalSeedsGiveIdenticalCycles)
{
    auto run_once = [] {
        SystemConfig cfg;
        cfg.cloakingEnabled = false;
        cfg.guestFrames = 512;
        cfg.seed = 77;
        System sys(cfg);
        workloads::registerAll(sys);
        sys.runProgram("wl.sort", {"512"});
        return sys.cycles();
    };
    EXPECT_EQ(run_once(), run_once());
}

} // namespace
} // namespace osh
