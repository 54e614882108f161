/**
 * @file
 * Shim-focused integration tests: the three syscall adaptation classes
 * (pass-through, marshalled, emulated), protected-file edge cases, and
 * at-rest ciphertext tampering.
 */

#include "base/bytes.hh"
#include "cloak/engine.hh"
#include "os/attack_hooks.hh"
#include "os/env.hh"
#include "system/system.hh"
#include "workloads/workloads.hh"

#include <gtest/gtest.h>

#include <array>
#include <span>
#include <string>
#include <vector>

namespace osh
{
namespace
{

using os::Env;
using system::System;
using system::SystemConfig;

SystemConfig
cloakedConfig()
{
    SystemConfig cfg;
    cfg.cloakingEnabled = true;
    cfg.guestFrames = 1024;
    cfg.preemptOpsPerTick = 0;
    return cfg;
}

system::ExitResult
runCloaked(System& sys, std::function<int(Env&)> body)
{
    sys.addProgram("shimtest", os::Program{std::move(body), true, 64});
    return sys.runProgram("shimtest");
}

TEST(ShimMarshal, DirectoryOperations)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        if (env.mkdir("/dir") != 0)
            return 1;
        std::int64_t f =
            env.open("/dir/one", os::openCreate | os::openWrite);
        if (f < 0)
            return 2;
        env.close(f);
        if (env.rename("/dir/one", "/dir/two") != 0)
            return 3;
        std::int64_t d = env.open("/dir", os::openRead);
        std::string name;
        if (env.readdir(d, 0, name) < 0 || name != "two")
            return 4;
        env.close(d);
        if (env.unlink("/dir/two") != 0)
            return 5;
        return 0;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimMarshal, RenameWithLongPaths)
{
    // A long source path must not be overwritten by the target staged
    // after it, and two maximal paths must fit: in the shim's bounce
    // area, and in the Env helper's scratch area. Cloaked and native
    // agree.
    for (bool cloaked : {false, true}) {
        SCOPED_TRACE(cloaked ? "cloaked" : "native");
        SystemConfig cfg = cloakedConfig();
        cfg.cloakingEnabled = cloaked;
        System sys(cfg);
        auto body = [](Env& env) {
            const std::string raw_from = "/" + std::string(1499, 'r');
            // Env::rename's {source, target} pairs.
            const std::vector<std::pair<std::string, std::string>> helper =
                {{"/" + std::string(1499, 'h'), "/helper"},
                 {"/" + std::string(2000, 'h'), "/" + std::string(2500, 't')},
                 {"/" + std::string(os::maxPathLen - 1, 'm'),
                  "/" + std::string(os::maxPathLen - 1, 'n')}};
            std::vector<std::string> sources{raw_from};
            for (const auto& [from, to] : helper)
                sources.push_back(from);
            for (const std::string& p : sources) {
                std::int64_t f = env.open(p, os::openCreate | os::openWrite);
                if (f < 0)
                    return 1;
                env.close(static_cast<std::uint64_t>(f));
            }
            // The raw call, each path in its own buffer.
            GuestVA from = env.allocPages(1);
            GuestVA to = env.allocPages(1);
            env.writeString(from, raw_from);
            env.writeString(to, "/raw");
            if (env.syscall(os::Sys::Rename, {from, to}) != 0)
                return 2;
            std::vector<std::string> targets{"/raw"};
            for (const auto& [from, to] : helper) {
                if (env.rename(from, to) != 0)
                    return 3;
                targets.push_back(to);
            }
            for (const std::string& p : sources)
                if (env.open(p, os::openRead) != -os::errNoEnt)
                    return 4;
            for (const std::string& p : targets) {
                std::int64_t f = env.open(p, os::openRead);
                if (f < 0)
                    return 5;
                env.close(static_cast<std::uint64_t>(f));
            }
            // A path the kernel would truncate is refused, not staged.
            const std::string too_long(os::maxPathLen + 1, 'x');
            if (env.rename(too_long, "/x") != -os::errInval)
                return 6;
            return 0;
        };
        sys.addProgram("shimtest", os::Program{body, cloaked, 64});
        auto r = sys.runProgram("shimtest");
        EXPECT_EQ(r.status, 0) << r.killReason;
    }
}

/** Write @p s into fresh pages and return its address. */
GuestVA
placeString(Env& env, const std::string& s)
{
    GuestVA va = env.allocPages(s.size() / pageSize + 1);
    env.writeString(va, s);
    return va;
}

TEST(ShimExec, RefusedExecKeepsTheCallerCloaked)
{
    // An exec of a program the kernel does not know fails with ENOENT
    // and returns to the same image, still cloaked: the app reads its
    // plaintext back, and the kernel sees ciphertext in its place.
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [&sys](Env& env) {
        GuestVA keep = env.allocPages(1);
        env.store64(keep, 0x5eed);
        GuestVA name = placeString(env, "nonexistent");
        if (env.syscall(os::Sys::Exec, {name, 0, 0}) != -os::errNoEnt)
            return 1;
        if (env.load64(keep) != 0x5eed)
            return 2;
        std::array<std::uint8_t, 8> seen{};
        sys.kernel().copyFromUser(env.thread(), keep, seen);
        std::uint64_t word = loadLe64(seen.data());
        if (word == 0x5eed || word == 0)
            return 3;
        return env.load64(keep) == 0x5eed ? 0 : 4;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
    EXPECT_FALSE(r.killed);
}

TEST(PathRead, OverlongPathIsRefusedNotTruncated)
{
    // Two paths that differ only past maxPathLen bytes must not name
    // one file; truncated, two protected ones would also hash to one
    // pathKey and share one file resource. The kernel and the shim
    // refuse both, as Env::stagePath does, and still accept a path of
    // exactly maxPathLen bytes. Native and cloaked agree.
    for (bool cloaked : {false, true}) {
        SCOPED_TRACE(cloaked ? "cloaked" : "native");
        SystemConfig cfg = cloakedConfig();
        cfg.cloakingEnabled = cloaked;
        System sys(cfg);
        auto body = [](Env& env) {
            using os::Sys;
            const std::int64_t refused = -os::errNameTooLong;
            GuestVA a = 0;
            for (const std::string dir : {"/", "/cloaked/"}) {
                const std::string stem = dir + std::string(4200, 'p');
                a = placeString(env, stem + "A");
                GuestVA b = placeString(env, stem + "B");
                if (env.syscall(Sys::Open,
                                {a, os::openCreate | os::openWrite}) !=
                    refused)
                    return 1;
                if (env.syscall(Sys::Open, {b, os::openRead}) != refused)
                    return 2;
            }
            // Every call that reads a path refuses it the same way.
            GuestVA ok = placeString(env, "/ok");
            if (env.syscall(Sys::Mkdir, {a}) != refused ||
                env.syscall(Sys::Unlink, {a}) != refused ||
                env.syscall(Sys::Rename, {a, ok}) != refused ||
                env.syscall(Sys::Rename, {ok, a}) != refused ||
                env.syscall(Sys::Spawn, {a, 0, 0}) != refused)
                return 3;
            // A refused exec leaves the caller running as it was.
            GuestVA keep = env.allocPages(1);
            env.store64(keep, 0x5eed);
            if (env.syscall(Sys::Exec, {a, 0, 0}) != refused ||
                env.load64(keep) != 0x5eed)
                return 4;
            // The longest accepted path still names its file.
            const std::string longest =
                "/" + std::string(os::maxPathLen - 1, 'q');
            std::int64_t f = env.syscall(
                Sys::Open,
                {placeString(env, longest), os::openCreate | os::openWrite});
            if (f < 0)
                return 5;
            env.close(static_cast<std::uint64_t>(f));
            return env.open(longest, os::openRead) >= 0 ? 0 : 6;
        };
        sys.addProgram("shimtest", os::Program{body, cloaked, 64});
        auto r = sys.runProgram("shimtest");
        EXPECT_EQ(r.status, 0) << r.killReason;
    }
}

TEST(ShimMarshal, SpawnWithLongNameAndArgv)
{
    // spawn stages the program name and the argv blob back to back: a
    // long name must not be overwritten by the blob, and a blob of
    // several KiB must stay inside the scratch area.
    const std::string child = std::string(1500, 'c');
    const std::vector<std::string> argv{std::string(5000, 'a'), "beta"};
    for (bool cloaked : {false, true}) {
        SCOPED_TRACE(cloaked ? "cloaked" : "native");
        SystemConfig cfg = cloakedConfig();
        cfg.cloakingEnabled = cloaked;
        System sys(cfg);
        sys.addProgram(child, os::Program{[&argv](Env& env) {
            return env.args() == argv ? 33 : 1;
        }, cloaked, 64});
        sys.addProgram("parent", os::Program{[&](Env& env) {
            Pid c = env.spawn(child, argv);
            if (c <= 0)
                return 1;
            int status = -1;
            env.waitpid(c, &status);
            if (status != 33)
                return 2;
            // A blob that cannot fit after the name is refused.
            const std::vector<std::string> huge{std::string(12000, 'z')};
            return env.spawn(child, huge) == -os::errInval ? 0 : 3;
        }, cloaked, 64});
        auto r = sys.runProgram("parent");
        EXPECT_EQ(r.status, 0) << r.killReason;
    }
}

TEST(ShimMarshal, SignalHandlerIoLeavesInterruptedReadIntact)
{
    // A signal lands while a cloaked read waits on a pipe, and its
    // handler does I/O of its own through the shim. The handler runs
    // after the read has copied its data out of the bounce area, so
    // the app sees the pipe's bytes, per call and batched alike.
    for (bool batched : {false, true}) {
        SCOPED_TRACE(batched ? "batched" : "per call");
        System sys(cloakedConfig());
        std::uint64_t seen = 0;
        auto r = runCloaked(sys, [batched, &seen](Env& env) {
            constexpr int sig = 5;
            GuestVA page = env.allocPages(1);
            for (GuestVA o = 0; o < pageSize; o += 8)
                env.store64(page + o, 0xbbbbbbbbbbbbbbbbull);
            auto other = static_cast<std::uint64_t>(env.open(
                "/other", os::openCreate | os::openRead | os::openWrite));
            env.write(other, page, pageSize);
            env.onSignal(sig, [other, page](Env& e, int) {
                e.pread(other, page, pageSize, 0);
            });
            int rfd = -1, wfd = -1;
            env.pipe(rfd, wfd);
            Pid self = env.getpid();
            Pid child = env.fork([wfd, self](Env& c) {
                GuestVA p = c.allocPages(1);
                c.store64(p, 0xaaaaaaaaaaaaaaaaull);
                c.write(static_cast<std::uint64_t>(wfd), p, 8);
                c.kill(self, sig);
                return 0;
            });
            GuestVA buf = env.allocPages(1);
            auto fd = static_cast<std::uint64_t>(rfd);
            std::int64_t n;
            if (batched) {
                std::vector<os::BatchEntry> e = {
                    {os::Sys::Read, {fd, buf, 8}}, {os::Sys::GetPid, {}}};
                std::vector<std::int64_t> res;
                env.submitBatch(e, res);
                n = res[0];
            } else {
                n = env.read(fd, buf, 8);
            }
            seen = env.load64(buf);
            env.waitpid(child, nullptr);
            return n == 8 ? 0 : 1;
        });
        EXPECT_EQ(r.status, 0) << r.killReason;
        EXPECT_EQ(seen, 0xaaaaaaaaaaaaaaaaull);
    }
}

TEST(ShimMarshal, FstatThroughBounce)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        std::int64_t f = env.open("/f", os::openCreate | os::openWrite);
        env.writeAll(f, "12345");
        os::StatBuf sb{};
        if (env.fstat(f, sb) != 0)
            return 1;
        env.close(f);
        return sb.size == 5 && sb.isDir == 0 ? 0 : 2;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimMarshal, PipesBetweenCloakedProcesses)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        int rfd = -1, wfd = -1;
        if (env.pipe(rfd, wfd) != 0)
            return 1;
        Pid child = env.fork([rfd, wfd](Env& c) {
            c.close(static_cast<std::uint64_t>(wfd));
            std::string got = c.readSome(
                static_cast<std::uint64_t>(rfd), 64);
            return got == "marshalled hello" ? 17 : 1;
        });
        env.close(static_cast<std::uint64_t>(rfd));
        env.yield();
        env.writeAll(static_cast<std::uint64_t>(wfd),
                     "marshalled hello");
        env.close(static_cast<std::uint64_t>(wfd));
        int status = -1;
        env.waitpid(child, &status);
        return status == 17 ? 0 : 2;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimMarshal, LargeReadsChunkThroughBounce)
{
    // Reads far larger than the bounce area must still round-trip.
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        const std::uint64_t bytes = 48 * pageSize; // > bounce size
        std::int64_t f = env.open("/big", os::openCreate |
                                              os::openRead |
                                              os::openWrite);
        GuestVA buf = env.allocPages(bytes / pageSize);
        for (GuestVA off = 0; off < bytes; off += 8)
            env.store64(buf + off, off * 31 + 7);
        if (env.write(f, buf, bytes) !=
            static_cast<std::int64_t>(bytes))
            return 1;
        env.lseek(f, 0, os::seekSet);
        GuestVA back = env.allocPages(bytes / pageSize);
        if (env.read(f, back, bytes) !=
            static_cast<std::int64_t>(bytes))
            return 2;
        for (GuestVA off = 0; off < bytes; off += 4096) {
            if (env.load64(back + off) != off * 31 + 7)
                return 3;
        }
        env.close(f);
        return 0;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

/** An Iago-style kernel: inflates every result of one transfer call. */
class OverlongResults : public os::AttackHooks
{
  public:
    OverlongResults(System& sys, os::Sys num)
        : kernel_(sys.kernel()), num_(num)
    {
        kernel_.setAttackHooks(this);
    }

    ~OverlongResults() override { kernel_.setAttackHooks(nullptr); }

    void
    onSyscallReturn(os::Kernel&, os::Thread&, os::Sys num,
                    const os::SyscallArgs&, std::int64_t& rv) override
    {
        if (num == num_ && rv >= 0)
            rv += 64;
    }

  private:
    os::Kernel& kernel_;
    os::Sys num_;
};

TEST(ShimMarshal, OverlongTransferResultKills)
{
    // A kernel answering an 8-byte transfer with 72 would have the shim
    // copy 64 bytes it chose past the app's cloaked buffer. The shim
    // bounds every marshalled result by its request and kills instead.
    for (os::Sys num :
         {os::Sys::Read, os::Sys::Pread, os::Sys::Write, os::Sys::Pwrite}) {
        SCOPED_TRACE(os::sysName(num));
        System sys(cloakedConfig());
        OverlongResults attacker(sys, num);
        std::int64_t seen = 0;
        auto r = runCloaked(sys, [&](Env& env) {
            std::int64_t f = env.open("/plain", os::openCreate |
                                                    os::openRead |
                                                    os::openWrite);
            GuestVA buf = env.allocPages(1);
            if (os::transfersIn(num)) {
                env.writeAll(f, "0123456789abcdef");
                env.lseek(f, 0, os::seekSet);
            }
            // {fd, buf, len, offset}; read and write ignore the offset.
            seen = env.syscall(num, {static_cast<std::uint64_t>(f), buf, 8});
            return 0;
        });
        EXPECT_TRUE(r.killed) << "app saw " << seen;
        EXPECT_NE(r.killReason.find("cloak violation"), std::string::npos)
            << r.killReason;
        EXPECT_LE(seen, 8);
    }
}

/** An Iago-style kernel: answers one armed mmap with an address the
 *  app already holds. */
class RecycledMmap : public os::AttackHooks
{
  public:
    explicit RecycledMmap(System& sys) : kernel_(sys.kernel())
    {
        kernel_.setAttackHooks(this);
    }

    ~RecycledMmap() override { kernel_.setAttackHooks(nullptr); }

    void
    onSyscallReturn(os::Kernel&, os::Thread&, os::Sys num,
                    const os::SyscallArgs&, std::int64_t& rv) override
    {
        if (num == os::Sys::Mmap && target != 0 && rv > 0) {
            rv = static_cast<std::int64_t>(target);
            target = 0;
        }
    }

    GuestVA target = 0; ///< Address the next mmap returns (0: honest).

  private:
    os::Kernel& kernel_;
};

TEST(ShimMarshal, MmapResultOverlappingARegionKills)
{
    // Handing the app its own cloaked buffer as "fresh" memory would
    // let it read old secrets through the new one, or let the kernel
    // alias two resources over one range. The VMM refuses the second
    // registration and the shim kills.
    System sys(cloakedConfig());
    RecycledMmap attacker(sys);
    std::uint64_t leaked = 0;
    auto r = runCloaked(sys, [&](Env& env) {
        GuestVA secret = env.allocPages(1);
        env.store64(secret, 0x5ec7e7);
        attacker.target = secret;
        GuestVA fresh = env.allocPages(1);
        leaked = env.load64(fresh);
        return 0;
    });
    EXPECT_TRUE(r.killed) << "app read " << leaked;
    EXPECT_NE(r.killReason.find("cloak violation: mmap result overlaps a "
                                "protected region"),
              std::string::npos)
        << r.killReason;
    EXPECT_EQ(sys.cloak()->stats().value("result_violations"), 1u);
    EXPECT_EQ(leaked, 0u);
}

/** An Iago-style kernel: answers the next @c armed call with a
 *  descriptor the app already holds. */
class RecycledFd : public os::AttackHooks
{
  public:
    explicit RecycledFd(System& sys) : kernel_(sys.kernel())
    {
        kernel_.setAttackHooks(this);
    }

    ~RecycledFd() override { kernel_.setAttackHooks(nullptr); }

    void
    onSyscallReturn(os::Kernel& kernel, os::Thread& t, os::Sys num,
                    const os::SyscallArgs& args, std::int64_t& rv) override
    {
        if (num != armed || target < 0 || rv < 0)
            return;
        std::array<std::uint8_t, 8> fd{};
        storeLe64(fd.data(), static_cast<std::uint64_t>(target));
        if (num == os::Sys::Pipe) {
            // The read end of the {rfd, wfd} pair at args[0].
            kernel.copyToUser(t, args[0],
                              std::span<const std::uint8_t>(fd.data(), 4));
        } else if (num == os::Sys::SubmitBatch) {
            // The result of the last completion in the ring at args[1].
            kernel.copyToUser(t, args[1] + (args[2] - 1) * os::batchCompBytes,
                              fd);
        } else {
            rv = target;
        }
        target = -1;
    }

    os::Sys armed = os::Sys::Open;
    std::int64_t target = -1; ///< Descriptor to hand out (-1: honest).

  private:
    os::Kernel& kernel_;
};

TEST(ShimMarshal, FdResultAliasingAProtectedFdKills)
{
    // A "fresh" descriptor that is really an open protected file's
    // would have the shim serve the app's plain reads from that file's
    // plaintext mapping. Every call that hands out a descriptor kills.
    struct Case
    {
        const char* name;
        os::Sys armed;
        const char* reason;
    };
    for (const Case& c :
         {Case{"plain open", os::Sys::Open, "open"},
          Case{"protected open", os::Sys::Open, "open"},
          Case{"dup", os::Sys::Dup, "dup"},
          Case{"batched dup", os::Sys::SubmitBatch, "dup"},
          Case{"pipe", os::Sys::Pipe, "pipe"}}) {
        SCOPED_TRACE(c.name);
        const std::string name = c.name;
        System sys(cloakedConfig());
        RecycledFd attacker(sys);
        std::string leaked;
        auto r = runCloaked(sys, [&](Env& env) {
            const std::uint64_t rw =
                os::openCreate | os::openRead | os::openWrite;
            env.mkdir("/cloaked");
            std::int64_t secret = env.open("/cloaked/secret", rw);
            env.writeAll(secret, "TOPSECRETDATA");
            env.lseek(secret, 0, os::seekSet);
            attacker.armed = c.armed;
            attacker.target = secret;
            std::int64_t f = -1;
            if (name == "protected open") {
                f = env.open("/cloaked/other", rw);
            } else if (name == "pipe") {
                int rfd = -1, wfd = -1;
                env.pipe(rfd, wfd);
                f = rfd;
            } else {
                f = env.open("/plain", rw);
            }
            auto plain = static_cast<std::uint64_t>(f);
            if (name == "dup") {
                f = env.dup(plain);
            } else if (name == "batched dup") {
                std::vector<std::int64_t> results;
                env.submitBatch({{os::Sys::GetPid, {}},
                                 {os::Sys::Dup, {plain}}},
                                results);
                f = results[1];
            }
            leaked = env.readSome(static_cast<std::uint64_t>(f), 64);
            return 0;
        });
        EXPECT_TRUE(r.killed) << "app read " << leaked;
        EXPECT_NE(r.killReason.find(std::string("cloak violation: ") +
                                    c.reason +
                                    " result aliases a protected fd"),
                  std::string::npos)
            << r.killReason;
        EXPECT_EQ(sys.cloak()->stats().value("result_violations"), 1u);
        EXPECT_EQ(leaked, "");
    }
}

TEST(ShimEmulated, SeekModesAndEof)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        env.mkdir("/cloaked");
        std::int64_t f = env.open("/cloaked/s", os::openCreate |
                                                    os::openRead |
                                                    os::openWrite);
        env.writeAll(f, "abcdefgh");
        if (env.lseek(f, -3, os::seekEnd) != 5)
            return 1;
        if (env.readSome(f, 8) != "fgh")
            return 2;
        if (env.lseek(f, 2, os::seekSet) != 2)
            return 3;
        if (env.lseek(f, 1, os::seekCur) != 3)
            return 4;
        if (env.readSome(f, 2) != "de")
            return 5;
        // Read at EOF.
        env.lseek(f, 0, os::seekEnd);
        GuestVA b = env.allocPages(1);
        if (env.read(f, b, 8) != 0)
            return 6;
        // Negative seek rejected.
        if (env.lseek(f, -100, os::seekSet) != -os::errInval)
            return 7;
        env.close(f);
        return 0;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimEmulated, FtruncateGrowsButNeverShrinks)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        env.mkdir("/cloaked");
        std::int64_t f = env.open("/cloaked/t", os::openCreate |
                                                    os::openRead |
                                                    os::openWrite);
        env.writeAll(f, "data");
        if (env.ftruncate(f, 2) != -os::errInval)
            return 1; // shrink unsupported on protected files
        if (env.ftruncate(f, 3 * pageSize) != 0)
            return 2;
        os::StatBuf sb{};
        env.fstat(f, sb);
        if (sb.size != 3 * pageSize)
            return 3;
        // The grown region reads back as zeroes.
        env.lseek(f, 2 * pageSize, os::seekSet);
        GuestVA b = env.allocPages(1);
        if (env.read(f, b, 8) != 8)
            return 4;
        if (env.load64(b) != 0)
            return 5;
        env.close(f);
        return 0;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimEmulated, UnlinkDiscardsMetadataAndRecreateWorks)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        env.mkdir("/cloaked");
        std::int64_t f = env.open("/cloaked/u", os::openCreate |
                                                    os::openRead |
                                                    os::openWrite);
        env.writeAll(f, "first life");
        env.close(f);
        if (env.unlink("/cloaked/u") != 0)
            return 1;
        // Recreate at the same path: must start fresh, not trip over
        // stale sealed metadata.
        f = env.open("/cloaked/u", os::openCreate | os::openRead |
                                       os::openWrite);
        if (f < 0)
            return 2;
        env.writeAll(f, "second life");
        env.lseek(f, 0, os::seekSet);
        std::string s = env.readSome(f, 32);
        env.close(f);
        return s == "second life" ? 0 : 3;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimEmulated, AtRestCiphertextTamperDetected)
{
    // Tamper with the *disk image* of a protected file between two
    // processes: the next reader must be killed, not fed junk.
    System sys(cloakedConfig());
    // One program (one identity), two phases.
    sys.addProgram("atrest", os::Program{[](Env& env) {
        if (!env.args().empty() && env.args()[0] == "write") {
            env.mkdir("/cloaked");
            std::int64_t f = env.open("/cloaked/at-rest",
                                      os::openCreate | os::openWrite);
            if (f < 0)
                return 1;
            env.writeAll(f, "valuable data at rest");
            env.close(f);
            return 0;
        }
        std::int64_t f = env.open("/cloaked/at-rest", os::openRead);
        if (f < 0)
            return 2;
        env.readSome(f, 32); // must die here
        return 3;
    }, true, 64});

    ASSERT_EQ(sys.runProgram("atrest", {"write"}).status, 0);
    // Flip one ciphertext byte on "disk" and drop the page cache
    // (models a reboot / eviction between the two processes — with the
    // cache warm the tamper would be shadowed by the cached pages).
    auto& vfs = sys.kernel().vfs();
    std::int64_t ino_id = vfs.lookup("/cloaked/at-rest");
    ASSERT_GT(ino_id, 0);
    os::Inode& ino = vfs.inode(static_cast<os::InodeId>(ino_id));
    ASSERT_FALSE(ino.diskData.empty());
    ino.diskData[5] ^= 0x01;
    for (auto& [idx, entry] : ino.cache) {
        ASSERT_EQ(entry.mapCount, 0u);
        sys.kernel().frames().unref(entry.gpa);
    }
    ino.cache.clear();

    auto r = sys.runProgram("atrest", {"read"});
    EXPECT_TRUE(r.killed) << "status " << r.status;
    EXPECT_NE(r.killReason.find("cloak violation"), std::string::npos);
}

TEST(ShimEmulated, SparseWriteAfterSeekPastEof)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        env.mkdir("/cloaked");
        std::int64_t f = env.open("/cloaked/sparse",
                                  os::openCreate | os::openRead |
                                      os::openWrite);
        env.lseek(f, 2 * pageSize + 100, os::seekSet);
        env.writeAll(f, "tail");
        os::StatBuf sb{};
        env.fstat(f, sb);
        if (sb.size != 2 * pageSize + 104)
            return 1;
        // The hole reads back as zero.
        env.lseek(f, pageSize, os::seekSet);
        GuestVA b = env.allocPages(1);
        env.read(f, b, 8);
        if (env.load64(b) != 0)
            return 2;
        env.lseek(f, 2 * pageSize + 100, os::seekSet);
        std::string s = env.readSome(f, 8);
        env.close(f);
        return s == "tail" ? 0 : 3;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimEmulated, OpenMissingProtectedFileFails)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        env.mkdir("/cloaked");
        return env.open("/cloaked/nothing", os::openRead) ==
                       -os::errNoEnt
                   ? 0
                   : 1;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimEmulated, TwoProtectedFilesIndependent)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        env.mkdir("/cloaked");
        std::int64_t a = env.open("/cloaked/a", os::openCreate |
                                                    os::openRead |
                                                    os::openWrite);
        std::int64_t b = env.open("/cloaked/b", os::openCreate |
                                                    os::openRead |
                                                    os::openWrite);
        env.writeAll(a, "AAAA");
        env.writeAll(b, "BBBBBBBB");
        env.lseek(a, 0, os::seekSet);
        env.lseek(b, 0, os::seekSet);
        std::string sa = env.readSome(a, 16);
        std::string sb = env.readSome(b, 16);
        env.close(a);
        env.close(b);
        return sa == "AAAA" && sb == "BBBBBBBB" ? 0 : 1;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimEmulated, DupOfProtectedFdSharesShimState)
{
    // dup() of a protected fd is pass-through; the duplicate is served
    // by the kernel as a regular descriptor while the original stays
    // emulated. Both must close cleanly.
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        env.mkdir("/cloaked");
        std::int64_t f = env.open("/cloaked/d", os::openCreate |
                                                    os::openRead |
                                                    os::openWrite);
        env.writeAll(f, "x");
        std::int64_t d = env.dup(static_cast<std::uint64_t>(f));
        if (d < 0)
            return 1;
        if (env.close(static_cast<std::uint64_t>(d)) != 0)
            return 2;
        env.lseek(f, 0, os::seekSet);
        std::string s = env.readSome(f, 4);
        if (env.close(static_cast<std::uint64_t>(f)) != 0)
            return 3;
        return s == "x" ? 0 : 4;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

/**
 * The calls of OsFiles.WritesPastFileBoundAreRefused from a cloaked
 * process on @p path: one at a time, then again in one depth-8 batch.
 * Returns 0 when each is refused with EFBIG and the file stays empty.
 */
int
fileBoundCalls(Env& env, const std::string& path)
{
    using os::Sys;
    auto f = static_cast<std::uint64_t>(env.open(
        path, os::openCreate | os::openRead | os::openWrite));
    GuestVA buf = env.allocPages(1);
    if (env.pwrite(f, buf, 8, ~0ull - 3) != -os::errFBig)
        return 1;
    if (env.fsync(f) != 0)
        return 2;
    if (env.pwrite(f, buf, 8, 1ull << 40) != -os::errFBig)
        return 3;
    if (env.fsync(f) != 0)
        return 4;
    env.lseek(f, 1ll << 40, os::seekSet);
    if (env.write(f, buf, 8) != -os::errFBig)
        return 5;
    if (env.ftruncate(f, os::maxFileBytes + 1) != -os::errFBig)
        return 6;
    std::vector<os::BatchEntry> ring = {
        {Sys::Pwrite, {f, buf, 8, 1ull << 40}},
        {Sys::Fsync, {f}},
        {Sys::Pwrite, {f, buf, 8, ~0ull - 3}},
        {Sys::Fsync, {f}},
        {Sys::Lseek, {f, 1ull << 40, os::seekSet}},
        {Sys::Write, {f, buf, 8}},
        {Sys::Fsync, {f}},
        {Sys::GetPid, {}},
    };
    std::vector<std::int64_t> res;
    if (env.submitBatch(ring, res) != 8)
        return 7;
    const std::vector<std::int64_t> want = {
        -os::errFBig, 0, -os::errFBig, 0, 1ll << 40, -os::errFBig, 0,
        env.getpid()};
    if (res != want)
        return 8;
    os::StatBuf sb{};
    if (env.fstat(f, sb) != 0 || sb.size != 0)
        return 9;
    return 0;
}

TEST(ShimMarshal, WritesPastFileBoundAreRefused)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        return fileBoundCalls(env, "/big");
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimEmulated, WritesPastFileBoundAreRefused)
{
    // Accepted, the wrapped pwrite would copy through a wrapped mapping
    // address, and the 2^40 one would grow the mapping past the file
    // arena.
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        env.mkdir("/cloaked");
        return fileBoundCalls(env, "/cloaked/big");
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimBatch, ZeroLengthWritesLeaveSizeAlone)
{
    // Marshalled, emulated and batched: a zero-length write or pwrite
    // past EOF returns 0 and the size stays 0.
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        using os::Sys;
        env.mkdir("/cloaked");
        GuestVA buf = env.allocPages(1);
        int step = 0;
        for (const char* path : {"/z", "/cloaked/z"}) {
            auto f = static_cast<std::uint64_t>(env.open(
                path, os::openCreate | os::openRead | os::openWrite));
            os::StatBuf sb{};
            env.lseek(f, 100, os::seekSet);
            if (env.write(f, buf, 0) != 0 || env.pwrite(f, buf, 0, 300))
                return step + 1;
            if (env.fstat(f, sb) != 0 || sb.size != 0)
                return step + 2;
            std::vector<os::BatchEntry> ring(8, {Sys::GetPid, {}});
            ring[1] = {Sys::Write, {f, buf, 0}};
            ring[5] = {Sys::Pwrite, {f, buf, 0, 300}};
            std::vector<std::int64_t> res;
            if (env.submitBatch(ring, res) != 8 || res[1] != 0 ||
                res[5] != 0)
                return step + 3;
            if (env.fstat(f, sb) != 0 || sb.size != 0)
                return step + 4;
            if (env.lseek(f, 0, os::seekCur) != 100)
                return step + 5;
            step += 10;
        }
        return 0;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimPassthrough, ClockAndSleepAndYield)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        Cycles c0 = env.clock();
        env.sleep(5000);
        Cycles c1 = env.clock();
        if (c1 - c0 < 5000)
            return 1;
        env.yield();
        return 0;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(ShimStats, AdaptationClassesCounted)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        env.mkdir("/cloaked");
        std::int64_t p = env.open("/cloaked/f", os::openCreate |
                                                    os::openRead |
                                                    os::openWrite);
        env.writeAll(p, "emulated");
        env.lseek(p, 0, os::seekSet);
        env.readSome(p, 8);
        env.close(p);
        std::int64_t u = env.open("/plain", os::openCreate |
                                                os::openRead |
                                                os::openWrite);
        env.writeAll(u, "marshalled");
        env.close(u);
        return 0;
    });
    ASSERT_EQ(r.status, 0) << r.killReason;
    auto& stats = sys.cloak()->stats();
    EXPECT_GT(stats.value("shim_emulated_writes"), 0u);
    EXPECT_GT(stats.value("shim_emulated_reads"), 0u);
    EXPECT_GT(stats.value("shim_marshalled_writes"), 0u);
    EXPECT_GT(stats.value("shim_protected_opens"), 0u);
    EXPECT_GT(stats.value("shim_protected_closes"), 0u);
}


// ---------------------------------------------------------------------------
// I/O contract: read/pread/write/pwrite answer alike on every path
// ---------------------------------------------------------------------------

/** How a call reaches the file. */
enum class IoPath
{
    Native,     ///< Uncloaked process: straight to the kernel.
    Marshalled, ///< Cloaked process, plain file: bounce-buffer chunks.
    Emulated,   ///< Cloaked process, protected file: the cloaked mapping.
    Batch8,     ///< Cloaked process, plain file: slot 3 of a depth-8 ring.
};

/** What the call names instead of a good buffer on its open file. */
enum class IoTarget
{
    File,     ///< The file, opened read-write.
    ReadOnly, ///< The file, opened read-only.
    BadFd,    ///< A descriptor number nothing is open on.
    PipeBadBuf, ///< A pipe's read end, with an unmapped buffer.
    FileBadBuf, ///< The file, with an unmapped buffer.
};

/** Outcome marker: the call segfault-kills the application. */
constexpr std::int64_t ioKilled = INT64_MIN;

/** Bytes of the smaller file most rows start from. */
constexpr std::uint64_t ioSmall = 3000;
/** Bytes of the larger file: more than the 64 KiB bounce area. */
constexpr std::uint64_t ioLarge = 70000;
/** A transfer larger than the bounce area, so it takes several chunks. */
constexpr std::uint64_t ioChunky = 69000;
/** Unmapped in every process of these tests. */
constexpr GuestVA ioUnmapped = 0x7000'0000ull;

struct IoCase
{
    const char* name;
    os::Sys op;
    std::uint64_t fileBytes; ///< Initial size (pattern content).
    std::uint64_t seek;      ///< Cursor before the call.
    std::uint64_t len;
    std::uint64_t off;       ///< pread/pwrite only.
    IoTarget target;
    std::int64_t rv;         ///< Native result.
    std::uint64_t offset;    ///< Cursor after the call.
    std::uint64_t size;      ///< File size after the call.
    /** Result on the three cloaked paths (ioKilled: the app dies). */
    std::int64_t cloakedRv;
};

std::uint8_t
filePattern(std::uint64_t i)
{
    return static_cast<std::uint8_t>(i * 7 + 3);
}

std::uint8_t
writePattern(std::uint64_t i)
{
    return static_cast<std::uint8_t>(i * 13 + 101);
}

const std::vector<IoCase>&
ioContract()
{
    using os::Sys;
    constexpr auto F = IoTarget::File;
    constexpr std::int64_t badF = -os::errBadF;
    constexpr std::int64_t fault = -os::errFault;
    // clang-format off
    static const std::vector<IoCase> rows = {
      // name                op           file     seek  len       off   target                rv             offset size     cloaked
      {"read_mid",           Sys::Read,   ioSmall, 100,  500,      0,    F,                    500,           600,   ioSmall, 500},
      {"read_short",         Sys::Read,   ioSmall, 2800, 500,      0,    F,                    200,           3000,  ioSmall, 200},
      {"read_at_eof",        Sys::Read,   ioSmall, 3000, 100,      0,    F,                    0,             3000,  ioSmall, 0},
      {"read_past_eof",      Sys::Read,   ioSmall, 3050, 100,      0,    F,                    0,             3050,  ioSmall, 0},
      {"read_chunked",       Sys::Read,   ioLarge, 300,  ioChunky, 0,    F,                    69000,         69300, ioLarge, 69000},
      {"pread_mid",          Sys::Pread,  ioSmall, 10,   400,      1000, F,                    400,           10,    ioSmall, 400},
      {"pread_short",        Sys::Pread,  ioSmall, 10,   500,      2900, F,                    100,           10,    ioSmall, 100},
      {"pread_at_eof",       Sys::Pread,  ioSmall, 10,   10,       3000, F,                    0,             10,    ioSmall, 0},
      {"pread_chunked",      Sys::Pread,  ioLarge, 0,    ioChunky, 900,  F,                    69000,         0,     ioLarge, 69000},
      {"write_mid",          Sys::Write,  ioSmall, 200,  300,      0,    F,                    300,           500,   ioSmall, 300},
      {"write_extend",       Sys::Write,  ioSmall, 2900, 400,      0,    F,                    400,           3300,  3300,    400},
      {"write_sparse",       Sys::Write,  ioSmall, 4000, 100,      0,    F,                    100,           4100,  4100,    100},
      {"write_chunked",      Sys::Write,  ioSmall, 10,   ioChunky, 0,    F,                    69000,         69010, 69010,   69000},
      {"pwrite_mid",         Sys::Pwrite, ioSmall, 7,    300,      50,   F,                    300,           7,     ioSmall, 300},
      {"pwrite_extend",      Sys::Pwrite, ioSmall, 0,    500,      3010, F,                    500,           0,     3510,    500},
      {"pwrite_chunked",     Sys::Pwrite, ioSmall, 5,    ioChunky, 2000, F,                    69000,         5,     71000,   69000},
      // errno order: bad fd, bad buffer, ESPIPE before EFAULT, EPERM
      {"read_bad_fd",        Sys::Read,   ioSmall, 0,    10,       0,    IoTarget::BadFd,      badF,          0,     ioSmall, badF},
      {"pwrite_bad_fd",      Sys::Pwrite, ioSmall, 0,    10,       0,    IoTarget::BadFd,      badF,          0,     ioSmall, badF},
      // The shim copies through the app's own pointer, as a libc memcpy
      // would, so a cloaked app faults where the kernel says EFAULT.
      {"read_bad_buf",       Sys::Read,   ioSmall, 0,    10,       0,    IoTarget::FileBadBuf, fault,         0,     ioSmall, ioKilled},
      {"write_bad_buf",      Sys::Write,  ioSmall, 0,    10,       0,    IoTarget::FileBadBuf, fault,         0,     ioSmall, ioKilled},
      {"pread_pipe_bad_buf", Sys::Pread,  ioSmall, 0,    10,       0,    IoTarget::PipeBadBuf, -os::errSPipe, 0,     ioSmall, -os::errSPipe},
      {"write_read_only",    Sys::Write,  ioSmall, 0,    10,       0,    IoTarget::ReadOnly,   -os::errPerm,  0,     ioSmall, -os::errPerm},
    };
    // clang-format on
    return rows;
}

/** What one row observed from inside the guest. */
struct IoObserved
{
    bool done = false;
    std::int64_t rv = 0;
    std::int64_t offset = 0;
    std::uint64_t size = 0;
    std::vector<std::uint8_t> bytes; ///< Read data, or the whole file.
};

int
ioCaseBody(Env& env, IoPath path, const IoCase& c, IoObserved& out)
{
    using os::Sys;
    std::string name = "/io.dat";
    if (path == IoPath::Emulated) {
        env.mkdir("/cloaked");
        name = "/cloaked/io.dat";
    }
    std::int64_t fd = env.open(name, os::openCreate | os::openRead |
                                         os::openWrite);
    if (fd < 0)
        return 1;
    std::uint64_t span = std::max<std::uint64_t>(
        {c.fileBytes, c.len, c.off + c.len, c.seek + c.len, 1});
    GuestVA buf = env.allocPages(roundUpToPage(span) / pageSize + 1);
    std::vector<std::uint8_t> bytes(c.fileBytes);
    for (std::uint64_t i = 0; i < bytes.size(); ++i)
        bytes[i] = filePattern(i);
    env.writeBytes(buf, bytes);
    if (env.write(static_cast<std::uint64_t>(fd), buf, c.fileBytes) !=
        static_cast<std::int64_t>(c.fileBytes))
        return 2;
    if (c.target == IoTarget::ReadOnly) {
        env.close(static_cast<std::uint64_t>(fd));
        fd = env.open(name, os::openRead);
        if (fd < 0)
            return 3;
    }
    const auto file = static_cast<std::uint64_t>(fd);
    env.lseek(file, static_cast<std::int64_t>(c.seek), os::seekSet);

    // The operand buffer: the write pattern for writes, a sentinel for
    // reads (so a short read's untouched tail shows).
    bool writes = c.op == Sys::Write || c.op == Sys::Pwrite;
    std::vector<std::uint8_t> data(c.len);
    for (std::uint64_t i = 0; i < c.len; ++i)
        data[i] = writes ? writePattern(i) : 0xee;
    env.writeBytes(buf, data);

    std::uint64_t target = file;
    GuestVA operand = buf;
    switch (c.target) {
      case IoTarget::BadFd:
        target = 77;
        break;
      case IoTarget::PipeBadBuf:
        {
            int rfd = -1, wfd = -1;
            if (env.pipe(rfd, wfd) != 0)
                return 4;
            target = static_cast<std::uint64_t>(rfd);
            operand = ioUnmapped;
        }
        break;
      case IoTarget::FileBadBuf:
        operand = ioUnmapped;
        break;
      default:
        break;
    }
    os::SyscallArgs args{target, operand, c.len,
                         c.op == Sys::Pread || c.op == Sys::Pwrite ? c.off
                                                                   : 0,
                         0};
    if (path == IoPath::Batch8) {
        std::vector<os::BatchEntry> ring(8, os::BatchEntry{Sys::GetPid, {}});
        ring[3] = os::BatchEntry{c.op, args};
        std::vector<std::int64_t> results;
        if (env.submitBatch(ring, results) != 8)
            return 5;
        out.rv = results[3];
    } else {
        out.rv = env.syscall(c.op, args);
    }

    out.offset = env.lseek(file, 0, os::seekCur);
    os::StatBuf sb{};
    if (env.fstat(file, sb) != 0)
        return 6;
    out.size = sb.size;
    if (!writes) {
        out.bytes.resize(c.len);
        env.readBytes(buf, out.bytes);
    } else {
        // Read the whole file back through the same path.
        GuestVA back = env.allocPages(roundUpToPage(out.size + 1) /
                                      pageSize);
        out.bytes.resize(out.size);
        if (env.pread(file, back, out.size, 0) !=
            static_cast<std::int64_t>(out.size))
            return 7;
        env.readBytes(back, out.bytes);
    }
    out.done = true;
    env.close(file);
    return 0;
}

/** Replay the contract table on one path; every row gets its own System. */
void
checkIoContract(IoPath path)
{
    using os::Sys;
    for (const IoCase& c : ioContract()) {
        SCOPED_TRACE(c.name);
        SystemConfig cfg = cloakedConfig();
        cfg.cloakingEnabled = path != IoPath::Native;
        System sys(cfg);
        IoObserved out;
        sys.addProgram("io", os::Program{[&](Env& env) {
                                             return ioCaseBody(env, path, c,
                                                               out);
                                         },
                                         path != IoPath::Native, 64});
        auto r = sys.runProgram("io");

        std::int64_t want = path == IoPath::Native ? c.rv : c.cloakedRv;
        if (want == ioKilled) {
            EXPECT_TRUE(r.killed);
            EXPECT_NE(r.killReason.find("segfault"), std::string::npos)
                << r.killReason;
            continue;
        }
        ASSERT_EQ(r.status, 0) << r.killReason;
        ASSERT_TRUE(out.done);
        EXPECT_EQ(out.rv, want);
        EXPECT_EQ(out.offset, static_cast<std::int64_t>(c.offset));
        EXPECT_EQ(out.size, c.size);

        // The model: pattern file, then the call's effect.
        std::vector<std::uint8_t> model(c.fileBytes);
        for (std::uint64_t i = 0; i < model.size(); ++i)
            model[i] = filePattern(i);
        bool positional = c.op == Sys::Pread || c.op == Sys::Pwrite;
        std::uint64_t pos = positional ? c.off : c.seek;
        std::uint64_t n = want > 0 ? static_cast<std::uint64_t>(want) : 0;
        std::vector<std::uint8_t> expect;
        if (c.op == Sys::Read || c.op == Sys::Pread) {
            expect.assign(c.len, 0xee);
            for (std::uint64_t i = 0; i < n; ++i)
                expect[i] = model[pos + i];
        } else {
            expect = model;
            if (pos + n > expect.size())
                expect.resize(pos + n, 0);
            for (std::uint64_t i = 0; i < n; ++i)
                expect[pos + i] = writePattern(i);
        }
        EXPECT_TRUE(out.bytes == expect) << "bytes differ";
    }
}

TEST(ShimEmulated, ReadOnlyFdRefusesWrites)
{
    // The shim serves a protected file from a read-write mapping, so
    // it must enforce the open mode itself, as the kernel does: every
    // write through a read-only descriptor is EPERM, zero-length ones
    // included, per call and inside a batch, and nothing lands.
    using os::Sys;
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        env.mkdir("/cloaked");
        std::int64_t w = env.open("/cloaked/ro", os::openCreate |
                                                     os::openWrite);
        env.writeAll(static_cast<std::uint64_t>(w), "0123456789");
        env.close(static_cast<std::uint64_t>(w));
        const auto fd = static_cast<std::uint64_t>(
            env.open("/cloaked/ro", os::openRead));
        GuestVA buf = env.allocPages(1);
        env.store64(buf, 0x4141414141414141ull);
        if (env.write(fd, buf, 8) != -os::errPerm)
            return 1;
        if (env.write(fd, buf, 0) != -os::errPerm)
            return 2;
        if (env.pwrite(fd, buf, 8, 2) != -os::errPerm)
            return 3;
        std::vector<os::BatchEntry> ring(4, os::BatchEntry{Sys::GetPid, {}});
        ring[1] = os::BatchEntry{Sys::Write, {fd, buf, 8, 0, 0}};
        ring[2] = os::BatchEntry{Sys::Pwrite, {fd, buf, 8, 4, 0}};
        std::vector<std::int64_t> results;
        if (env.submitBatch(ring, results) != 4 ||
            results[1] != -os::errPerm || results[2] != -os::errPerm)
            return 4;
        if (env.lseek(fd, 0, os::seekCur) != 0)
            return 5;
        GuestVA back = env.allocPages(1);
        if (env.pread(fd, back, 10, 0) != 10 ||
            env.readString(back, 10) != "0123456789")
            return 6;
        return 0;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(IoContract, Native) { checkIoContract(IoPath::Native); }
TEST(IoContract, Marshalled) { checkIoContract(IoPath::Marshalled); }
TEST(IoContract, Emulated) { checkIoContract(IoPath::Emulated); }
TEST(IoContract, Batch8) { checkIoContract(IoPath::Batch8); }

} // namespace
} // namespace osh
