/**
 * @file
 * End-to-end integration tests that exercise longer lifecycles:
 * exec chains across cloaked/native programs, reusing one System for
 * many runs, larger process trees under preemption, and termination
 * semantics for cloaked processes.
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
config(bool cloaked, std::uint64_t frames = 2048)
{
    SystemConfig cfg;
    cfg.cloakingEnabled = cloaked;
    cfg.guestFrames = frames;
    cfg.preemptOpsPerTick = 0;
    return cfg;
}

TEST(Integration, ExecChainAcrossProtectionModes)
{
    // cloaked -> native -> cloaked -> cloaked: domains must be torn
    // down and re-created correctly at each hop; an exec never leaves
    // the process naming its dead domain, so each cloaked hop is a
    // fresh launch.
    System sys(config(true));
    sys.addProgram("hop4", os::Program{[](Env& env) {
        GuestVA p = env.allocPages(1);
        env.store64(p, 3);
        return static_cast<int>(env.load64(p) * 10);
    }, true, 32});
    sys.addProgram("hop3", os::Program{[](Env& env) {
        GuestVA p = env.allocPages(1);
        env.store64(p, 4);
        env.exec("hop4");
        return 0;
    }, true, 32});
    sys.addProgram("hop2", os::Program{[](Env& env) {
        env.exec("hop3");
        return 0;
    }, false, 32});
    sys.addProgram("hop1", os::Program{[](Env& env) {
        env.exec("hop2");
        return 0;
    }, true, 32});

    auto r = sys.runProgram("hop1");
    EXPECT_EQ(r.status, 30) << r.killReason;
    // hop1, hop3 and hop4 each had a domain; all are gone.
    EXPECT_EQ(sys.cloak()->stats().value("domains_created"), 3u);
    EXPECT_EQ(sys.cloak()->stats().value("domains_destroyed"), 3u);
    const StatGroup& events = sys.machine().cost().stats();
    EXPECT_EQ(events.value("cloak_launch"), 3u);
    EXPECT_EQ(events.value("cloak_restore_launch"), 0u);
}

TEST(Integration, ForkWithoutABodyIsRefused)
{
    // A raw fork trap parks no child body: the kernel refuses it
    // before creating a process, and the caller runs on (a later
    // Env::fork still works).
    for (bool cloaked : {false, true}) {
        SCOPED_TRACE(cloaked ? "cloaked" : "native");
        System sys(config(cloaked));
        sys.addProgram("forker", os::Program{[](Env& env) {
            GuestVA p = env.allocPages(1);
            env.store64(p, 5);
            if (env.syscall(os::Sys::Fork) != -os::errInval)
                return 1;
            if (env.syscall(os::Sys::Fork, {1234}) != -os::errInval)
                return 2;
            Pid child = env.fork([p](Env& c) {
                c.getpid();
                return static_cast<int>(c.load64(p));
            });
            int status = -1;
            if (env.waitpid(child, &status) != child || status != 5)
                return 3;
            return env.load64(p) == 5 ? 0 : 4;
        }, true, 32});

        auto r = sys.runProgram("forker");
        EXPECT_EQ(r.status, 0) << r.killReason;
        EXPECT_FALSE(r.killed);
        // The parent and the one real child.
        EXPECT_EQ(sys.kernel().stats().value("forks"), 1u);
        EXPECT_EQ(sys.results().size(), 2u);
        if (cloaked) {
            EXPECT_EQ(sys.cloak()->stats().value("fork_snapshots"), 1u);
            EXPECT_EQ(sys.machine().cost().stats().value(
                          "cloak_fork_launch"),
                      1u);
        }
    }
}

TEST(Integration, SystemReusedForManyRuns)
{
    System sys(config(true));
    workloads::registerAll(sys);
    std::string first;
    for (int i = 0; i < 5; ++i) {
        auto r = sys.runProgram("wl.histogram", {"2048"});
        ASSERT_EQ(r.status, 0) << r.killReason;
        std::string cs = workloads::resultOf(sys, "wl.histogram");
        if (i == 0)
            first = cs;
        EXPECT_EQ(cs, first);
    }
    // Five separate pids with recorded results.
    EXPECT_GE(sys.results().size(), 5u);
}

TEST(Integration, WideProcessTreeUnderPreemption)
{
    SystemConfig cfg = config(true);
    cfg.preemptOpsPerTick = 1500;
    System sys(cfg);
    sys.addProgram("leaf", os::Program{[](Env& env) {
        GuestVA p = env.allocPages(1);
        std::uint64_t acc = 7;
        for (int i = 0; i < 4000; ++i) {
            env.store64(p, acc);
            acc = env.load64(p) * 31 + 1;
        }
        return static_cast<int>(acc % 100);
    }, true, 16});
    sys.addProgram("root", os::Program{[](Env& env) {
        std::vector<Pid> kids;
        for (int i = 0; i < 6; ++i)
            kids.push_back(env.spawn("leaf"));
        int sum = 0;
        for (Pid k : kids) {
            int status = -1;
            if (env.waitpid(k, &status) != k)
                return -1;
            sum += status;
        }
        // All leaves compute the same deterministic value.
        return sum % 6 == 0 ? 0 : 1;
    }, true, 32});
    auto r = sys.runProgram("root");
    EXPECT_EQ(r.status, 0) << r.killReason;
    EXPECT_GT(sys.sched().stats().value("preemptions"), 0u);
}

TEST(Integration, NestedForkGrandchildren)
{
    System sys(config(true));
    auto body = [](Env& env) {
        GuestVA p = env.allocPages(1);
        env.store64(p, 40);
        Pid child = env.fork([p](Env& c) {
            c.store64(p, c.load64(p) + 1); // 41, private
            Pid grand = c.fork([p](Env& g) {
                g.store64(p, g.load64(p) + 1); // 42, private
                return static_cast<int>(g.load64(p));
            });
            int gs = -1;
            c.waitpid(grand, &gs);
            if (gs != 42)
                return 1;
            return static_cast<int>(c.load64(p));
        });
        int cs = -1;
        env.waitpid(child, &cs);
        if (cs != 41)
            return 2;
        return env.load64(p) == 40 ? 0 : 3;
    };
    sys.addProgram("nest", os::Program{body, true, 32});
    auto r = sys.runProgram("nest");
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(Integration, KillingBlockedCloakedProcessCleansUp)
{
    System sys(config(true));
    sys.addProgram("boss", os::Program{[](Env& env) {
        int rfd = -1, wfd = -1;
        env.pipe(rfd, wfd);
        Pid child = env.fork([rfd](Env& c) {
            GuestVA buf = c.allocPages(1);
            c.store64(buf, 0x5ec3e7);
            c.read(static_cast<std::uint64_t>(rfd), buf, 8); // blocks
            return 0;
        });
        env.yield(); // let the child block
        env.kill(child, os::sigKill);
        int status = -1;
        if (env.waitpid(child, &status) != child)
            return 1;
        return status == -1 ? 0 : 2;
    }, true, 32});
    auto r = sys.runProgram("boss");
    EXPECT_EQ(r.status, 0) << r.killReason;
    // The child's domain was torn down despite the violent death.
    EXPECT_EQ(sys.cloak()->stats().value("domains_created"),
              sys.cloak()->stats().value("domains_destroyed"));
}

TEST(Integration, SegfaultingCloakedProcessReported)
{
    System sys(config(true));
    sys.addProgram("crash", os::Program{[](Env& env) {
        env.load64(0x10); // far below any mapping
        return 0;
    }, true, 32});
    auto r = sys.runProgram("crash");
    EXPECT_TRUE(r.killed);
    EXPECT_NE(r.killReason.find("segfault"), std::string::npos);
    EXPECT_EQ(sys.cloak()->stats().value("domains_destroyed"), 1u);
}

TEST(Integration, MixedCloakedAndNativeProcessesCoexist)
{
    // A native process and a cloaked process share the machine; the
    // native one cannot read the cloaked one's pages even if it maps
    // the same file the cloaked one protects.
    System sys(config(true));
    workloads::registerAll(sys);
    sys.addProgram("plain-helper", os::Program{[](Env& env) {
        GuestVA p = env.allocPages(2);
        env.store64(p, 123);
        return static_cast<int>(env.load64(p));
    }, false, 32});
    sys.addProgram("coordinator", os::Program{[](Env& env) {
        env.mkdir("/cloaked");
        std::int64_t f = env.open("/cloaked/shared",
                                  os::openCreate | os::openRead |
                                      os::openWrite);
        env.writeAll(f, "for my eyes only");
        Pid helper = env.spawn("plain-helper");
        int hs = -1;
        env.waitpid(helper, &hs);
        if (hs != 123)
            return 1;
        env.lseek(f, 0, os::seekSet);
        std::string back = env.readSome(f, 32);
        env.close(f);
        return back == "for my eyes only" ? 0 : 2;
    }, true, 32});
    auto r = sys.runProgram("coordinator");
    EXPECT_EQ(r.status, 0) << r.killReason;

    // Host-side check: nothing in guest "disk" or frames holds the
    // plaintext once the process is gone.
    std::string disk = workloads::readGuestFile(sys, "/cloaked/shared");
    EXPECT_EQ(disk.find("my eyes"), std::string::npos);
}

TEST(Integration, ExitStatusesRecordedPerPid)
{
    System sys(config(false));
    sys.addProgram("coded", os::Program{[](Env& env) {
        return static_cast<int>(
            std::strtol(env.args().at(0).c_str(), nullptr, 10));
    }, false, 16});
    Pid a = sys.launch("coded", {"11"});
    Pid b = sys.launch("coded", {"22"});
    sys.run();
    ASSERT_NE(sys.resultOf(a), nullptr);
    ASSERT_NE(sys.resultOf(b), nullptr);
    EXPECT_EQ(sys.resultOf(a)->status, 11);
    EXPECT_EQ(sys.resultOf(b)->status, 22);
    EXPECT_EQ(sys.resultOf(a)->programName, "coded");
}

TEST(Integration, CloakedRunsCostMoreButBothDeterministic)
{
    auto cycles = [](bool cloaked) {
        System sys(config(cloaked));
        workloads::registerAll(sys);
        auto r = sys.runProgram("wl.stencil", {"32", "4"});
        EXPECT_EQ(r.status, 0);
        return sys.cycles();
    };
    Cycles native1 = cycles(false);
    Cycles native2 = cycles(false);
    Cycles cloaked1 = cycles(true);
    Cycles cloaked2 = cycles(true);
    EXPECT_EQ(native1, native2);
    EXPECT_EQ(cloaked1, cloaked2);
    EXPECT_GT(cloaked1, native1);
}

} // namespace
} // namespace osh
