/**
 * @file
 * Attack-campaign matrix tests: the hostile-OS campaign (src/attack)
 * must classify every attack-point × victim-workload × seed cell as
 * Detected or Harmless — never Leak (sentinel oracle hit) and never
 * Crash (silent corruption, non-cloak kill, or osh_panic). Also proves
 * the leak oracle actually finds planted plaintext, pins campaign
 * determinism, and checks that a destroyed director leaves an honest
 * kernel behind.
 */

#include "attack/campaign.hh"
#include "attack/director.hh"
#include "attack/points.hh"
#include "os/env.hh"
#include "os/kernel.hh"
#include "system/system.hh"
#include "workloads/workloads.hh"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

namespace osh::attack
{
namespace
{

using system::System;
using system::SystemConfig;

std::string
cellName(const CampaignCell& c)
{
    return "seed=" + std::to_string(c.seed) + " point=" +
           attackPointName(c.point) + " workload=" + c.workload +
           " detail=[" + c.detail + "]";
}

/** The full 3-seed sweep, run once and shared across tests. */
class CampaignMatrix : public ::testing::Test
{
  protected:
    static const CampaignReport&
    report()
    {
        static const CampaignReport r = runCampaign(CampaignConfig{});
        return r;
    }

    static const CampaignCell&
    cell(std::uint64_t seed, AttackPoint point, const std::string& wl)
    {
        for (const CampaignCell& c : report().cells) {
            if (c.seed == seed && c.point == point && c.workload == wl)
                return c;
        }
        throw std::logic_error("campaign cell missing: " +
                               std::string(attackPointName(point)) +
                               " x " + wl);
    }
};

TEST_F(CampaignMatrix, NeverLeaksOrCrashes)
{
    const CampaignReport& r = report();
    ASSERT_EQ(r.cells.size(),
              3 * allAttackPoints().size() *
                  workloads::victimNames().size());
    for (const CampaignCell& c : r.cells) {
        EXPECT_NE(c.verdict, Verdict::Leak) << cellName(c);
        EXPECT_NE(c.verdict, Verdict::Crash) << cellName(c);
    }
    EXPECT_TRUE(r.clean());
}

/** Any tampering attack that actually fired must have been caught —
 *  a fired tamper that goes unnoticed is an integrity hole even if
 *  the victim happened to exit cleanly. */
TEST_F(CampaignMatrix, FiredTamperingIsAlwaysDetected)
{
    for (const CampaignCell& c : report().cells) {
        if (isTamperPoint(c.point) && c.firings > 0) {
            EXPECT_EQ(c.verdict, Verdict::Detected) << cellName(c);
        }
    }
}

/** The matrix has teeth: each tamper family must fire AND be detected
 *  on the workload built to exercise its injection point. */
TEST_F(CampaignMatrix, EveryTamperFamilyFiresAndIsDetected)
{
    const std::uint64_t seed = 1;

    // Swap-path attacks need a victim that actually swaps.
    for (AttackPoint p :
         {AttackPoint::SwapTamperByte, AttackPoint::SwapTamperPage,
          AttackPoint::SwapReplay, AttackPoint::SwapResurrect}) {
        const CampaignCell& c = cell(seed, p, "wl.victim.paging");
        EXPECT_GT(c.firings, 0u) << cellName(c);
        EXPECT_EQ(c.verdict, Verdict::Detected) << cellName(c);
    }

    // Sealed-metadata attacks need a victim with protected files.
    for (AttackPoint p :
         {AttackPoint::SealCorrupt, AttackPoint::SealTruncate,
          AttackPoint::SealRollback}) {
        const CampaignCell& c = cell(seed, p, "wl.victim.fileio");
        EXPECT_GT(c.firings, 0u) << cellName(c);
        EXPECT_EQ(c.verdict, Verdict::Detected) << cellName(c);
    }

    // Direct memory scribbles and shadow-table lies hit every victim.
    for (AttackPoint p :
         {AttackPoint::SyscallScribble, AttackPoint::ShadowRemap,
          AttackPoint::ShadowDoubleMap}) {
        for (const std::string& wl : workloads::victimNames()) {
            const CampaignCell& c = cell(seed, p, wl);
            EXPECT_GT(c.firings, 0u) << cellName(c);
            EXPECT_EQ(c.verdict, Verdict::Detected) << cellName(c);
        }
    }

    // Migration-transport attacks need a victim that speaks the
    // cooperative-resume protocol (compute and paging do).
    for (AttackPoint p :
         {AttackPoint::MigImageTamper, AttackPoint::MigImageRollback,
          AttackPoint::MigStreamReplay,
          AttackPoint::MigManifestTrunc}) {
        for (const char* wl : {"wl.victim.compute", "wl.victim.paging"}) {
            const CampaignCell& c = cell(seed, p, wl);
            EXPECT_GT(c.firings, 0u) << cellName(c);
            EXPECT_EQ(c.verdict, Verdict::Detected) << cellName(c);
        }
    }
}

/** Probe attacks only ever observe ciphertext or scrubbed registers:
 *  they must complete without tripping the victim. */
TEST_F(CampaignMatrix, ProbesFireButStayHarmless)
{
    for (const std::string& wl : workloads::victimNames()) {
        const CampaignCell& snoop =
            cell(1, AttackPoint::SyscallSnoop, wl);
        EXPECT_GT(snoop.firings, 0u) << cellName(snoop);
        EXPECT_EQ(snoop.verdict, Verdict::Harmless) << cellName(snoop);

        const CampaignCell& trap =
            cell(1, AttackPoint::TrapFrameProbe, wl);
        EXPECT_GT(trap.firings, 0u) << cellName(trap);
        EXPECT_EQ(trap.verdict, Verdict::Harmless) << cellName(trap);
    }

    // read() corruption of unprotected data is conceded by the threat
    // model: the fileio victim reads a public file and must tolerate
    // junk in it.
    const CampaignCell& rc =
        cell(1, AttackPoint::ReadCorrupt, "wl.victim.fileio");
    EXPECT_GT(rc.firings, 0u) << cellName(rc);
    EXPECT_EQ(rc.verdict, Verdict::Harmless) << cellName(rc);
}

TEST_F(CampaignMatrix, BaselineIsAlwaysHarmless)
{
    for (const CampaignCell& c : report().cells) {
        if (c.point != AttackPoint::Baseline)
            continue;
        EXPECT_EQ(c.verdict, Verdict::Harmless) << cellName(c);
        EXPECT_EQ(c.firings, 0u) << cellName(c);
        EXPECT_FALSE(c.killed) << cellName(c);
    }
}

TEST(AttackCampaign, SameSeedGivesIdenticalVerdictTable)
{
    CampaignConfig cfg;
    cfg.seeds = {7};
    cfg.points = {AttackPoint::SwapTamperPage, AttackPoint::SealRollback,
                  AttackPoint::SyscallScribble, AttackPoint::ShadowRemap};
    const std::string first = runCampaign(cfg).table();
    const std::string second = runCampaign(cfg).table();
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("DETECTED"), std::string::npos);
}

TEST(AttackCampaign, ConfigValidationRejectsNonsense)
{
    {
        CampaignConfig cfg;
        cfg.seeds = {};
        EXPECT_THROW(runCampaign(cfg), std::invalid_argument);
    }
    {
        CampaignConfig cfg;
        cfg.seeds = {1, 1};
        EXPECT_THROW(runCampaign(cfg), std::invalid_argument);
    }
    {
        CampaignConfig cfg;
        cfg.workloads = {"wl.victim.compute", "wl.victim.compute"};
        EXPECT_THROW(runCampaign(cfg), std::invalid_argument);
    }
    {
        CampaignConfig cfg;
        cfg.workloads = {"wl.no.such.victim"};
        EXPECT_THROW(runCampaign(cfg), std::invalid_argument);
    }
    {
        CampaignConfig cfg;
        cfg.points = {AttackPoint::Baseline, AttackPoint::Baseline};
        EXPECT_THROW(runCampaign(cfg), std::invalid_argument);
    }
}

TEST(AttackCampaign, AttackSeedMustNotAliasWorkloadSeed)
{
    SystemConfig cfg = SystemConfig::Builder{}.seed(5).build();
    EXPECT_NE(cfg.effectiveAttackSeed(), cfg.seed);
    EXPECT_EQ(cfg.effectiveAttackSeed(), 5u ^ 0xa77acc5eedull);
}

/** The oracle must actually find plaintext when it IS kernel-visible —
 *  otherwise "zero LEAK verdicts" proves nothing. Plant the sentinel
 *  in a public (unprotected) file from an uncloaked program and check
 *  the scan reports it. */
TEST(LeakOracle, FindsPlantedSentinel)
{
    const std::uint64_t seed = 11;
    SystemConfig cfg = SystemConfig::Builder{}
                           .seed(seed)
                           .guestFrames(256)
                           .cloaking(true)
                           .build();
    System sys(cfg);
    workloads::registerAll(sys);

    DirectorConfig dcfg;
    dcfg.point = AttackPoint::Baseline;
    dcfg.seed = cfg.effectiveAttackSeed();
    AttackDirector director(sys, dcfg);

    const std::uint64_t sentinel = workloads::attackSentinel(seed);
    EXPECT_TRUE(findSentinelLeak(sys, director, sentinel).empty());

    sys.addProgram("leaker", os::Program{
        [sentinel](os::Env& env) {
            GuestVA buf = env.allocPages(1);
            env.store64(buf, sentinel);
            int fd = env.open("/public_leak",
                              os::openCreate | os::openWrite);
            if (fd < 0)
                return 1;
            if (env.write(fd, buf, 8) != 8)
                return 2;
            env.close(fd);
            return 0;
        },
        false, 16});
    ASSERT_EQ(sys.runProgram("leaker").status, 0);

    // The uncloaked leaker's plaintext is now kernel-visible twice
    // over: in the un-scrubbed machine frame it wrote through, and in
    // the public file's disk image. The scan reports the first surface
    // it hits; any hit proves the oracle has teeth.
    std::string leak = findSentinelLeak(sys, director, sentinel);
    EXPECT_FALSE(leak.empty());
    EXPECT_TRUE(leak.find("machine frame") != std::string::npos ||
                leak.find("vfs inode") != std::string::npos)
        << leak;
}

/** What one victim run did to a System: the exit plus every cycle and
 *  Kernel counter it added. */
struct VictimRun
{
    Cycles cycles = 0;
    int status = -1;
    bool killed = false;
    std::map<std::string, std::uint64_t> kernelStats;
};

VictimRun
runVictim(System& sys, const std::string& victim)
{
    std::map<std::string, std::uint64_t> before;
    for (const auto& [name, v] : sys.kernel().stats().snapshot())
        before[name] = v;
    Cycles c0 = sys.cycles();
    system::ExitResult r = sys.runProgram(victim);

    VictimRun out{sys.cycles() - c0, r.status, r.killed, {}};
    for (const auto& [name, v] : sys.kernel().stats().snapshot())
        out.kernelStats[name] = v - before[name];
    return out;
}

/**
 * Destroying a director must reinstall the kernel's built-in no-op
 * hooks: a victim run afterwards on the same System behaves exactly
 * like a run on a System that never had a director. The snoop point
 * charges a page seal per peek, so a director left installed (or a
 * dangling hook) would show up in the cycle delta.
 */
TEST(AttackDirectorLifetime, DestroyedDirectorRestoresHonestKernel)
{
    const std::string victim = "wl.victim.compute";
    SystemConfig cfg = SystemConfig::Builder{}.seed(3).cloaking(true).build();

    System fresh(cfg);
    workloads::registerAll(fresh);
    VictimRun reference = runVictim(fresh, victim);
    ASSERT_EQ(reference.status, 0);
    ASSERT_FALSE(reference.killed);

    System sys(cfg);
    workloads::registerAll(sys);
    {
        DirectorConfig dcfg;
        dcfg.point = AttackPoint::SyscallSnoop;
        dcfg.seed = cfg.effectiveAttackSeed();
        AttackDirector director(sys, dcfg);
        VictimRun attacked = runVictim(sys, victim);
        ASSERT_GT(director.firings(), 0u);
        ASSERT_NE(attacked.cycles, reference.cycles);
    }
    VictimRun after = runVictim(sys, victim);
    EXPECT_EQ(after.cycles, reference.cycles);
    EXPECT_EQ(after.status, reference.status);
    EXPECT_EQ(after.killed, reference.killed);
    EXPECT_EQ(after.kernelStats, reference.kernelStats);
}

} // namespace
} // namespace osh::attack
