/**
 * @file
 * Timing side-channel campaign + virtualized-clock hardening tests.
 *
 * Covers both halves of the timing story:
 *
 *   - the attack: with hardening off, every timing oracle (victim-cache
 *     probe, clean-page probe, async drain-stall, metadata hit/miss)
 *     recovers the timing victim's balanced 32-bit secret well above
 *     chance and the campaign classifies the cell LEAK;
 *   - the defense: with the virtualized per-context clock and the
 *     constant-cost cloak responses on (the campaign default), the same
 *     cells are Harmless;
 *   - the clock itself: unhardened it replays raw machine cycles
 *     bit-identically (every committed baseline depends on this), and
 *     hardened it gives a seeded, monotonic, per-ASID spoofed sequence
 *     that is reproducible across runs, vCPU counts and async eviction
 *     depths;
 *   - the posture is one switch: it needs cloaking, and it turns the
 *     virtual clock and the constant-cost responses on together;
 *   - the Sys::Sleep clamp: a hostile/buggy guest cannot charge an
 *     unvalidated 2^64-cycle sleep to the simulated clock;
 *   - the CloakIntrospect hypercall: a cloaked guest can query which
 *     hardening posture it is running under.
 */

#include "attack/campaign.hh"
#include "attack/points.hh"
#include "os/env.hh"
#include "os/syscalls.hh"
#include "system/system.hh"
#include "vmm/hooks.hh"
#include "vmm/vmm.hh"
#include "workloads/workloads.hh"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <stdexcept>

namespace osh
{
namespace
{

using attack::AttackPoint;
using attack::runCell;
using attack::Verdict;
using os::Env;
using system::System;
using system::SystemConfig;

SystemConfig
hardenedConfig(std::uint64_t seed, std::size_t vcpus = 1,
               std::size_t async_depth = 0)
{
    return SystemConfig::Builder{}
        .seed(seed)
        .guestFrames(512)
        .cloaking(true)
        .vcpus(vcpus)
        .asyncEvictDepth(async_depth)
        .timingHardening(true)
        .build();
}

// ---------------------------------------------------------------------------
// The virtualized clock
// ---------------------------------------------------------------------------

TEST(VirtualClock, UnhardenedClockReplaysRawCyclesBitIdentically)
{
    // Hardening off is the default: readTsc must be the raw global
    // cycle counter, exactly — this is what lets every committed bench
    // baseline and expectation table replay unchanged.
    System sys(SystemConfig::Builder{}.cloaking(true).seed(7).build());
    workloads::registerAll(sys);
    EXPECT_EQ(sys.vmm().readTsc(1), sys.cycles());
    auto r = sys.runProgram("wl.matmul", {"8"});
    ASSERT_EQ(r.status, 0);
    EXPECT_EQ(sys.vmm().readTsc(1), sys.cycles());
    EXPECT_EQ(sys.vmm().readTsc(42), sys.cycles());
    // The legacy stat set is untouched on the exact path.
    EXPECT_EQ(sys.vmm().stats().value("tsc_virtual_reads"), 0u);
}

TEST(VirtualClock, FuzzedSequenceIsSeededAndMonotonic)
{
    System sys(hardenedConfig(11));
    std::vector<Cycles> seq;
    for (int i = 0; i < 64; ++i)
        seq.push_back(sys.vmm().readTsc(3));
    for (std::size_t i = 1; i < seq.size(); ++i)
        EXPECT_LT(seq[i - 1], seq[i]) << "virtual time went backwards";
    // Spoofing actually happened: the first read is displaced from the
    // raw counter (offset and fuzz are both drawn from [0, 1e6] and the
    // draw being exactly 0 twice for this seed would be a miracle).
    EXPECT_NE(seq[0], 0u);
    EXPECT_GT(sys.vmm().stats().value("tsc_virtual_reads"), 0u);
}

TEST(VirtualClock, SameSeedSameSequenceAcrossRunsAndTopology)
{
    // The spoofed sequence depends only on (system seed, ASID, read
    // index) — not on wall clock, vCPU count or async depth — so runs
    // replay bit-identically across process restarts and CI's
    // --vcpus=4 / --async-depth=4 re-runs.
    auto sample = [](std::size_t vcpus, std::size_t depth) {
        System sys(hardenedConfig(23, vcpus, depth));
        std::vector<Cycles> seq;
        for (int i = 0; i < 32; ++i)
            seq.push_back(sys.vmm().readTsc(5));
        return seq;
    };
    auto base = sample(1, 0);
    EXPECT_EQ(base, sample(1, 0)) << "not reproducible run to run";
    EXPECT_EQ(base, sample(4, 0)) << "vCPU count changed the sequence";
    EXPECT_EQ(base, sample(1, 4)) << "async depth changed the sequence";
}

TEST(VirtualClock, DistinctAsidsGetDistinctViews)
{
    System sys(hardenedConfig(31));
    // Different address spaces draw different offsets and fuzz
    // streams: a cross-context clock-correlation attack sees skew.
    EXPECT_NE(sys.vmm().readTsc(1), sys.vmm().readTsc(2));
    // A different system seed re-keys every stream.
    System sys2(hardenedConfig(32));
    EXPECT_NE(sys.vmm().readTsc(9), sys2.vmm().readTsc(9));
}

// ---------------------------------------------------------------------------
// The posture is one switch
// ---------------------------------------------------------------------------

TEST(TimingPosture, RequiresCloaking)
{
    EXPECT_THROW(SystemConfig::Builder{}
                     .cloaking(false)
                     .timingHardening(true)
                     .build(),
                 std::invalid_argument);
}

TEST(TimingPosture, TurnsOnTheClockAndTheConstantCostsTogether)
{
    // The paging victim thrashes 96 frames, so it hits the metadata
    // cache often: hardened, every hit is charged at the miss price.
    auto run = [](bool hardened) {
        auto sys = std::make_unique<System>(SystemConfig::Builder{}
                                                .seed(7)
                                                .guestFrames(96)
                                                .cloaking(true)
                                                .timingHardening(hardened)
                                                .build());
        workloads::registerAll(*sys);
        auto r = sys->runProgram("wl.victim.paging");
        EXPECT_EQ(r.status, 0) << r.killReason;
        EXPECT_GT(sys->machine().cost().stats().value("metadata_hit"), 0u);
        return sys;
    };
    auto plain = run(false);
    auto hardened = run(true);
    EXPECT_EQ(plain->vmm().readTsc(1), plain->cycles());
    EXPECT_NE(hardened->vmm().readTsc(1), hardened->cycles());
    EXPECT_GT(hardened->cycles(), plain->cycles());
}

// ---------------------------------------------------------------------------
// Sys::Sleep clamp (satellite regression)
// ---------------------------------------------------------------------------

TEST(SleepClamp, RejectsUnvalidatedGuestCycleCounts)
{
    System sys(SystemConfig::Builder{}.cloaking(true).seed(3).build());
    sys.addProgram("sleeper", os::Program{[](Env& env) {
        // Hostile argument: one cycle past the clamp must bounce with
        // -EINVAL and charge nothing.
        Cycles before = env.clock();
        if (env.syscall(os::Sys::Sleep, {os::maxSleepCycles + 1}) !=
            -static_cast<std::int64_t>(os::errInval))
            return 1;
        Cycles mid = env.clock();
        // The refused sleep costs only the trap round-trips, far less
        // than the 2^32 cycles it asked for.
        if (mid - before > os::maxSleepCycles / 2)
            return 2;
        // A sane sleep still works and actually advances time.
        if (env.syscall(os::Sys::Sleep, {10'000}) != 0)
            return 3;
        if (env.clock() - mid < 10'000)
            return 4;
        return 0;
    }, true, 16});
    auto r = sys.runProgram("sleeper");
    EXPECT_EQ(r.status, 0) << r.killReason;
}

// ---------------------------------------------------------------------------
// CloakIntrospect hypercall
// ---------------------------------------------------------------------------

TEST(Introspect, ReportsHardeningPosture)
{
    System sys(hardenedConfig(5, 1, 4));
    sys.addProgram("introspect", os::Program{[](Env& env) {
        auto query = [&env](std::uint64_t sel) {
            std::uint64_t args[1] = {sel};
            return env.vcpu().hypercall(
                vmm::Hypercall::CloakIntrospect, args);
        };
        if (query(vmm::introspectTimingHardening) != 1)
            return 1;
        if (query(vmm::introspectAsyncEvictDepth) != 4)
            return 4;
        if (query(vmm::introspectVictimCacheCapacity) < 0)
            return 5;
        if (query(99) != -1) // unknown selector
            return 6;
        return 0;
    }, true, 16});
    auto r = sys.runProgram("introspect");
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(Introspect, LegacySystemReportsNoHardening)
{
    System sys(SystemConfig::Builder{}.cloaking(true).seed(5).build());
    sys.addProgram("introspect", os::Program{[](Env& env) {
        auto query = [&env](std::uint64_t sel) {
            std::uint64_t args[1] = {sel};
            return env.vcpu().hypercall(
                vmm::Hypercall::CloakIntrospect, args);
        };
        return query(vmm::introspectTimingHardening) == 0 ? 0 : 1;
    }, true, 16});
    auto r = sys.runProgram("introspect");
    EXPECT_EQ(r.status, 0) << r.killReason;
}

// ---------------------------------------------------------------------------
// The timing campaign: LEAK unhardened, clean hardened
// ---------------------------------------------------------------------------

TEST(TimingSecret, IsBalanced)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 17ull}) {
        auto bits = workloads::timingSecretBits(seed);
        ASSERT_EQ(bits.size(), 32u);
        EXPECT_EQ(std::accumulate(bits.begin(), bits.end(), 0), 16)
            << "secret must be balanced so chance recovery is 50%";
    }
}

TEST(TimingCampaign, UnhardenedOraclesLeakTheSecret)
{
    // Every timing-oracle family beats the 24/32 significance bar on
    // the unhardened system. This is the vulnerability demonstration:
    // the deterministic cost model is a clean side channel.
    for (AttackPoint p :
         {AttackPoint::TimingVictimProbe, AttackPoint::TimingCleanProbe,
          AttackPoint::TimingAsyncDrain,
          AttackPoint::TimingMetadataProbe}) {
        auto cell = runCell(1, p, "wl.victim.timing", 1, 0,
                            /*timing_hardening=*/false);
        EXPECT_EQ(cell.verdict, Verdict::Leak)
            << attackPointName(p) << ": " << cell.detail;
    }
}

TEST(TimingCampaign, HardenedOraclesRecoverNothing)
{
    // Same cells, hardening on (the campaign default): the virtual
    // clock drowns the deltas and the constant-cost paths remove them,
    // so the oracle drops to chance and the cells classify Harmless.
    for (AttackPoint p :
         {AttackPoint::TimingVictimProbe, AttackPoint::TimingCleanProbe,
          AttackPoint::TimingAsyncDrain,
          AttackPoint::TimingMetadataProbe}) {
        auto cell = runCell(1, p, "wl.victim.timing", 1, 0,
                            /*timing_hardening=*/true);
        EXPECT_EQ(cell.verdict, Verdict::Harmless)
            << attackPointName(p) << ": " << cell.detail;
        EXPECT_GT(cell.firings, 0u)
            << "hardening must not silence the probe, only blind it";
    }
}

TEST(TimingCampaign, VerdictsAreTopologyInvariant)
{
    // CI replays the expectation table at --vcpus=4 and
    // --async-depth=4; the unhardened LEAK must be just as stable.
    for (auto [vcpus, depth] :
         {std::pair<std::size_t, std::size_t>{4, 0}, {1, 4}}) {
        auto cell =
            runCell(2, AttackPoint::TimingVictimProbe,
                    "wl.victim.timing", vcpus, depth, false);
        EXPECT_EQ(cell.verdict, Verdict::Leak) << cell.detail;
    }
}

TEST(TimingCampaign, BaselineTimingVictimRunsClean)
{
    auto cell = runCell(1, AttackPoint::Baseline, "wl.victim.timing");
    EXPECT_EQ(cell.verdict, Verdict::Harmless) << cell.detail;
    EXPECT_EQ(cell.firings, 0u);
}

TEST(TimingCampaign, ProbesStayQuietOnOtherVictims)
{
    // The probe needs the timing victim's 20-page arena shape; against
    // a different victim it must not fire at all (and must classify
    // Harmless), keeping the default full matrix clean.
    auto cell = runCell(1, AttackPoint::TimingVictimProbe,
                        "wl.victim.compute", 1, 0, false);
    EXPECT_EQ(cell.verdict, Verdict::Harmless) << cell.detail;
    EXPECT_EQ(cell.firings, 0u);
}

} // namespace
} // namespace osh
