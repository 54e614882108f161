/**
 * @file
 * SMP invariance tests.
 *
 * The multi-vCPU simulation is only trustworthy if parallel structure
 * never changes what the guest computes:
 *
 *   - vCPU-count invariance: dispatch order comes from the single
 *     round-robin ready queue and preemption is op-count based, so
 *     guest-visible results (statuses, checksums) are identical at
 *     1, 2 or 8 vCPUs — only cycle totals may differ, because each
 *     core warms a private TLB;
 *   - fork/exec/exit workloads must give the same status and checksum
 *     when parent and children run on different vCPUs;
 *   - attack-campaign verdicts must not move with the vCPU count (the
 *     216-cell expectation table is pinned single-core);
 *   - one scheduler and VMM path runs at every core count, so sched
 *     and vmm report the same counter names at 1 and 4 vCPUs.
 */

#include "attack/campaign.hh"
#include "system/system.hh"
#include "workloads/workloads.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace osh::system
{
namespace
{

constexpr std::uint64_t smpSeed = 7;
constexpr std::uint64_t tenantPages = 2;

struct RunOutcome
{
    std::vector<int> statuses;
    Cycles cycles = 0;
};

/**
 * Run @p n cloaked tenants concurrently (short preemption tick, so
 * they genuinely interleave) and collect their exit statuses in launch
 * order plus total simulated cycles.
 */
RunOutcome
runTenants(std::size_t vcpus, std::uint64_t n)
{
    auto cfg = SystemConfig::Builder{}
                   .seed(smpSeed)
                   .guestFrames(1024)
                   .cloaking(true)
                   .vcpus(vcpus)
                   .preemptOpsPerTick(300)
                   .build();
    System sys(cfg);
    workloads::registerAll(sys);
    std::vector<Pid> pids;
    for (std::uint64_t i = 0; i < n; ++i) {
        pids.push_back(sys.launch(
            "wl.tenant",
            {std::to_string(i), std::to_string(tenantPages)}));
    }
    sys.run();
    RunOutcome out;
    for (Pid pid : pids) {
        const ExitResult* r = sys.resultOf(pid);
        EXPECT_NE(r, nullptr);
        EXPECT_FALSE(r->killed) << r->killReason;
        out.statuses.push_back(r != nullptr ? r->status : -999);
    }
    out.cycles = sys.cycles();
    return out;
}

TEST(Smp, TenantsComputeCorrectlyWhileInterleaved)
{
    // Concurrent cloaked faults on distinct ASIDs across 4 vCPUs:
    // every tenant must still match the host-side mirror.
    RunOutcome out = runTenants(4, 12);
    for (std::uint64_t i = 0; i < out.statuses.size(); ++i) {
        EXPECT_EQ(out.statuses[i],
                  workloads::tenantStatus(smpSeed, i, tenantPages))
            << "tenant " << i;
    }
}

TEST(Smp, GuestResultsInvariantAcrossVcpuCounts)
{
    RunOutcome one = runTenants(1, 12);
    RunOutcome two = runTenants(2, 12);
    RunOutcome eight = runTenants(8, 12);
    EXPECT_EQ(one.statuses, two.statuses);
    EXPECT_EQ(one.statuses, eight.statuses);
}

/** Run one workload to completion, returning status + checksum. */
std::pair<int, std::string>
runWorkload(const std::string& name, std::size_t vcpus)
{
    auto cfg = SystemConfig::Builder{}
                   .seed(smpSeed)
                   .guestFrames(1024)
                   .cloaking(true)
                   .vcpus(vcpus)
                   .build();
    System sys(cfg);
    workloads::registerAll(sys);
    ExitResult r = sys.runProgram(name);
    return {r.status, workloads::resultOf(sys, name)};
}

TEST(Smp, ForkExecExitAcrossVcpus)
{
    // wl.build forks/spawns a pipe tree; wl.victim.fileio execs across
    // a protected file. At 4 vCPUs parent and children run on
    // different cores; status and checksum must match the single-core
    // run (cycles may differ: each core warms its own TLB).
    for (const char* wl : {"wl.build", "wl.victim.fileio"}) {
        auto [st1, sum1] = runWorkload(wl, 1);
        auto [st4, sum4] = runWorkload(wl, 4);
        EXPECT_EQ(st1, st4) << wl;
        EXPECT_EQ(sum1, sum4) << wl;
        EXPECT_EQ(st1, 0) << wl;
    }
}

TEST(Smp, CampaignVerdictsInvariantAcrossVcpuCounts)
{
    // One smoke cell per attack family (swap tamper, seal tamper,
    // snoop): verdict, detail and status must not move with the vCPU
    // count — the committed 216-cell expectation table stays valid for
    // multi-core campaign runs.
    const std::vector<attack::AttackPoint> points = {
        attack::AttackPoint::Baseline,
        attack::AttackPoint::SwapTamperByte,
        attack::AttackPoint::SyscallSnoop,
    };
    for (attack::AttackPoint p : points) {
        attack::CampaignCell base =
            attack::runCell(1, p, "wl.victim.compute", 1);
        attack::CampaignCell smp =
            attack::runCell(1, p, "wl.victim.compute", 4);
        EXPECT_EQ(base.verdict, smp.verdict)
            << attack::attackPointName(p);
        EXPECT_EQ(base.detail, smp.detail) << attack::attackPointName(p);
        EXPECT_EQ(base.status, smp.status) << attack::attackPointName(p);
        EXPECT_EQ(base.killed, smp.killed) << attack::attackPointName(p);
    }
}

/**
 * Counter names of @p group, leaving out the ones whose existence
 * depends on the core count: per-slot "switches_cpuN", and
 * "cpu_migrations", created on the first migration (one slot never
 * migrates).
 */
std::set<std::string>
slotFreeCounterNames(const StatGroup& group)
{
    std::set<std::string> names;
    for (const auto& [n, v] : group.snapshot()) {
        if (n.rfind("switches_cpu", 0) != 0 && n != "cpu_migrations")
            names.insert(n);
    }
    return names;
}

TEST(Smp, SchedAndVmmReportTheSameCountersAtAnyCoreCount)
{
    auto run = [](std::size_t vcpus) {
        auto cfg = SystemConfig::Builder{}
                       .seed(smpSeed)
                       .guestFrames(1024)
                       .cloaking(true)
                       .vcpus(vcpus)
                       .preemptOpsPerTick(300)
                       .build();
        auto sys = std::make_unique<System>(cfg);
        workloads::registerAll(*sys);
        sys->launch("wl.tenant", {"0", "2"});
        sys->launch("wl.tenant", {"1", "2"});
        sys->run();
        return sys;
    };
    auto one = run(1);
    auto four = run(4);
    EXPECT_EQ(slotFreeCounterNames(one->sched().stats()),
              slotFreeCounterNames(four->sched().stats()));
    EXPECT_EQ(slotFreeCounterNames(one->vmm().stats()),
              slotFreeCounterNames(four->vmm().stats()));
    EXPECT_GT(one->sched().stats().value("dispatches"), 0u);
    EXPECT_GT(one->vmm().stats().value("switches_cpu0"), 0u);
    // One core: every dispatch lands on slot 0, so nothing migrates.
    EXPECT_EQ(one->sched().stats().value("cpu_migrations"), 0u);
    EXPECT_GT(four->sched().stats().value("cpu_migrations"), 0u);
}

TEST(Smp, BuilderRefusesZeroVcpus)
{
    EXPECT_THROW(SystemConfig::Builder{}.vcpus(0).build(),
                 std::invalid_argument);
    EXPECT_EQ(SystemConfig::Builder{}.build().vcpus, 1u);
}

TEST(Smp, BuilderValidatesSmpKnobs)
{
    EXPECT_THROW(SystemConfig::Builder{}.vcpus(65).build(),
                 std::invalid_argument);
    // The legal edge builds.
    EXPECT_NO_THROW(SystemConfig::Builder{}.vcpus(64).build());
}

} // namespace
} // namespace osh::system
