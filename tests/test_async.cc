/**
 * @file
 * Async re-encryption pipeline tests: enqueue semantics (double
 * buffering, scrubbed hand-back, FIFO retirement, stall accounting),
 * guest-visible invariance across queue depths, the ≥5× eviction
 * critical-path win, checkpoint interaction (drain-first), the
 * leak-oracle staging scan, builder validation, and the scheduler's
 * release of finished threads and their fiber stacks.
 */

#include "attack/campaign.hh"
#include "attack/director.hh"
#include "attack/points.hh"
#include "base/bytes.hh"
#include "cloak/engine.hh"
#include "migrate/checkpoint.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"
#include "system/system.hh"
#include "vmm/vcpu.hh"
#include "vmm/vmm.hh"
#include "workloads/workloads.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

namespace osh
{
namespace
{

using attack::AttackPoint;
using attack::CampaignCell;
using system::System;
using system::SystemConfig;

// --- engine-level rig ------------------------------------------------

/** Guest OS stub: fixed page tables, no fault handling. */
class FakeOs : public vmm::GuestOsHooks
{
  public:
    void
    map(Asid asid, GuestVA va, Gpa gpa)
    {
        ptes_[{asid, pageBase(va)}] =
            vmm::GuestPte{pageBase(gpa), true, true, true, false};
    }

    vmm::GuestPte
    translateGuest(Asid asid, GuestVA va) override
    {
        auto it = ptes_.find({asid, pageBase(va)});
        return it == ptes_.end() ? vmm::GuestPte{} : it->second;
    }

    void
    handleGuestPageFault(vmm::Vcpu&, GuestVA va, vmm::AccessType) override
    {
        throw vmm::ProcessKilled{
            0, formatString("unexpected guest fault at 0x%llx",
                            static_cast<unsigned long long>(va))};
    }

  private:
    std::map<std::pair<Asid, GuestVA>, vmm::GuestPte> ptes_;
};

/**
 * Machine + VMM + engine + fake OS + one domain with a small region.
 * A plain struct (not a fixture) so one test can instantiate several
 * rigs — e.g. a synchronous and an asynchronous engine fed identical
 * accesses.
 */
struct Rig
{
    explicit Rig(std::size_t async_depth = 0)
        : machine(sim::MachineConfig{256, 7, {}}), vmm(machine, 256),
          engine(vmm, 99, 64)
    {
        vmm.setGuestOs(&os);
        engine.setAsyncEvictDepth(async_depth);
        domain = engine.createDomain(appAsid, 5,
                                     cloak::programIdentity("victim"));
        for (std::uint64_t i = 0; i < regionPages; ++i) {
            os.map(appAsid, appVa + i * pageSize, gpa + i * pageSize);
            os.map(kernelAsid, kernelVaOf(gpa + i * pageSize),
                   gpa + i * pageSize);
        }
        resource = engine.registerRegion(domain, appVa, regionPages).value();
    }

    static GuestVA kernelVaOf(Gpa g) { return 0x800000000000ull + g; }

    vmm::Vcpu
    appCpu()
    {
        return vmm::Vcpu(vmm, vmm::Context{appAsid, domain, false});
    }

    vmm::Vcpu
    kernelCpu()
    {
        return vmm::Vcpu(vmm, vmm::Context{kernelAsid, systemDomain, true});
    }

    std::vector<std::uint8_t>
    rawFrame(Gpa g)
    {
        auto span = machine.memory().framePlain(vmm.pmap().translate(g));
        return {span.begin(), span.end()};
    }

    Cycles cycles() { return machine.cost().cycles(); }

    static constexpr Asid appAsid = 5;
    static constexpr Asid kernelAsid = 0;
    static constexpr GuestVA appVa = 0x10000;
    static constexpr Gpa gpa = 0x3000;
    static constexpr std::uint64_t regionPages = 4;

    sim::Machine machine;
    vmm::Vmm vmm;
    cloak::CloakEngine engine;
    FakeOs os;
    DomainId domain = 0;
    ResourceId resource = 0;
};

/** Records each retired eviction: its slot, and the last sealed page. */
struct RecordingSink : vmm::EvictionSink
{
    void
    commitEviction(std::uint64_t slot, std::uint64_t,
                   std::span<const std::uint8_t> sealed) override
    {
        slots.push_back(slot);
        last.assign(sealed.begin(), sealed.end());
    }

    std::vector<std::uint64_t> slots;
    std::vector<std::uint8_t> last;
};

bool
allZero(std::span<const std::uint8_t> bytes)
{
    for (std::uint8_t b : bytes)
        if (b != 0)
            return false;
    return true;
}

TEST(AsyncEvict, DepthZeroRefusesEnqueue)
{
    Rig rig(0);
    auto app = rig.appCpu();
    app.store64(Rig::appVa, 0x5ec7e7);
    RecordingSink sink;
    EXPECT_FALSE(rig.engine.evictPageAsync(Rig::gpa, sink, 0, 0));
    EXPECT_EQ(rig.engine.stats().value("async_evictions"), 0u);
}

TEST(AsyncEvict, EnqueueScrubsFrameAndStagesSealedImage)
{
    Rig rig(4);
    auto app = rig.appCpu();
    app.store64(Rig::appVa, 0xfeedbeef);

    RecordingSink sink;
    const std::vector<std::uint8_t>& committed = sink.last;
    ASSERT_TRUE(rig.engine.evictPageAsync(Rig::gpa, sink, 3, 0x77));

    // Double buffering: the frame goes back scrubbed, the ciphertext
    // waits in staging, the commit has not run yet.
    EXPECT_TRUE(allZero(rig.rawFrame(Rig::gpa)));
    ASSERT_EQ(rig.engine.asyncPendingEvictions(), 1u);
    EXPECT_TRUE(committed.empty());
    const cloak::AsyncSealEntry& entry =
        rig.engine.asyncPendingEntries().front();
    EXPECT_FALSE(allZero(entry.sealed));
    EXPECT_EQ(entry.slot, 3u);
    EXPECT_EQ(entry.replayKey, 0x77u);

    // Drain: the guest stalls until the background lane (crypto + the
    // swap-slot disk write) finishes, then the commit sees the sealed
    // bytes and the staging copy is scrubbed.
    Cycles before = rig.cycles();
    rig.vmm.drainAsyncEvictions();
    EXPECT_GE(rig.cycles() - before,
              rig.machine.cost().params().diskAccess);
    EXPECT_EQ(rig.engine.asyncPendingEvictions(), 0u);
    ASSERT_EQ(committed.size(), pageSize);
    EXPECT_FALSE(allZero(committed));
    EXPECT_EQ(rig.engine.stats().value("async_evict_commits"), 1u);
    EXPECT_EQ(rig.engine.stats().value("async_evict_stalls"), 1u);
}

TEST(AsyncEvict, SealedBytesIdenticalToSynchronousPath)
{
    // Same seed, same access sequence: the async seal must draw the
    // same IV and produce byte-identical ciphertext + metadata as the
    // synchronous eviction would.
    Rig sync(0);
    {
        auto app = sync.appCpu();
        auto kernel = sync.kernelCpu();
        app.store64(Rig::appVa, 0x0badf00d);
        kernel.load64(Rig::kernelVaOf(Rig::gpa)); // sync seal in place
    }

    Rig async(4);
    RecordingSink sink;
    {
        auto app = async.appCpu();
        app.store64(Rig::appVa, 0x0badf00d);
        ASSERT_TRUE(async.engine.evictPageAsync(Rig::gpa, sink, 0, 0));
        async.vmm.drainAsyncEvictions();
    }
    EXPECT_EQ(sink.last, sync.rawFrame(Rig::gpa));
}

TEST(AsyncEvict, QueueFullRetiresOldestInFifoOrder)
{
    Rig rig(2);
    auto app = rig.appCpu();
    RecordingSink sink;
    const std::vector<std::uint64_t>& order = sink.slots;
    for (std::uint64_t i = 0; i < 3; ++i) {
        app.store64(Rig::appVa + i * pageSize, i + 1);
        ASSERT_TRUE(
            rig.engine.evictPageAsync(Rig::gpa + i * pageSize, sink, i, 0));
    }
    // Depth 2: the third enqueue had to retire the first entry.
    EXPECT_EQ(rig.engine.asyncPendingEvictions(), 2u);
    EXPECT_EQ(order, (std::vector<std::uint64_t>{0}));
    rig.vmm.drainAsyncEvictions();
    EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(AsyncEvict, EnqueueCriticalPathAtLeastFiveTimesCheaper)
{
    // Synchronous eviction critical path: the kernel touch pays the
    // full dirty-page seal inline.
    Rig sync(0);
    Cycles sync_cost = 0;
    {
        auto app = sync.appCpu();
        auto kernel = sync.kernelCpu();
        app.store64(Rig::appVa, 1);
        Cycles before = sync.cycles();
        kernel.load64(Rig::kernelVaOf(Rig::gpa));
        sync_cost = sync.cycles() - before;
    }

    // Async eviction critical path: snapshot + scrub + fixed cost.
    RecordingSink sink;
    Rig async(4);
    Cycles async_cost = 0;
    {
        auto app = async.appCpu();
        app.store64(Rig::appVa, 1);
        Cycles before = async.cycles();
        ASSERT_TRUE(async.engine.evictPageAsync(Rig::gpa, sink, 0, 0));
        async_cost = async.cycles() - before;
    }
    EXPECT_GE(sync_cost, 5 * async_cost)
        << "sync=" << sync_cost << " async=" << async_cost;
}

// --- system-level invariance -----------------------------------------

struct PagingObs
{
    int status = 0;
    std::string checksum;
    std::uint64_t swapIns = 0;
    std::uint64_t pageEncrypts = 0;
    std::uint64_t pageDecrypts = 0;
    std::uint64_t asyncEvictions = 0;
    Cycles cycles = 0;
};

PagingObs
runPaging(std::size_t depth)
{
    auto cfg = SystemConfig::Builder{}
                   .seed(7)
                   .guestFrames(240)
                   .cloaking(true)
                   .asyncEvictDepth(depth)
                   .build();
    System sys(cfg);
    workloads::registerAll(sys);
    auto r = sys.runProgram("wl.memstress", {"256", "3", "1"});
    PagingObs obs;
    obs.status = r.status;
    obs.checksum = workloads::resultOf(sys, "wl.memstress");
    obs.swapIns = sys.kernel().stats().value("swap_ins");
    obs.pageEncrypts = sys.cloak()->stats().value("page_encrypts");
    obs.pageDecrypts = sys.cloak()->stats().value("page_decrypts");
    obs.asyncEvictions = sys.cloak()->stats().value("async_evictions");
    obs.cycles = sys.cycles();
    return obs;
}

TEST(AsyncSystem, PagingWorkloadIsDepthInvariant)
{
    PagingObs d0 = runPaging(0);
    ASSERT_EQ(d0.status, 0);
    ASSERT_FALSE(d0.checksum.empty());
    EXPECT_EQ(d0.asyncEvictions, 0u);

    for (std::size_t depth : {4u, 64u}) {
        PagingObs dn = runPaging(depth);
        // Guest-visible results are byte-identical at any depth…
        EXPECT_EQ(dn.status, d0.status) << "depth " << depth;
        EXPECT_EQ(dn.checksum, d0.checksum) << "depth " << depth;
        EXPECT_EQ(dn.swapIns, d0.swapIns) << "depth " << depth;
        EXPECT_EQ(dn.pageEncrypts, d0.pageEncrypts) << "depth " << depth;
        EXPECT_EQ(dn.pageDecrypts, d0.pageDecrypts) << "depth " << depth;
        // …while the pipeline actually engaged and saved cycles.
        EXPECT_GT(dn.asyncEvictions, 0u) << "depth " << depth;
        EXPECT_LT(dn.cycles, d0.cycles) << "depth " << depth;
    }
}

TEST(AsyncSystem, RunIsDeterministicAtFixedDepth)
{
    PagingObs a = runPaging(4);
    PagingObs b = runPaging(4);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.asyncEvictions, b.asyncEvictions);
}

// --- checkpoint interaction ------------------------------------------

/** Launch + park the victim; asserts the freeze landed. */
Pid
launchFrozen(System& sys, const std::string& workload,
             std::uint64_t entries)
{
    Pid pid = sys.launch(workload);
    sys.kernel().requestFreeze(pid, entries);
    sys.run();
    EXPECT_TRUE(sys.kernel().isFrozen(pid));
    return pid;
}

TEST(AsyncCheckpoint, CheckpointDrainsPendingEvictionsFirst)
{
    auto cfg = SystemConfig::Builder{}
                   .seed(5)
                   .guestFrames(96)
                   .cloaking(true)
                   .asyncEvictDepth(8)
                   .build();
    // Declared before the System, whose kernel drains the queue on
    // destruction.
    RecordingSink sink;
    System sys(cfg);
    workloads::registerAll(sys);
    Pid pid = launchFrozen(sys, "wl.victim.paging", 6);

    // Plant a pending eviction by hand (the freeze path drains, so a
    // frozen victim has an empty queue): evict the first cloaked
    // plaintext frame. The test sink bypasses the kernel's swap
    // write, so this only pins drain *ordering*, not image replay.
    bool planted = false;
    for (Gpa g = 0; g < 96 * pageSize && !planted; g += pageSize)
        planted = sys.cloak()->evictPageAsync(g, sink, 0, 0);
    ASSERT_TRUE(planted);
    ASSERT_EQ(sys.cloak()->asyncPendingEvictions(), 1u);

    auto cp = migrate::checkpoint(sys, pid);
    ASSERT_TRUE(cp.ok());
    EXPECT_EQ(sink.slots.size(), 1u);
    EXPECT_EQ(sys.cloak()->asyncPendingEvictions(), 0u);
    sys.killFrozen(pid, "test done");
}

// --- leak oracle -----------------------------------------------------

TEST(AsyncOracle, FindsSentinelPlantedInStagingBuffer)
{
    auto cfg = SystemConfig::Builder{}
                   .seed(9)
                   .guestFrames(96)
                   .cloaking(true)
                   .asyncEvictDepth(8)
                   .build();
    RecordingSink sink; // Outlives the System, which drains on exit.
    System sys(cfg);
    workloads::registerAll(sys);
    attack::DirectorConfig dcfg;
    dcfg.point = AttackPoint::Baseline;
    dcfg.seed = cfg.effectiveAttackSeed();
    attack::AttackDirector director(sys, dcfg);

    Pid pid = launchFrozen(sys, "wl.victim.paging", 6);

    bool planted = false;
    for (Gpa g = 0; g < 96 * pageSize && !planted; g += pageSize)
        planted = sys.cloak()->evictPageAsync(g, sink, 0, 0);
    ASSERT_TRUE(planted);

    // A sentinel no workload uses: the correctly sealed staging buffer
    // holds ciphertext, so the scan is clean…
    const std::uint64_t sentinel = 0xfeedfacecafebeefull;
    EXPECT_TRUE(
        attack::findSentinelLeak(sys, director, sentinel).empty());

    // …until plaintext is planted into staging (modelling a seal bug);
    // then the oracle must name the staging surface. Staging is
    // read-only to tests, so cast the const away for the plant.
    auto& entry = const_cast<cloak::AsyncSealEntry&>(
        sys.cloak()->asyncPendingEntries().front());
    storeLe64(entry.sealed.data() + 128, sentinel);
    std::string leak = attack::findSentinelLeak(sys, director, sentinel);
    ASSERT_FALSE(leak.empty());
    EXPECT_NE(leak.find("staging"), std::string::npos) << leak;
    sys.killFrozen(pid, "test done");
}

// --- campaign verdict parity -----------------------------------------

TEST(AsyncCampaign, SwapAttackVerdictsDepthInvariant)
{
    for (AttackPoint p :
         {AttackPoint::Baseline, AttackPoint::SwapTamperByte,
          AttackPoint::SwapReplay, AttackPoint::SwapResurrect}) {
        CampaignCell d0 =
            attack::runCell(1, p, "wl.victim.paging", 1, 0);
        CampaignCell d4 =
            attack::runCell(1, p, "wl.victim.paging", 1, 4);
        EXPECT_EQ(d4.verdict, d0.verdict)
            << attack::attackPointName(p);
        EXPECT_EQ(d4.detail, d0.detail) << attack::attackPointName(p);
        EXPECT_EQ(d4.status, d0.status) << attack::attackPointName(p);
        EXPECT_EQ(d4.killed, d0.killed) << attack::attackPointName(p);
    }
}

// --- builder validation, thread release and fiber stacks -------------

TEST(AsyncConfig, BuilderValidatesDepth)
{
    EXPECT_THROW(SystemConfig::Builder{}
                     .cloaking(true)
                     .asyncEvictDepth(257)
                     .build(),
                 std::invalid_argument);
    EXPECT_THROW(SystemConfig::Builder{}
                     .cloaking(false)
                     .asyncEvictDepth(1)
                     .build(),
                 std::invalid_argument);
    auto cfg = SystemConfig::Builder{}
                   .cloaking(true)
                   .asyncEvictDepth(256)
                   .build();
    EXPECT_EQ(cfg.asyncEvictDepth, 256u);
}

TEST(SchedulerReap, SystemRunReleasesFinishedThreads)
{
    auto cfg = SystemConfig::Builder{}.seed(3).cloaking(true).build();
    System sys(cfg);
    workloads::registerAll(sys);

    // Drive the scheduler directly: finished guest threads keep their
    // records and stacks until someone reaps.
    sys.launch("wl.victim.compute");
    sys.sched().run();
    std::size_t joinable = sys.sched().joinableFinishedThreads();
    EXPECT_GT(joinable, 0u);
    EXPECT_EQ(sys.sched().threadRecords(), joinable);
    EXPECT_EQ(sys.sched().reapFinished(), joinable);
    EXPECT_EQ(sys.sched().joinableFinishedThreads(), 0u);
    EXPECT_EQ(sys.sched().threadRecords(), 0u);
    EXPECT_EQ(sys.sched().reapFinished(), 0u);

    // System::run() reaps on the way out: no finished record survives.
    sys.launch("wl.victim.compute");
    sys.run();
    EXPECT_EQ(sys.sched().joinableFinishedThreads(), 0u);
    EXPECT_EQ(sys.sched().threadRecords(), 0u);
}

/** The tenants benchmark shape: waves of 24 short cloaked processes
 *  on 4 vCPUs with a 500-op tick. */
constexpr std::uint64_t tenantSeed = 42;
constexpr std::uint64_t tenantWave = 24;

SystemConfig
tenantConfig()
{
    return SystemConfig::Builder{}
        .seed(tenantSeed)
        .cloaking(true)
        .vcpus(4)
        .preemptOpsPerTick(500)
        .build();
}

/** Run @p waves tenant waves on @p sys, checking every exit status and
 *  that no driver-launched process outlives its wave as a zombie. */
void
runTenantWaves(System& sys, std::uint64_t waves)
{
    for (std::uint64_t w = 0; w < waves; ++w) {
        std::vector<Pid> pids;
        for (std::uint64_t i = 0; i < tenantWave; ++i)
            pids.push_back(sys.launch("wl.tenant", {std::to_string(i)}));
        sys.run();
        for (std::uint64_t i = 0; i < tenantWave; ++i) {
            const system::ExitResult* r = sys.resultOf(pids[i]);
            ASSERT_NE(r, nullptr);
            EXPECT_EQ(r->status, workloads::tenantStatus(tenantSeed, i))
                << "wave " << w << " tenant " << i << ": "
                << r->killReason;
        }
        EXPECT_EQ(sys.sched().threadRecords(), 0u) << "wave " << w;
        EXPECT_TRUE(sys.kernel().pids().empty()) << "wave " << w;
    }
}

std::size_t
hostPageBytes()
{
    return static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

/** Resident pages of the @p bytes (a page multiple) that end with the
 *  page holding @p addr, or -1 with errno set when they are not all
 *  mapped. */
long
residentPagesBelow(std::uintptr_t addr, std::size_t bytes)
{
    const std::uintptr_t page = hostPageBytes();
    const std::uintptr_t end = (addr & ~(page - 1)) + page;
    std::vector<unsigned char> vec(bytes / page);
    if (mincore(reinterpret_cast<void*>(end - bytes), bytes,
                vec.data()) != 0)
        return -1;
    return std::count_if(vec.begin(), vec.end(),
                         [](unsigned char v) { return (v & 1) != 0; });
}

TEST(SchedulerReap, TenantWavesReuseStacks)
{
    // Released stacks are reused, so three waves never hold more
    // stacks than one wave has threads.
    System sys(tenantConfig());
    workloads::registerAll(sys);
    runTenantWaves(sys, 3);
    EXPECT_EQ(sys.sched().stats().value("threads_created"),
              3 * tenantWave);
    EXPECT_EQ(sys.kernel().stats().value("zombies_reaped"),
              3 * tenantWave);
    EXPECT_GT(sys.sched().heldStacks(), 0u);
    EXPECT_LE(sys.sched().heldStacks(), tenantWave);
    EXPECT_LE(sys.sched().mappedStacks(), sys.sched().heldStacks());
}

TEST(SchedulerStacks, NextSystemOnThreadMapsNoStacks)
{
    // A destroyed System leaves its stacks to the host thread: the next
    // System there launches its first wave without mapping one.
    {
        System first(tenantConfig());
        workloads::registerAll(first);
        runTenantWaves(first, 1);
    }
    System second(tenantConfig());
    workloads::registerAll(second);
    runTenantWaves(second, 1);
    EXPECT_EQ(second.sched().mappedStacks(), 0u);
    EXPECT_GT(second.sched().heldStacks(), 0u);
    EXPECT_LE(second.sched().heldStacks(), tenantWave);
}

TEST(SchedulerStacks, HostThreadExitUnmapsCachedStacks)
{
    // The same on a fresh host thread, whose exit unmaps every stack it
    // cached: a frame address a guest body saw is unmapped after join.
    std::uintptr_t frame = 0;
    std::size_t second_mapped = 0;
    std::size_t second_held = 0;
    std::thread host([&] {
        {
            System first(tenantConfig());
            workloads::registerAll(first);
            runTenantWaves(first, 1);
        }
        System second(tenantConfig());
        workloads::registerAll(second);
        second.addProgram("frame", os::Program{[&frame](os::Env&) {
            frame = reinterpret_cast<std::uintptr_t>(
                __builtin_frame_address(0));
            return 0;
        }, true, 16});
        runTenantWaves(second, 1);
        Pid pid = second.launch("frame");
        second.run();
        const system::ExitResult* r = second.resultOf(pid);
        EXPECT_TRUE(r != nullptr && r->status == 0);
        second_mapped = second.sched().mappedStacks();
        second_held = second.sched().heldStacks();
    });
    host.join();
    EXPECT_EQ(second_mapped, 0u);
    EXPECT_GT(second_held, 0u);
    ASSERT_NE(frame, 0u);
    errno = 0;
    EXPECT_EQ(residentPagesBelow(frame, hostPageBytes()), -1);
    EXPECT_EQ(errno, ENOMEM);
}

/** Burn at least @p bytes of host stack, one 64 KiB frame at a time. */
std::uint64_t
deepRecurse(std::size_t bytes)
{
    volatile std::uint8_t frame[64 * 1024];
    for (std::size_t i = 0; i < sizeof(frame); i += 4096)
        frame[i] = static_cast<std::uint8_t>(bytes >> 16);
    std::uint64_t below =
        bytes > sizeof(frame) ? deepRecurse(bytes - sizeof(frame)) : 0;
    return below + frame[0];
}

TEST(SchedulerFibers, DeepGuestStackExitsCleanly)
{
    // Guest bodies run on scheduler-owned stacks: a body that recurses
    // through well over 2 MiB of host stack, and yields at the bottom,
    // must neither hit the guard page nor disturb the thread it
    // switches to.
    auto cfg = SystemConfig::Builder{}.seed(5).cloaking(true).build();
    System sys(cfg);
    constexpr std::size_t depth = 3u << 20;
    std::uint64_t expected = 0;
    for (std::size_t b = depth; b > 0;
         b = b > 64 * 1024 ? b - 64 * 1024 : 0)
        expected += static_cast<std::uint8_t>(b >> 16);
    sys.addProgram("deep", os::Program{[expected](os::Env& env) {
        env.yield();
        return deepRecurse(depth) == expected ? 7 : 1;
    }, true, 16});
    Pid a = sys.launch("deep");
    Pid b = sys.launch("deep");
    sys.run();
    for (Pid pid : {a, b}) {
        const system::ExitResult* r = sys.resultOf(pid);
        ASSERT_NE(r, nullptr);
        EXPECT_FALSE(r->killed) << r->killReason;
        EXPECT_EQ(r->status, 7);
    }
    EXPECT_EQ(sys.sched().threadRecords(), 0u);
}

TEST(SchedulerStacks, CachedDeepStackKeepsOnlyItsTop)
{
    // A stack that a guest recursed through 3 MiB of goes to the host
    // thread's cache with all but its top 64 KiB released.
    constexpr std::size_t depth = 3u << 20;
    constexpr std::size_t span = 4u << 20;
    std::uintptr_t frame = 0;
    long resident_before = 0;
    {
        auto cfg = SystemConfig::Builder{}.seed(5).cloaking(true).build();
        System sys(cfg);
        sys.addProgram("deep", os::Program{[&frame](os::Env&) {
            frame = reinterpret_cast<std::uintptr_t>(
                __builtin_frame_address(0));
            return deepRecurse(depth) > 0 ? 7 : 1;
        }, true, 16});
        Pid pid = sys.launch("deep");
        sys.run();
        const system::ExitResult* r = sys.resultOf(pid);
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->status, 7) << r->killReason;
        ASSERT_NE(frame, 0u);
        resident_before = residentPagesBelow(frame, span);
    }
    const auto page = static_cast<long>(hostPageBytes());
    EXPECT_GT(resident_before * page, static_cast<long>(depth) / 2);
    long resident = residentPagesBelow(frame, span);
    ASSERT_GE(resident, 0) << "cached stack unmapped: " << strerror(errno);
    EXPECT_LE(resident * page, 64 * 1024);
}

} // namespace
} // namespace osh
