/**
 * @file
 * Migration costs: checkpoint/restore and live pre-copy of cloaked
 * victims.
 *
 * For each migration-capable victim (compute, paging) this bench
 * measures, in deterministic simulated cycles:
 *
 *   - cold migration: the victim is frozen once, a full checkpoint
 *     image is cut, and a fresh machine restores it — downtime is the
 *     whole capture + restore;
 *   - live migration: pre-copy rounds stream dirty pages while the
 *     victim runs, then a bounded stop-and-copy — downtime is only the
 *     final capture + restore, bought with extra bytes on the wire.
 *
 * Every migrated run is checked against an unmigrated reference run of
 * the same seed (exit status and result checksum must match), so the
 * numbers only ever describe *successful* migrations. Writes
 * BENCH_migrate.json; bench/compare.py gates the *_cycles metrics
 * (downtime and end-to-end totals) against the committed baseline.
 */

#include "bench_common.hh"
#include "migrate/checkpoint.hh"
#include "migrate/live.hh"

#include <cstdio>
#include <string>

namespace
{

using namespace osh;

constexpr std::uint64_t benchSeed = 42;
constexpr std::uint64_t freezeEntries = 12;

system::SystemConfig
victimConfig(const std::string& workload)
{
    // Mirror the attack campaign's sizing: the paging victim must
    // thrash, so it gets fewer frames than its arena.
    bool paging = workload == "wl.victim.paging";
    return system::SystemConfig::Builder{}
        .seed(benchSeed)
        .guestFrames(paging ? 96 : 512)
        .cloaking(true)
        .build();
}

struct RunRef
{
    int status = 0;
    std::string checksum;
    Cycles cycles = 0;
};

RunRef
referenceRun(const std::string& workload)
{
    system::System sys(victimConfig(workload));
    workloads::registerAll(sys);
    system::ExitResult r = sys.runProgram(workload);
    if (r.status != 0)
        osh_fatal("bench reference run failed: %s status=%d",
                  workload.c_str(), r.status);
    return {r.status, workloads::resultOf(sys, workload), sys.cycles()};
}

void
checkMigrated(system::System& dst, Pid pid, const std::string& workload,
              const RunRef& ref)
{
    dst.run();
    const system::ExitResult* r = dst.resultOf(pid);
    if (r == nullptr || r->status != ref.status ||
        workloads::resultOf(dst, workload) != ref.checksum)
        osh_fatal("bench migration diverged from reference: %s",
                  workload.c_str());
}

void
benchCold(const std::string& workload, const RunRef& ref,
          bench::BenchReport& report, const std::string& key)
{
    system::System src(victimConfig(workload));
    workloads::registerAll(src);
    system::System dst(victimConfig(workload));
    workloads::registerAll(dst);

    Pid pid = src.launch(workload);
    src.kernel().requestFreeze(pid, freezeEntries);
    src.run();
    if (!src.kernel().isFrozen(pid))
        osh_fatal("bench victim finished before the freeze: %s",
                  workload.c_str());

    migrate::CheckpointOptions copts;
    copts.nonce = benchSeed ^ 0x6d19;
    Cycles ckpt_start = src.cycles();
    auto ckpt = migrate::checkpoint(src, pid, copts);
    if (!ckpt.ok())
        osh_fatal("bench checkpoint refused: %s",
                  migrate::migrateErrorName(ckpt.error()));
    Cycles ckpt_cycles = src.cycles() - ckpt_start;

    Cycles restore_start = dst.cycles();
    auto restored = migrate::restore(dst, (*ckpt).image, (*ckpt).ticket);
    if (!restored.ok())
        osh_fatal("bench restore refused: %s",
                  migrate::migrateErrorName(restored.error()));
    Cycles restore_cycles = dst.cycles() - restore_start;

    src.killFrozen(pid, "migrated away");
    checkMigrated(dst, (*restored).pid, workload, ref);

    std::printf("  %-18s cold  image=%8zu B  pages=%4llu  "
                "downtime=%9llu cycles  total=%9llu cycles\n",
                workload.c_str(), (*ckpt).image.size(),
                static_cast<unsigned long long>((*ckpt).pagesCaptured),
                static_cast<unsigned long long>(ckpt_cycles +
                                                restore_cycles),
                static_cast<unsigned long long>(dst.cycles()));

    report.set(key + ".image_bytes", (*ckpt).image.size());
    report.set(key + ".pages", (*ckpt).pagesCaptured);
    report.set(key + ".downtime_cycles", ckpt_cycles + restore_cycles);
    report.set(key + ".target_total_cycles", dst.cycles());
}

void
benchLive(const std::string& workload, const RunRef& ref,
          bench::BenchReport& report, const std::string& key)
{
    system::System src(victimConfig(workload));
    workloads::registerAll(src);
    system::System dst(victimConfig(workload));
    workloads::registerAll(dst);

    Pid pid = src.launch(workload);
    migrate::LiveOptions lopts;
    lopts.nonce = benchSeed ^ 0x11fe;
    lopts.entriesPerRound = freezeEntries;
    auto live = migrate::migrateLive(src, pid, dst, lopts);
    if (!live.ok())
        osh_fatal("bench live migration failed: %s",
                  migrate::migrateErrorName(live.error()));
    checkMigrated(dst, (*live).targetPid, workload, ref);

    std::printf("  %-18s live  rounds=%llu  precopy=%4llu  "
                "stopcopy=%4llu  bytes=%8llu  downtime=%9llu cycles\n",
                workload.c_str(),
                static_cast<unsigned long long>((*live).rounds),
                static_cast<unsigned long long>((*live).precopyPages),
                static_cast<unsigned long long>((*live).stopCopyPages),
                static_cast<unsigned long long>((*live).bytesStreamed),
                static_cast<unsigned long long>((*live).downtimeCycles));

    report.set(key + ".rounds", (*live).rounds);
    report.set(key + ".precopy_pages", (*live).precopyPages);
    report.set(key + ".stopcopy_pages", (*live).stopCopyPages);
    report.set(key + ".bytes_streamed", (*live).bytesStreamed);
    report.set(key + ".downtime_cycles", (*live).downtimeCycles);
    report.set(key + ".target_total_cycles", dst.cycles());
}

} // namespace

int
main()
{
    bench::header("Migration: checkpoint/restore and live pre-copy "
                  "(simulated cycles)");

    bench::BenchReport report("migrate");
    std::uint64_t host_start = bench::hostNowNs();

    for (const char* name : {"wl.victim.compute", "wl.victim.paging"}) {
        std::string workload = name;
        RunRef ref = referenceRun(workload);
        std::string base = workload == "wl.victim.paging" ? "paging"
                                                          : "compute";
        std::printf("\n%s (unmigrated reference: %llu cycles)\n",
                    workload.c_str(),
                    static_cast<unsigned long long>(ref.cycles));
        report.set(base + ".reference_total_cycles", ref.cycles);
        benchCold(workload, ref, report, "cold." + base);
        benchLive(workload, ref, report, "live." + base);
    }

    report.setHost("bench_ns", bench::hostNowNs() - host_start);
    report.write();
    return 0;
}
