/**
 * @file
 * Migration driver: checkpoint/restore and live-migration smoke.
 *
 * Runs a cloaked victim to a freeze point on a source machine, moves
 * it to a freshly built target machine (cold checkpoint/restore or
 * live pre-copy), finishes it there, and compares the final exit
 * status and result checksum against an unmigrated reference run of
 * the same seed. CI runs this (plain and ASan) as the migration
 * round-trip smoke.
 *
 * Usage:
 *   migrate [--workload=wl.victim.compute] [--seed=42] [--mode=cold|live]
 *           [--entries=24] [--quiet]
 *
 * Exit codes:
 *   0  migrated run matches the reference run
 *   1  migration refused or results diverged
 *   3  bad arguments
 *   4  the victim finished before the freeze landed (tune --entries)
 */

#include "migrate/checkpoint.hh"
#include "migrate/live.hh"
#include "workloads/workloads.hh"

#include <iostream>
#include <string>

namespace
{

struct RunOutput
{
    int status = 0;
    bool killed = false;
    std::string checksum;
};

osh::system::SystemConfig
victimConfig(const std::string& workload, std::uint64_t seed)
{
    // Mirror the attack campaign's sizing: the paging victim must
    // thrash, so it gets fewer frames than its arena.
    bool paging = workload == "wl.victim.paging";
    return osh::system::SystemConfig::Builder{}
        .seed(seed)
        .guestFrames(paging ? 96 : 512)
        .cloaking(true)
        .build();
}

std::string
resultName(const std::string& workload)
{
    return workload; // victims write /results/<program name>
}

RunOutput
referenceRun(const std::string& workload, std::uint64_t seed)
{
    osh::system::System sys(victimConfig(workload, seed));
    osh::workloads::registerAll(sys);
    osh::system::ExitResult r = sys.runProgram(workload);
    return {r.status, r.killed,
            osh::workloads::resultOf(sys, resultName(workload))};
}

/** Park the victim at a trap boundary; false if it finished first. */
bool
freezeVictim(osh::system::System& sys, osh::Pid pid,
             std::uint64_t entries)
{
    sys.kernel().requestFreeze(pid, entries);
    sys.run();
    return sys.kernel().isFrozen(pid);
}

/** Failed migration: let the victim finish on the source so the
 *  scheduler winds down cleanly. */
void
drainSource(osh::system::System& sys, osh::Pid pid)
{
    if (sys.kernel().isFrozen(pid))
        sys.kernel().thaw(pid);
    sys.run();
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload = "wl.victim.compute";
    std::uint64_t seed = 42;
    std::uint64_t entries = 24;
    std::string mode = "cold";
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&arg](const std::string& prefix) {
            return arg.substr(prefix.size());
        };
        try {
            if (arg.rfind("--workload=", 0) == 0)
                workload = value("--workload=");
            else if (arg.rfind("--seed=", 0) == 0)
                seed = std::stoull(value("--seed="));
            else if (arg.rfind("--entries=", 0) == 0)
                entries = std::stoull(value("--entries="));
            else if (arg.rfind("--mode=", 0) == 0)
                mode = value("--mode=");
            else if (arg == "--quiet")
                quiet = true;
            else
                throw std::invalid_argument(arg);
        } catch (const std::exception&) {
            std::cerr << "migrate: bad argument: " << arg << "\n"
                      << "usage: migrate [--workload=NAME] [--seed=N] "
                         "[--mode=cold|live] [--entries=N] [--quiet]\n";
            return 3;
        }
    }
    if (mode != "cold" && mode != "live") {
        std::cerr << "migrate: bad mode '" << mode << "'\n";
        return 3;
    }

    RunOutput ref = referenceRun(workload, seed);

    osh::system::System src(victimConfig(workload, seed));
    osh::workloads::registerAll(src);
    osh::system::System dst(victimConfig(workload, seed));
    osh::workloads::registerAll(dst);

    osh::Pid target_pid = 0;
    if (mode == "cold") {
        osh::Pid pid = src.launch(workload);
        if (!freezeVictim(src, pid, entries)) {
            std::cerr << "migrate: victim finished before the freeze "
                         "landed; lower --entries\n";
            return 4;
        }
        osh::migrate::CheckpointOptions copts;
        copts.nonce = seed ^ 0x6d19;
        auto ckpt = osh::migrate::checkpoint(src, pid, copts);
        if (!ckpt.ok()) {
            std::cerr << "migrate: checkpoint refused: "
                      << osh::migrate::migrateErrorName(ckpt.error())
                      << "\n";
            drainSource(src, pid);
            return 1;
        }
        auto restored =
            osh::migrate::restore(dst, ckpt.value().image,
                                  ckpt.value().ticket);
        if (!restored.ok()) {
            std::cerr << "migrate: restore refused: "
                      << osh::migrate::migrateErrorName(restored.error())
                      << "\n";
            drainSource(src, pid);
            return 1;
        }
        target_pid = restored.value().pid;
        src.killFrozen(pid, "migrated away");
        if (!quiet) {
            std::cout << "checkpoint: " << ckpt.value().image.size()
                      << " bytes, " << ckpt.value().pagesCaptured
                      << " pages (" << ckpt.value().pagesSealed
                      << " sealed)\n";
        }
    } else {
        osh::Pid pid = src.launch(workload);
        osh::migrate::LiveOptions lopts;
        lopts.nonce = seed ^ 0x11fe;
        lopts.entriesPerRound = entries;
        auto live = osh::migrate::migrateLive(src, pid, dst, lopts);
        if (!live.ok()) {
            std::cerr << "migrate: live migration failed: "
                      << osh::migrate::migrateErrorName(live.error())
                      << "\n";
            drainSource(src, pid);
            return osh::migrate::MigrateError::UnsupportedState ==
                           live.error()
                       ? 4
                       : 1;
        }
        target_pid = live.value().targetPid;
        if (!quiet) {
            std::cout << "live: rounds=" << live.value().rounds
                      << " precopy=" << live.value().precopyPages
                      << " stopcopy=" << live.value().stopCopyPages
                      << " bytes=" << live.value().bytesStreamed
                      << " downtime=" << live.value().downtimeCycles
                      << " cycles\n";
        }
    }

    dst.run();
    const osh::system::ExitResult* r = dst.resultOf(target_pid);
    if (r == nullptr) {
        std::cerr << "migrate: restored victim produced no result\n";
        return 1;
    }
    std::string checksum =
        osh::workloads::resultOf(dst, resultName(workload));

    if (r->status != ref.status || r->killed != ref.killed ||
        checksum != ref.checksum) {
        std::cerr << "migrate: divergence from reference run\n"
                  << "  reference: status=" << ref.status
                  << " killed=" << ref.killed << " checksum="
                  << ref.checksum << "\n"
                  << "  migrated:  status=" << r->status
                  << " killed=" << r->killed << " checksum=" << checksum
                  << (r->killed ? " (" + r->killReason + ")" : "")
                  << "\n";
        return 1;
    }
    if (!quiet) {
        std::cout << "ok: " << workload << " seed=" << seed << " mode="
                  << mode << " status=" << r->status << " checksum="
                  << checksum << "\n";
    }
    return 0;
}
