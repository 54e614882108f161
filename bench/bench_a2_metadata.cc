/**
 * @file
 * Ablation A2 — protection-metadata cache capacity.
 *
 * Every cloaking transition (encrypt on page-out, decrypt+verify on
 * page-in) consults per-page metadata; the VMM keeps a hot cache of
 * metadata entries and pays a verification cost on each miss. This
 * sweep runs a paging-heavy cloaked workload (working set larger than
 * RAM, random-ish reuse) across cache capacities and reports the hit
 * rate and the cycles attributable to metadata misses;
 * BENCH_a2.json records each capacity's row and component counters.
 */

#include "bench_common.hh"

int
main()
{
    using namespace osh;
    bench::header("Ablation A2: metadata cache capacity sweep "
                  "(cloaked paging workload)");

    std::printf("%-10s %14s %12s %12s %10s %14s\n", "capacity",
                "cycles", "md hits", "md misses", "hit rate",
                "miss cycles");
    bench::BenchReport report("a2");
    for (std::size_t capacity : {16u, 64u, 256u, 1024u, 4096u}) {
        trace::TraceConfig tc;
        tc.enabled = bench::tracingRequested();
        auto cfg = system::SystemConfig::Builder{}
                       .cloaking(true)
                       .guestFrames(224)
                       .metadataCacheEntries(capacity)
                       .trace(tc)
                       .build();
        system::System sys(cfg);
        workloads::registerAll(sys);
        auto r = sys.runProgram("wl.memstress", {"256", "3"});
        if (r.status != 0)
            osh_fatal("memstress failed: %s", r.killReason.c_str());
        bench::reportPhase(sys, "a2_cap" + std::to_string(capacity));

        std::uint64_t hits =
            sys.machine().cost().stats().value("metadata_hit");
        std::uint64_t misses =
            sys.machine().cost().stats().value("metadata_miss");
        double rate = hits + misses > 0
                          ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0.0;
        std::uint64_t miss_cycles =
            misses * sys.machine().cost().params().metadataMiss;
        std::string prefix = "cap_" + std::to_string(capacity);
        report.set(prefix + ".metadata_hits", hits);
        report.set(prefix + ".metadata_misses", misses);
        report.set(prefix + ".miss_cycles", miss_cycles);
        report.captureSystem(prefix, sys);
        std::printf("%-10zu %14llu %12llu %12llu %9.1f%% %14llu\n",
                    capacity,
                    static_cast<unsigned long long>(sys.cycles()),
                    static_cast<unsigned long long>(hits),
                    static_cast<unsigned long long>(misses), rate * 100,
                    static_cast<unsigned long long>(miss_cycles));
    }
    std::printf("\n(larger caches turn repeat transitions into hits; "
                "the paper keeps metadata hot in the VMM)\n");
    report.write();
    return 0;
}
