/**
 * @file
 * Ablation A1 — the clean-plaintext re-encryption optimization.
 *
 * A read-heavy protected-file workload makes pages ping-pong between
 * the application (reads) and the kernel (writeback, eviction). With
 * the optimization, unmodified pages keep their (IV, hash) and can be
 * handed back to the kernel with a cheap deterministic re-encryption;
 * without it, every transition pays a fresh IV, a full SHA-256 and a
 * metadata update. The figure shows total cycles and page-encryption
 * counts for both configurations; BENCH_a1.json records each run's
 * cycles and component counters.
 */

#include "bench_common.hh"

namespace
{

using namespace osh;

struct Point
{
    Cycles cycles;
    std::uint64_t encrypts;
    std::uint64_t cleanReencrypts;
};

Point
run(bench::BenchReport& report, bool clean_opt, std::uint64_t requests)
{
    trace::TraceConfig tc;
    tc.enabled = bench::tracingRequested();
    auto cfg = system::SystemConfig::Builder{}
                   .cloaking(true)
                   .guestFrames(4096)
                   .cleanOptimization(clean_opt)
                   .trace(tc)
                   .build();
    system::System sys(cfg);
    workloads::registerAll(sys);
    auto r = sys.runProgram("wl.fileserver",
                            {"128", std::to_string(requests), "4096",
                             "1"});
    if (r.status != 0)
        osh_fatal("fileserver failed: %s", r.killReason.c_str());
    bench::reportPhase(sys,
                       std::string(clean_opt ? "a1_cleanopt_"
                                             : "a1_nocleanopt_") +
                           std::to_string(requests));
    report.captureSystem("req_" + std::to_string(requests) +
                             (clean_opt ? ".opt_on" : ".opt_off"),
                         sys);
    return {sys.cycles(), sys.cloak()->stats().value("page_encrypts"),
            sys.cloak()->stats().value("clean_reencrypts")};
}

} // namespace

int
main()
{
    bench::header("Ablation A1: clean-plaintext optimization "
                  "(protected file server)");
    std::printf("%-10s | %14s %12s %10s | %14s %12s | %8s\n",
                "requests", "opt-on(cyc)", "encrypts", "clean-re",
                "opt-off(cyc)", "encrypts", "saving");
    bench::BenchReport report("a1");
    for (std::uint64_t requests : {20u, 60u, 120u, 240u}) {
        Point on = run(report, true, requests);
        Point off = run(report, false, requests);
        std::printf("%-10llu | %14llu %12llu %10llu | %14llu %12llu "
                    "| %7.1f%%\n",
                    static_cast<unsigned long long>(requests),
                    static_cast<unsigned long long>(on.cycles),
                    static_cast<unsigned long long>(on.encrypts),
                    static_cast<unsigned long long>(on.cleanReencrypts),
                    static_cast<unsigned long long>(off.cycles),
                    static_cast<unsigned long long>(off.encrypts),
                    (1.0 - static_cast<double>(on.cycles) /
                               static_cast<double>(off.cycles)) * 100.0);
    }
    std::printf("\n(the optimization removes the hash+metadata cost "
                "for pages the app only read)\n");
    report.write();
    return 0;
}
