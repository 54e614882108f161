/**
 * @file
 * Figure F3 — process-creation-heavy "build" workload.
 *
 * Reproduces the paper's worst case: a parallel-compilation-style
 * driver that spawns one process per task. Under Overshadow every
 * spawn pays domain setup, shim initialization and eager encryption of
 * the parent's cloaked pages, so the slowdown here is the largest of
 * any workload — a several-fold factor, matching the paper's
 * fork/exec-heavy results. BENCH_f3.json records each run's cycles
 * and component counters under `native.tasks_<n>` / `cloaked.tasks_<n>`.
 */

#include "bench_common.hh"

int
main()
{
    using namespace osh;
    bench::header("Figure F3: build workload (spawn-per-task)");

    std::printf("%-8s %14s %14s %10s\n", "tasks", "native(cyc)",
                "cloaked(cyc)", "slowdown");
    bench::BenchReport report("f3");
    for (std::uint64_t tasks : {1, 2, 4, 8, 16}) {
        std::vector<std::string> argv = {std::to_string(tasks), "16"};
        std::string key = "tasks_" + std::to_string(tasks);
        auto native = bench::runWorkload(false, "wl.build", argv, 8192);
        report.captureSystem("native." + key, *native);
        auto cloaked = bench::runWorkload(true, "wl.build", argv, 8192);
        report.captureSystem("cloaked." + key, *cloaked);
        Cycles n = native->cycles();
        Cycles c = cloaked->cycles();
        std::printf("%-8llu %14llu %14llu %9.2fx\n",
                    static_cast<unsigned long long>(tasks),
                    static_cast<unsigned long long>(n),
                    static_cast<unsigned long long>(c),
                    static_cast<double>(c) / static_cast<double>(n));
    }
    std::printf("\n(paper shape: the process-creation path is "
                "Overshadow's most expensive)\n");
    report.write();
    return 0;
}
