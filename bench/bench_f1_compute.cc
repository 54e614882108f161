/**
 * @file
 * Figure F1 — compute-bound workload suite, normalized runtime.
 *
 * Reproduces the paper's SPEC-like figure: each kernel runs on the
 * native baseline and under Overshadow; the bar is cloaked/native
 * runtime. Compute-bound code interacts with the kernel rarely, so the
 * expected shape is overhead within a few percent to ~15% (small
 * workloads pay proportionally more fixed launch cost than the paper's
 * minutes-long runs). BENCH_f1.json records each run's cycles and
 * component counters under `native.<kernel>` / `cloaked.<kernel>`.
 */

#include "bench_common.hh"

namespace
{

using namespace osh;

struct Case
{
    const char* name; ///< Workload, "wl.<kernel>".
    std::vector<std::string> argv;
};

} // namespace

int
main()
{
    bench::header("Figure F1: compute suite, normalized runtime "
                  "(cloaked / native)");

    const Case cases[] = {
        {"wl.matmul", {"108"}},
        {"wl.sort", {"65536"}},
        {"wl.stream", {"256", "160"}},
        {"wl.chase", {"8192", "786432"}},
        {"wl.histogram", {"1048576"}},
        {"wl.stencil", {"96", "32"}},
    };

    std::printf("%-14s %14s %14s %10s\n", "kernel", "native(cyc)",
                "cloaked(cyc)", "overhead");
    bench::BenchReport report("f1");
    double worst = 0;
    for (const Case& c : cases) {
        std::string kernel = std::string(c.name).substr(3);
        auto native = bench::runWorkload(false, c.name, c.argv);
        report.captureSystem("native." + kernel, *native);
        auto cloaked = bench::runWorkload(true, c.name, c.argv);
        report.captureSystem("cloaked." + kernel, *cloaked);
        Cycles n = native->cycles();
        Cycles k = cloaked->cycles();
        double ratio = static_cast<double>(k) / static_cast<double>(n);
        worst = std::max(worst, ratio);
        std::printf("%-14s %14llu %14llu %9.1f%%\n", c.name,
                    static_cast<unsigned long long>(n),
                    static_cast<unsigned long long>(k),
                    (ratio - 1.0) * 100.0);
    }
    std::printf("\nworst-case overhead: %.1f%% (paper: compute-bound "
                "workloads stay in the single digits)\n",
                (worst - 1.0) * 100.0);
    report.write();
    return 0;
}
