/**
 * @file
 * Shared helpers for the benchmark binaries.
 *
 * Each bench binary regenerates one table or figure from the paper's
 * evaluation: it runs the relevant workloads on a native system (VMM,
 * no cloaking — the paper's baseline) and on an Overshadow system, and
 * prints the same rows/series the paper reports. All numbers are
 * deterministic simulated cycles.
 */

#ifndef OSH_BENCH_COMMON_HH
#define OSH_BENCH_COMMON_HH

#include "os/env.hh"
#include "system/system.hh"
#include "trace/export.hh"
#include "workloads/workloads.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

namespace osh::bench
{

/**
 * True when the OSH_TRACE environment variable asks for tracing.
 * Always false when tracing is compiled out (-DOSH_TRACE=OFF): the
 * instrumentation sites are gone, so a report would be empty.
 */
inline bool
tracingRequested()
{
#if OSH_TRACE_ENABLED
    const char* v = std::getenv("OSH_TRACE");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
#else
    return false;
#endif
}

/**
 * Monotonic host wall-clock in nanoseconds. Host time measures how
 * fast the simulator itself runs (real crypto throughput on this
 * machine); it is never part of the gated simulated-cycle metrics.
 */
inline std::uint64_t
hostNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * The process's peak resident set in KiB (VmHWM from
 * /proc/self/status), or 0 where the host does not report it. Like
 * wall time, a host observation, never a simulated quantity.
 */
inline std::uint64_t
hostPeakRssKib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
    return 0;
}

/** Whole MB/s (1 MB = 10^6 bytes) for `bytes` processed in `ns`. */
inline std::uint64_t
mbPerSec(std::uint64_t bytes, std::uint64_t ns)
{
    return ns == 0 ? 0 : bytes * 1000 / ns;
}

/** Knobs a bench varies when building systems. */
struct BenchOptions
{
    bool cloaked = true;
    std::uint64_t frames = 4096;
    std::uint64_t seed = 42;
    std::uint64_t preemptOps = 2'000'000;
    /** Shadow-resolution fast path (ablation: off = flush-everything
     *  VMM and no re-encryption victim cache). */
    bool fastPath = true;
    /** Async eviction queue depth (0 = synchronous legacy path). */
    std::size_t asyncEvictDepth = 0;
    /** Timing-channel hardening posture: virtualized per-context clock
     *  plus constant-cost cloak responses (docs/threat-model.md). Off
     *  is the exact-cost legacy system every committed baseline
     *  replays bit-identically. */
    bool timingHardened = false;
};

/** Clock-spoofing knobs the hardened bench series use — the same
 *  values the attack campaign applies to its timing cells. */
constexpr Cycles hardenedClockFuzzCycles = 1'000'000;
constexpr Cycles hardenedClockOffsetCycles = 1'000'000;

/** Build a system with workloads registered. */
inline std::unique_ptr<system::System>
makeSystem(const BenchOptions& opt)
{
    trace::TraceConfig tc;
    tc.enabled = tracingRequested();
    auto builder =
        system::SystemConfig::Builder{}
            .cloaking(opt.cloaked)
            .guestFrames(opt.frames)
            .seed(opt.seed)
            .preemptOpsPerTick(opt.preemptOps)
            .shadowRetention(opt.fastPath)
            .victimCacheEntries(
                opt.fastPath ? system::SystemConfig{}.victimCacheEntries
                             : 0)
            .asyncEvictDepth(opt.cloaked ? opt.asyncEvictDepth : 0)
            .trace(tc);
    if (opt.timingHardened)
        builder.clockFuzzCycles(hardenedClockFuzzCycles)
            .clockOffsetCycles(hardenedClockOffsetCycles)
            .constantCostCloak(true);
    auto cfg = builder.build();
    auto sys = std::make_unique<system::System>(cfg);
    workloads::registerAll(*sys);
    return sys;
}

/**
 * Dump tracing artifacts for one bench phase: a plain-text metrics
 * report on stdout and a Chrome trace JSON (`<phase>.trace.json`,
 * loadable in Perfetto / chrome://tracing). No-op unless the bench ran
 * with OSH_TRACE=1. Tracing never charges simulated cycles, so the
 * numbers a bench prints are identical with and without it.
 */
inline void
reportPhase(system::System& sys, const std::string& phase)
{
    auto& tracer = sys.tracer();
    if (!tracer.enabled())
        return;
    std::fputs(trace::metricsReport(tracer.metrics(), phase).c_str(),
               stdout);
    std::string path = phase + ".trace.json";
    if (trace::writeChromeJson(tracer.buffer(), path))
        std::printf("[trace] wrote %s (%llu events)\n\n", path.c_str(),
                    static_cast<unsigned long long>(
                        tracer.buffer().size()));
}

/** Run one workload (asserts ok) and return the finished system. */
inline std::unique_ptr<system::System>
runWorkload(bool cloaked, const std::string& program,
            const std::vector<std::string>& argv,
            std::uint64_t frames = 4096, std::uint64_t seed = 42)
{
    auto sys = makeSystem(
        BenchOptions{.cloaked = cloaked, .frames = frames, .seed = seed});
    auto r = sys->runProgram(program, argv);
    if (r.status != 0) {
        osh_fatal("bench workload %s failed: status=%d %s",
                  program.c_str(), r.status, r.killReason.c_str());
    }
    reportPhase(*sys, program + (cloaked ? ".cloaked" : ".native"));
    return sys;
}

/** Run one workload and return total simulated cycles (asserts ok). */
inline Cycles
runCycles(bool cloaked, const std::string& program,
          const std::vector<std::string>& argv,
          std::uint64_t frames = 4096, std::uint64_t seed = 42)
{
    return runWorkload(cloaked, program, argv, frames, seed)->cycles();
}

inline void
header(const char* title)
{
    std::printf("\n================================================="
                "=============\n");
    std::printf("%s\n", title);
    std::printf("==================================================="
                "===========\n");
}

/**
 * Machine-readable bench result, written as `BENCH_<phase>.json` for
 * the perf-regression harness (bench/compare.py diffs two files and
 * fails on cycle regressions beyond a tolerance).
 *
 * The file holds one flat `metrics` object of integer values: total
 * cycles, per-operation cycle costs, fault/crypto-op counters, and —
 * when tracing is on — p50/p95 latencies from the trace histograms.
 * Every such value is a deterministic simulated quantity: two runs of
 * the same binary with the same seed produce byte-identical metrics.
 * Keys starting with `host_` (see setHost) are the exception: they
 * carry host wall-time observations, are reported but never gated by
 * compare.py, and do not belong in committed baselines.
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string phase) : phase_(std::move(phase)) {}

    /** Record one scalar metric (use '.'-separated key paths). */
    void
    set(const std::string& key, std::uint64_t value)
    {
        metrics_.emplace_back(key, value);
    }

    /**
     * Record a host wall-time metric (nanoseconds, MB/s, speedup
     * ratios). Host metrics carry a `host_` key prefix:
     * bench/compare.py reports their deltas but never gates on them,
     * and committed baselines leave them out — wall time is a property
     * of the machine the bench ran on, not of the simulation.
     */
    void
    setHost(const std::string& key, std::uint64_t value)
    {
        set("host_" + key, value);
    }

    /** Record every counter of a StatGroup under `prefix.group.name`. */
    void
    setGroup(const std::string& prefix, const StatGroup& group)
    {
        for (const auto& [name, value] : group.snapshot())
            set(prefix + "." + group.name() + "." + name, value);
    }

    /**
     * Capture a finished system run: total cycles, the fault/crypto
     * counters of every major component (every vCPU's TLB), and
     * (when tracing ran) p50/p95 of each latency histogram.
     */
    void
    captureSystem(const std::string& prefix, system::System& sys)
    {
        set(prefix + ".cycles", sys.cycles());
        setGroup(prefix, sys.vmm().stats());
        setGroup(prefix, sys.vmm().shadows().stats());
        for (std::uint32_t cpu = 0; cpu < sys.vmm().vcpuCount(); ++cpu)
            setGroup(prefix, sys.vmm().tlb(cpu).stats());
        setGroup(prefix, sys.sched().stats());
        if (sys.cloak() != nullptr) {
            setGroup(prefix, sys.cloak()->stats());
            set(prefix + ".cloak.audit_dropped",
                sys.cloak()->auditLog().dropped());
        }
        if (sys.tracer().enabled()) {
            for (const auto& [key, hist] :
                 sys.tracer().metrics().histograms()) {
                std::string base =
                    prefix + ".hist." +
                    trace::categoryName(
                        static_cast<trace::Category>(key.first)) +
                    "." + key.second;
                set(base + ".p50", hist.percentile(50));
                set(base + ".p95", hist.percentile(95));
            }
        }
    }

    /**
     * Write `BENCH_<phase>.json`; returns the path ("" on failure).
     * Every file also carries `host_peak_rss_kib`, the process's peak
     * resident set at the time of writing.
     */
    std::string
    write() const
    {
        auto metrics = metrics_;
        metrics.emplace_back("host_peak_rss_kib", hostPeakRssKib());
        std::string path = "BENCH_" + phase_ + ".json";
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "[bench] cannot write %s\n",
                         path.c_str());
            return "";
        }
        std::fprintf(f, "{\n  \"schema\": 1,\n  \"phase\": \"%s\",\n"
                        "  \"metrics\": {\n",
                     phase_.c_str());
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            std::fprintf(f, "    \"%s\": %llu%s\n",
                         metrics[i].first.c_str(),
                         static_cast<unsigned long long>(
                             metrics[i].second),
                         i + 1 < metrics.size() ? "," : "");
        }
        std::fprintf(f, "  }\n}\n");
        std::fclose(f);
        std::printf("[bench] wrote %s (%zu metrics)\n", path.c_str(),
                    metrics.size());
        return path;
    }

  private:
    std::string phase_;
    std::vector<std::pair<std::string, std::uint64_t>> metrics_;
};

} // namespace osh::bench

#endif // OSH_BENCH_COMMON_HH
