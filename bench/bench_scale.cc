/**
 * @file
 * Tenant-scale sweep: 10 -> 100 -> 1k -> 10k cloaked processes.
 *
 * Each point runs N short-lived cloaked tenants (wl.tenant: two private
 * pages, seeded stores, strided hash) through one 4-vCPU system,
 * launched in bounded waves so live concurrency — and therefore the
 * protection state the VMM must hold at once — is capped while total
 * work scales with N. Every tenant's exit status is checked against the
 * host-side mirror (workloads::tenantStatus), so a point only counts if
 * all N tenants computed correctly under cloaking.
 *
 * Charted per point:
 *   - total and per-tenant simulated cycles (per-tenant cost must stay
 *     flat as N grows);
 *   - peak shadow-page-table slots and peak metadata footprint bytes
 *     (sub-linear per tenant — they track live tenants, not historical
 *     ones);
 *   - context switches, derived AES keys (linear in N: key identities
 *     persist for the store's lifetime);
 *   - host wall time (host_ prefix, never gated).
 *
 * Writes BENCH_scale.json; CI runs `--quick` (10 and 100 only) against
 * the committed full-sweep baseline — compare.py warns on the missing
 * large points and gates every simulated metric of the points that
 * ran.
 */

#include "bench_common.hh"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace
{

using namespace osh;

constexpr std::uint64_t benchSeed = 42;
constexpr std::uint64_t tenantPages = 2;
constexpr std::uint64_t waveWidth = 24;
constexpr std::size_t benchVcpus = 4;

struct ScalePoint
{
    std::uint64_t tenants = 0;
    Cycles cycles = 0;
    std::uint64_t shadowPeakSlots = 0;
    std::uint64_t metaPeakBytes = 0;
    std::uint64_t contextSwitches = 0;
    std::uint64_t derivedKeys = 0;
    std::uint64_t hostNs = 0;
};

ScalePoint
runScale(std::uint64_t n)
{
    // A short tick (vs the 2M-op default) forces the tenants of a wave
    // to genuinely interleave: up to waveWidth cloaked processes are
    // mid-flight at once, so peak shadow/metadata state reflects real
    // concurrent tenants and threads migrate across the vCPU slots.
    auto cfg = system::SystemConfig::Builder{}
                   .seed(benchSeed)
                   .guestFrames(4096)
                   .cloaking(true)
                   .vcpus(benchVcpus)
                   .preemptOpsPerTick(500)
                   .build();
    system::System sys(cfg);
    workloads::registerAll(sys);

    std::uint64_t host0 = bench::hostNowNs();
    std::uint64_t idx = 0;
    std::vector<std::pair<Pid, std::uint64_t>> wave;
    while (idx < n) {
        std::uint64_t batch = std::min(waveWidth, n - idx);
        wave.clear();
        for (std::uint64_t i = 0; i < batch; ++i, ++idx) {
            Pid pid = sys.launch("wl.tenant",
                                 {std::to_string(idx),
                                  std::to_string(tenantPages)});
            wave.emplace_back(pid, idx);
        }
        sys.run();
        for (const auto& [pid, tenant] : wave) {
            const system::ExitResult* r = sys.resultOf(pid);
            int expected = workloads::tenantStatus(benchSeed, tenant,
                                                   tenantPages);
            if (r == nullptr || r->killed || r->status != expected) {
                osh_fatal("tenant %llu diverged: status=%d expected=%d "
                          "%s",
                          static_cast<unsigned long long>(tenant),
                          r != nullptr ? r->status : -999, expected,
                          r != nullptr ? r->killReason.c_str() : "");
            }
        }
        // Release finished threads' records and fiber stacks so 10k
        // tenants fit in bounded host memory.
        sys.sched().reapFinished();
    }

    ScalePoint p;
    p.tenants = n;
    p.cycles = sys.cycles();
    p.shadowPeakSlots = sys.vmm().shadows().peakSlotCount();
    p.metaPeakBytes = sys.cloak()->metadata().peakFootprintBytes();
    p.contextSwitches =
        sys.machine().cost().stats().value("context_switch");
    p.derivedKeys = sys.cloak()->keys().derivedKeyCount();
    p.hostNs = bench::hostNowNs() - host0;
    return p;
}

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    }

    std::vector<std::uint64_t> points = {10, 100, 1000, 10000};
    if (quick)
        points = {10, 100};

    bench::header("Tenant scale sweep (cloaked, 4 vCPUs)");
    std::printf("%8s %14s %12s %12s %12s %10s %10s %9s\n", "tenants",
                "cycles", "cyc/tenant", "shadow_peak", "meta_peakB",
                "ctx_sw", "keys", "host_ms");

    bench::BenchReport report("scale");
    for (std::uint64_t n : points) {
        ScalePoint p = runScale(n);
        std::printf("%8llu %14llu %12llu %12llu %12llu %10llu %10llu "
                    "%9llu\n",
                    static_cast<unsigned long long>(p.tenants),
                    static_cast<unsigned long long>(p.cycles),
                    static_cast<unsigned long long>(p.cycles / n),
                    static_cast<unsigned long long>(p.shadowPeakSlots),
                    static_cast<unsigned long long>(p.metaPeakBytes),
                    static_cast<unsigned long long>(p.contextSwitches),
                    static_cast<unsigned long long>(p.derivedKeys),
                    static_cast<unsigned long long>(p.hostNs / 1000000));

        std::string k = "scale.n" + std::to_string(n);
        report.set(k + ".cycles", p.cycles);
        report.set(k + ".per_tenant_cycles", p.cycles / n);
        report.set(k + ".shadow_peak_slots", p.shadowPeakSlots);
        report.set(k + ".meta_peak_bytes", p.metaPeakBytes);
        report.set(k + ".context_switches", p.contextSwitches);
        report.set(k + ".derived_keys", p.derivedKeys);
        report.setHost(k + ".ns", p.hostNs);
    }
    report.write();
    return 0;
}
