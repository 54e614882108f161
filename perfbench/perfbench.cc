/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload tenants|fileserve|paging [--seed N]
 *             [--seconds S] [--trace 0|1] [--out-dir DIR]
 *             [--corrupt-expectation]
 *
 * A run is made of epochs. An epoch builds a fresh System (set-up:
 * construction, program registration and one warm-up round), then runs
 * the workload's fixed list of timed rounds and tears the System down.
 * Every epoch of a run repeats the same simulation, so:
 *
 *   - host time is sampled over many rounds and several set-ups;
 *   - simulated cycles and every component counter must repeat bit for
 *     bit from epoch to epoch (the determinism guard);
 *   - host memory is bounded by one epoch, whatever the host speed.
 *
 * Order of a run: one native (uncloaked) reference epoch, which records
 * the expected digests and the native cycle count; timed cloaked epochs
 * until --seconds have passed (with --trace 1, untraced and traced
 * epochs alternate); one more cloaked epoch with cryptoWorkers = 1.
 * Every epoch after the first cloaked one must match it exactly.
 *
 * With --trace 0 the result carries the end-to-end metrics, with
 * --trace 1 the per-layer ones (plus host probes of single layer
 * calls). The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. See README.md.
 */

#include "bench_workloads.hh"

#include "cloak/transfer.hh"
#include "crypto/aes.hh"
#include "crypto/ctr.hh"
#include "crypto/hmac.hh"
#include "crypto/sha256.hh"
#include "trace/export.hh"
#include "vmm/tlb.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace osh::perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Nearest-rank percentile (p in (0, 100]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

// ---------------------------------------------------------------------------
// Host spans
// ---------------------------------------------------------------------------

/**
 * Host-time spans around the benchmark's own calls into each layer,
 * kept in memory and written as Chrome trace JSON when the run ends.
 * Recording is off for untraced runs; the clock is read either way
 * because the spans also feed the host-time metrics.
 */
class HostSpans
{
  public:
    explicit HostSpans(bool record) : record_(record) {}

    void
    add(const char* name, const char* layer, Clock::time_point begin,
        Clock::time_point end)
    {
        if (record_)
            spans_.push_back({name, layer, begin, end});
    }

    bool
    write(const std::string& path) const
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fputs("{\"traceEvents\":[", f);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                         "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                         i == 0 ? "" : ",", s.name, s.layer,
                         secondsBetween(origin_, s.begin) * 1e6,
                         secondsBetween(s.begin, s.end) * 1e6);
        }
        std::fputs("\n]}\n", f);
        return std::fclose(f) == 0;
    }

  private:
    struct Span
    {
        const char* name;
        const char* layer;
        Clock::time_point begin;
        Clock::time_point end;
    };

    bool record_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** One timed call: stop() (or the destructor) records the span. */
class Timed
{
  public:
    Timed(HostSpans& spans, const char* name, const char* layer)
        : spans_(spans), name_(name), layer_(layer), begin_(Clock::now())
    {
    }

    ~Timed()
    {
        if (!stopped_)
            stop();
    }

    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

    /** End the span; returns its length in seconds. */
    double
    stop()
    {
        auto end = Clock::now();
        stopped_ = true;
        spans_.add(name_, layer_, begin_, end);
        return secondsBetween(begin_, end);
    }

  private:
    HostSpans& spans_;
    const char* name_;
    const char* layer_;
    Clock::time_point begin_;
    bool stopped_ = false;
};

// ---------------------------------------------------------------------------
// Component counters
// ---------------------------------------------------------------------------

/** Flat "<group>.<counter>" snapshot of every component's counters. */
using Counts = std::map<std::string, std::uint64_t>;

/** Keys with this prefix are high-water marks, not running counts. */
constexpr const char* peakPrefix = "peak.";

void
addGroup(Counts& c, const StatGroup& group, const std::string& as)
{
    for (const auto& [name, value] : group.snapshot())
        c[as + "." + name] += value;
}

Counts
snapshot(system::System& sys)
{
    Counts c;
    c["cycles"] = sys.cycles();
    const StatGroup& cost = sys.machine().cost().stats();
    addGroup(c, cost, cost.name());
    addGroup(c, sys.vmm().stats(), "vmm");
    addGroup(c, sys.vmm().shadows().stats(), "shadow");
    // Every vCPU's private TLB, each under its own name and summed.
    for (std::uint32_t cpu = 0; cpu < sys.vmm().vcpuCount(); ++cpu) {
        StatGroup& tlb = sys.vmm().tlb(cpu).stats();
        addGroup(c, tlb, tlb.name());
        addGroup(c, tlb, "tlb_all");
    }
    addGroup(c, sys.sched().stats(), "sched");
    addGroup(c, sys.kernel().stats(), "kernel");
    addGroup(c, sys.kernel().vfs().stats(), "vfs");
    addGroup(c, sys.kernel().swap().stats(), "swap");
    c[std::string(peakPrefix) + "shadow_slots"] =
        sys.vmm().shadows().peakSlotCount();
    if (cloak::CloakEngine* engine = sys.cloak()) {
        addGroup(c, engine->stats(), "cloak");
        addGroup(c, engine->metadata().stats(), "metadata");
        c["keys.derived"] = engine->keys().derivedKeyCount();
        c[std::string(peakPrefix) + "metadata_bytes"] =
            engine->metadata().peakFootprintBytes();
    }
    return c;
}

/** Counter growth from @p before to @p after (peaks: the later value). */
Counts
delta(const Counts& after, const Counts& before)
{
    Counts d;
    for (const auto& [key, value] : after) {
        auto it = before.find(key);
        bool peak = key.rfind(peakPrefix, 0) == 0;
        d[key] = peak || it == before.end() ? value : value - it->second;
    }
    return d;
}

/** Trace categories whose spans the traced run reports. */
constexpr std::array<trace::Category, 7> tracedCategories = {
    trace::Category::Vmm,     trace::Category::Cloak,
    trace::Category::Transfer, trace::Category::Shim,
    trace::Category::Syscall, trace::Category::Swap,
    trace::Category::Vfs,
};

/** Span count and inclusive simulated cycles of each reported category. */
Counts
traceTotals(const trace::Tracer& tracer)
{
    Counts c;
    for (const auto& [key, hist] : tracer.metrics().histograms()) {
        auto cat = static_cast<trace::Category>(key.first);
        std::string base = std::string("trace.") + trace::categoryName(cat);
        c[base + ".spans"] += hist.count();
        c[base + ".cycles"] += hist.sum();
    }
    return c;
}

/** @p key's value in @p c as a double (0 when absent). */
double
valueOf(const Counts& c, const std::string& key)
{
    auto it = c.find(key);
    return it != c.end() ? static_cast<double>(it->second) : 0.0;
}

// ---------------------------------------------------------------------------
// Epochs
// ---------------------------------------------------------------------------

struct EpochSpec
{
    bool cloaked = true;
    bool traced = false;
    /** Unset keeps the default SystemConfig::cryptoWorkers. */
    std::optional<std::size_t> cryptoWorkers;
    /** Traced epochs: where to write the simulator's trace artifacts
     *  ("" = nowhere). */
    std::string traceOut;
};

/** Everything measured in one epoch. */
struct Epoch
{
    double setupSeconds = 0;
    std::vector<double> roundSeconds;
    std::vector<Cycles> roundCycles;
    std::vector<double> launchSeconds;
    std::vector<double> reapSeconds;
    std::uint64_t units = 0;     ///< Units of the timed rounds.
    std::uint64_t attempted = 0; ///< Units checked, warm-up included.
    std::uint64_t failed = 0;
    Counts counts;      ///< Counter growth over the timed rounds.
    Counts traceTotals; ///< Traced epochs only.

    double
    seconds() const
    {
        double s = 0;
        for (double r : roundSeconds)
            s += r;
        return s;
    }

    Cycles
    cycles() const
    {
        Cycles c = 0;
        for (Cycles r : roundCycles)
            c += r;
        return c;
    }
};

/** Launch, run, reap and check round @p r; @p timed collects its
 *  numbers into @p e (the warm-up round only counts as attempted). */
void
runRound(Workload& wl, system::System& sys, std::uint64_t r, bool timed,
         Epoch& e, HostSpans& spans)
{
    const std::vector<Launch> launches = wl.round(r);
    const Cycles c0 = sys.cycles();
    const auto t0 = Clock::now();
    std::vector<Pid> pids;
    for (const Launch& l : launches) {
        Timed t(spans, "launch", "system");
        pids.push_back(sys.launch(l.program, l.argv));
        double s = t.stop();
        if (timed)
            e.launchSeconds.push_back(s);
    }
    {
        Timed t(spans, "run", "system");
        sys.run();
    }
    {
        Timed t(spans, "reap", "os");
        sys.sched().reapFinished();
        double s = t.stop();
        if (timed)
            e.reapSeconds.push_back(s);
    }
    const double round_s = secondsBetween(t0, Clock::now());

    Timed t(spans, "verify", "perfbench");
    RoundCheck c = wl.check(sys, r, pids);
    e.attempted += c.units;
    e.failed += c.failed;
    if (timed) {
        e.units += c.units;
        e.roundSeconds.push_back(round_s);
        e.roundCycles.push_back(sys.cycles() - c0);
    }
}

Epoch
runEpoch(Workload& wl, const EpochSpec& spec, HostSpans& spans)
{
    Epoch e;
    auto builder = wl.configure();
    builder.cloaking(spec.cloaked);
    if (spec.cryptoWorkers)
        builder.cryptoWorkers(*spec.cryptoWorkers);
    if (spec.traced) {
        trace::TraceConfig tc;
        tc.enabled = true;
        builder.trace(tc);
    }
    const system::SystemConfig cfg = builder.build();

    Timed setup(spans, "setup", "perfbench");
    std::unique_ptr<system::System> sys;
    {
        Timed t(spans, "construct", "system");
        sys = std::make_unique<system::System>(cfg);
    }
    {
        Timed t(spans, "install", "system");
        wl.install(*sys);
    }
    runRound(wl, *sys, wl.roundsPerEpoch(), /*timed=*/false, e, spans);
    e.setupSeconds = setup.stop();

    // Per-layer numbers cover the timed rounds only.
    if (spec.traced)
        sys->tracer().clear();
    const Counts before = snapshot(*sys);
    for (std::uint64_t r = 0; r < wl.roundsPerEpoch(); ++r)
        runRound(wl, *sys, r, /*timed=*/true, e, spans);
    e.counts = delta(snapshot(*sys), before);

    if (spec.traced) {
        e.traceTotals = traceTotals(sys->tracer());
        if (!spec.traceOut.empty()) {
            trace::writeChromeJson(sys->tracer().buffer(),
                                   spec.traceOut + ".sim.trace.json");
            std::ofstream(spec.traceOut + ".sim.metrics.txt")
                << trace::metricsReport(sys->tracer().metrics(),
                                        spec.traceOut);
        }
    }
    Timed t(spans, "teardown", "system");
    sys.reset();
    return e;
}

/**
 * The determinism guard: @p e must repeat @p ref's simulation exactly
 * (per-round cycles and every counter). Returns "" or the first
 * difference.
 */
std::string
divergence(const Epoch& ref, const Epoch& e)
{
    if (e.roundCycles != ref.roundCycles)
        return "per-round simulated cycles";
    for (const auto& [key, value] : ref.counts) {
        auto it = e.counts.find(key);
        if (it == e.counts.end() || it->second != value)
            return "counter " + key;
    }
    if (e.counts.size() != ref.counts.size())
        return "counter set";
    return "";
}

// ---------------------------------------------------------------------------
// Host probes of single layer calls (short fixed loops)
// ---------------------------------------------------------------------------

/** Defeats dead-code elimination of probe results. */
volatile std::uint64_t probeSink = 0;

/** Median over five repetitions of @p body's seconds per call. */
template <typename Body>
double
probe(std::uint64_t calls, Body body)
{
    std::vector<double> reps;
    for (int rep = 0; rep < 5; ++rep) {
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < calls; ++i)
            body(i);
        reps.push_back(secondsBetween(t0, Clock::now()) /
                       static_cast<double>(calls));
    }
    return median(reps);
}

struct Probes
{
    double tlbLookupNs = 0;
    double tlbInvalidateVaNs = 0;
    double ctcHashNs = 0;
    double pageSealUs = 0;
};

Probes
runProbes(HostSpans& spans)
{
    Timed t(spans, "probes", "perfbench");
    Probes p;

    // A full default-capacity TLB shared by four address spaces.
    vmm::Tlb tlb;
    std::vector<std::pair<vmm::Context, GuestVA>> keys;
    for (std::uint64_t i = 0; i < 256; ++i) {
        vmm::Context ctx;
        ctx.asid = static_cast<Asid>(1 + i % 4);
        keys.emplace_back(ctx, i * pageSize);
        tlb.insert(ctx, i * pageSize, {i * pageSize, true, true});
    }
    {
        Timed s(spans, "tlb.lookup", "vmm");
        p.tlbLookupNs = 1e9 * probe(200000, [&](std::uint64_t i) {
                            const auto& [ctx, va] = keys[i % keys.size()];
                            probeSink = probeSink + tlb.lookup(ctx, va)->mpa;
                        });
    }
    {
        // Pages no entry maps, so the TLB stays full.
        Timed s(spans, "tlb.invalidateVa", "vmm");
        p.tlbInvalidateVaNs =
            1e9 * probe(20000, [&](std::uint64_t i) {
                tlb.invalidateVa(1, (1'000'000 + i) * pageSize);
            });
    }
    {
        Timed s(spans, "sha256.ctc", "crypto");
        std::array<std::uint8_t, cloak::ctcBytes> record{};
        p.ctcHashNs = 1e9 * probe(100000, [&](std::uint64_t i) {
                          record[i % record.size()] ^= 1;
                          probeSink = probeSink +
                                      crypto::Sha256::hash(record)[0];
                      });
    }
    {
        Timed s(spans, "page_seal", "crypto");
        crypto::AesKey key{};
        key[0] = 0x5e;
        crypto::Aes128 cipher(key);
        crypto::HmacKey mac(key);
        crypto::Iv iv{};
        std::vector<std::uint8_t> page(pageSize, 0xa5);
        p.pageSealUs = 1e6 * probe(2000, [&](std::uint64_t i) {
                           iv[0] = static_cast<std::uint8_t>(i);
                           crypto::aesCtrXcrypt(cipher, iv, page, page);
                           probeSink = probeSink +
                                       crypto::hmacSha256(mac, page)[0];
                       });
    }
    return p;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric>& metrics)
{
    for (const Metric& m : metrics)
        std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json << (i == 0 ? "" : ", ") << '"' << metrics[i].name
             << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
             << metrics[i].unit << "\"}";
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
}

/**
 * The gated metrics: simulated cost, set-up time and memory. Host
 * throughput and round times are per-layer metrics (system.*): on a
 * shared host their run-to-run spread is wider than any bound could
 * gate (README.md, Host noise).
 */
std::vector<Metric>
endToEndMetrics(const std::vector<Epoch>& timed, const Epoch& native,
                double peak_rss_mib)
{
    std::vector<double> setups;
    for (const Epoch& e : timed)
        setups.push_back(e.setupSeconds);
    const Epoch& ref = timed.front();
    return {
        {"sim_cycles_per_unit",
         ratio(static_cast<double>(ref.cycles()),
               static_cast<double>(ref.units)),
         "cycles"},
        {"cloak_overhead",
         ratio(static_cast<double>(ref.cycles()),
               static_cast<double>(native.cycles())),
         "ratio"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mib", peak_rss_mib, "MiB"},
    };
}

std::vector<Metric>
perLayerMetrics(const std::vector<Epoch>& timed,
                const std::vector<Epoch>& traced, const Probes& probes)
{
    const Epoch& ref = timed.front();
    const Counts& c = ref.counts;
    auto get = [&c](const std::string& key) { return valueOf(c, key); };
    const double units = static_cast<double>(ref.units);
    auto per = [&](const std::string& key) { return ratio(get(key), units); };

    std::vector<double> launch, reap, ups, traced_ups, rounds;
    for (const Epoch& e : timed) {
        launch.insert(launch.end(), e.launchSeconds.begin(),
                      e.launchSeconds.end());
        reap.insert(reap.end(), e.reapSeconds.begin(), e.reapSeconds.end());
        ups.push_back(ratio(static_cast<double>(e.units), e.seconds()));
        for (double s : e.roundSeconds)
            rounds.push_back(s * 1e3);
    }
    for (const Epoch& e : traced)
        traced_ups.push_back(
            ratio(static_cast<double>(e.units), e.seconds()));

    const double tlb_lookups = get("tlb_all.hits") + get("tlb_all.misses");
    const double encrypts =
        get("cloak.page_encrypts") + get("cloak.clean_reencrypts");
    std::vector<Metric> m = {
        {"system.units_per_s", median(ups), "1/s"},
        {"system.round_ms_p50", percentile(rounds, 50), "ms"},
        {"system.round_ms_p90", percentile(rounds, 90), "ms"},
        {"system.launch_us_p50", median(launch) * 1e6, "us"},
        {"os.sched.reap_ms_p50", median(reap) * 1e3, "ms"},
        {"os.context_switches", per("cost.context_switch"), "per_unit"},
        {"os.preemptions", per("sched.preemptions"), "per_unit"},
        {"os.syscalls", per("cost.syscall"), "per_unit"},
        {"os.batch_fill",
         ratio(get("kernel.batched_syscalls"), get("kernel.batches")),
         "calls/batch"},
        {"os.pagecache_fills", per("kernel.pagecache_fills"), "per_unit"},
        {"os.swap_ins", per("kernel.swap_ins"), "per_unit"},
        {"os.evicted_anon", per("kernel.evicted_anon"), "per_unit"},
        {"vmm.tlb.lookups", ratio(tlb_lookups, units), "per_unit"},
        {"vmm.tlb.hit_ratio", ratio(get("tlb_all.hits"), tlb_lookups),
         "ratio"},
        {"vmm.tlb.lookup_ns", probes.tlbLookupNs, "ns"},
        {"vmm.tlb.invalidate_va_ns", probes.tlbInvalidateVaNs, "ns"},
        {"vmm.shadow.installs", per("shadow.installs"), "per_unit"},
        {"vmm.shadow.retention_ratio",
         ratio(get("shadow.reactivations"),
               get("shadow.installs") + get("shadow.reactivations")),
         "ratio"},
        {"vmm.shadow.peak_slots", get("peak.shadow_slots"), "slots"},
        {"vmm.world_switches", per("vmm.world_switches"), "per_unit"},
        {"cloak.transfer.ctc_saves", per("cost.ctc_save"), "per_unit"},
        {"cloak.shim.calls_per_trap",
         ratio(get("cloak.shim_batched_calls"),
               get("cloak.shim_batch_traps")),
         "calls/trap"},
        {"cloak.page_encrypts", per("cloak.page_encrypts"), "per_unit"},
        {"cloak.page_decrypts", per("cloak.page_decrypts"), "per_unit"},
        {"cloak.clean_ratio", ratio(get("cloak.clean_reencrypts"), encrypts),
         "ratio"},
        {"cloak.victim_hit_ratio",
         ratio(get("cloak.victim_reencrypt_hits") +
                   get("cloak.victim_decrypt_hits"),
               get("cloak.clean_reencrypts") + get("cloak.page_decrypts")),
         "ratio"},
        {"cloak.metadata.misses", per("cost.metadata_miss"), "per_unit"},
        {"cloak.metadata.peak_bytes", get("peak.metadata_bytes"), "B"},
        {"cloak.keys.derived", per("keys.derived"), "per_unit"},
        {"crypto.ctc_hash_ns", probes.ctcHashNs, "ns"},
        {"crypto.page_seal_us", probes.pageSealUs, "us"},
    };
    for (const auto& [key, value] : c) {
        if (key.rfind("cost.", 0) == 0)
            m.push_back({"sim.events." + key.substr(5),
                         ratio(static_cast<double>(value), units),
                         "per_unit"});
    }
    if (!traced.empty()) {
        const Counts& t = traced.front().traceTotals;
        for (trace::Category cat : tracedCategories) {
            std::string base =
                std::string("trace.") + trace::categoryName(cat);
            m.push_back({base + ".spans",
                         ratio(valueOf(t, base + ".spans"), units),
                         "per_unit"});
            m.push_back({base + ".cycles",
                         ratio(valueOf(t, base + ".cycles"), units),
                         "cycles/unit"});
        }
        m.push_back({"trace.overhead_pct",
                     (ratio(median(ups), median(traced_ups)) - 1) * 100,
                     "%"});
    }
    return m;
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10;
    bool trace = false;
    std::string outDir = ".";
    bool corruptExpectation = false;
};

/** Fewest timed rounds a run reports percentiles over. */
constexpr std::size_t minTimedRounds = 100;

/** A run stops starting epochs after this long, whatever else holds. */
constexpr double hardCapSeconds = 120;

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload tenants|fileserve|paging "
                 "[--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR] "
                 "[--corrupt-expectation]\n");
    return 2;
}

std::optional<Options>
parse(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        if (auto eq = arg.find('='); eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg.resize(eq);
        } else if (arg != "--corrupt-expectation") {
            if (i + 1 >= argc)
                return std::nullopt;
            value = argv[++i];
        }
        if (arg == "--workload")
            o.workload = value;
        else if (arg == "--seed")
            o.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::strtod(value.c_str(), nullptr);
        else if (arg == "--trace")
            o.trace = value != "0";
        else if (arg == "--out-dir")
            o.outDir = value;
        else if (arg == "--corrupt-expectation")
            o.corruptExpectation = true;
        else
            return std::nullopt;
    }
    if (o.workload.empty() || !(o.seconds > 0))
        return std::nullopt;
    return o;
}

int
run(const Options& opt)
{
    std::unique_ptr<Workload> wl = makeWorkload(opt.workload, opt.seed);
    if (wl == nullptr)
        return usage();
    HostSpans spans(opt.trace);
    const std::string out_base =
        opt.outDir + "/perfbench." + opt.workload;

    EpochSpec native_spec;
    native_spec.cloaked = false;
    Epoch native = runEpoch(*wl, native_spec, spans);
    wl->freezeExpectations();
    if (opt.corruptExpectation)
        wl->corruptExpectation();

    std::vector<Epoch> timed, traced;
    std::size_t timed_rounds = 0;
    const auto start = Clock::now();
    for (;;) {
        timed.push_back(runEpoch(*wl, {}, spans));
        timed_rounds += timed.back().roundSeconds.size();
        if (opt.trace) {
            EpochSpec spec;
            spec.traced = true;
            if (traced.empty())
                spec.traceOut = out_base;
            traced.push_back(runEpoch(*wl, spec, spans));
        }
        double elapsed = secondsBetween(start, Clock::now());
        if ((elapsed >= opt.seconds && timed_rounds >= minTimedRounds) ||
            elapsed >= hardCapSeconds)
            break;
    }
    // Peak memory of the workload as users run it, before the guard
    // epoch's serial crypto path can add to it.
    const double peak_rss_mib = peakRssMib();
    EpochSpec serial_spec;
    serial_spec.cryptoWorkers = 1;
    Epoch serial = runEpoch(*wl, serial_spec, spans);

    std::uint64_t attempted = native.attempted + serial.attempted;
    std::uint64_t failed = native.failed + serial.failed;
    std::uint64_t guard_failures = 0;
    auto guard = [&](const Epoch& e, const char* what) {
        std::string why = divergence(timed.front(), e);
        if (!why.empty()) {
            std::fprintf(stderr, "determinism guard: %s epoch differs in %s\n",
                         what, why.c_str());
            ++guard_failures;
        }
    };
    for (const Epoch& e : timed) {
        attempted += e.attempted;
        failed += e.failed;
        guard(e, "repeat");
    }
    for (const Epoch& e : traced) {
        attempted += e.attempted;
        failed += e.failed;
        guard(e, "traced");
    }
    guard(serial, "cryptoWorkers=1");
    failed += guard_failures;

    std::printf("perfbench %s seed=%llu: %zu timed epochs, %zu rounds, "
                "%llu units checked, %llu failed (failed_frac %.6f), "
                "%llu determinism-guard failures\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), timed.size(),
                timed_rounds, static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                static_cast<unsigned long long>(guard_failures));

    std::vector<Metric> metrics;
    if (opt.trace) {
        Probes probes = runProbes(spans);
        metrics = perLayerMetrics(timed, traced, probes);
        if (!spans.write(out_base + ".host.trace.json"))
            std::fprintf(stderr, "perfbench: cannot write host spans to "
                                 "%s\n",
                         out_base.c_str());
    } else {
        metrics = endToEndMetrics(timed, native, peak_rss_mib);
    }
    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}

} // namespace

} // namespace osh::perfbench

int
main(int argc, char** argv)
{
    auto opt = osh::perfbench::parse(argc, argv);
    if (!opt)
        return osh::perfbench::usage();
    // One malloc arena: otherwise which host threads (guest threads,
    // crypto workers) happen to get arenas of their own moves the
    // resident set by megabytes from run to run.
    mallopt(M_ARENA_MAX, 1);
    try {
        return osh::perfbench::run(*opt);
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "perfbench: %s\n", ex.what());
        return 1;
    }
}
