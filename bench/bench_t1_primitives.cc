/**
 * @file
 * Table T1 — cloaking primitive costs.
 *
 * Reproduces the paper's microbenchmark table of the basic Overshadow
 * operations: page encryption (dirty), decryption + integrity
 * verification, the clean-page re-encryption optimization, shadow page
 * table fill, a VMM world switch, and metadata cache hit/miss — plus
 * the shadow-resolution fast paths added on top of the paper's design
 * (suspended-shadow revalidation and the re-encryption victim cache).
 *
 * Each primitive is defined once and measured in simulated cycles per
 * operation by a fixed warmup+measure loop, so the result is
 * bit-reproducible across hosts. The table is printed and written to
 * BENCH_t1_primitives.json for the perf-regression harness
 * (bench/compare.py). Host-side AES-CTR/SHA-256 page throughput lives
 * in bench_crypto.
 */

#include "bench_common.hh"

#include "cloak/engine.hh"
#include "sim/machine.hh"
#include "vmm/vcpu.hh"
#include "vmm/vmm.hh"

#include <functional>
#include <map>
#include <span>

namespace
{

using namespace osh;

/** Minimal guest OS for driving the engine directly. */
class BenchOs : public vmm::GuestOsHooks
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
    handleGuestPageFault(vmm::Vcpu&, GuestVA, vmm::AccessType) override
    {
        osh_panic("unexpected guest fault in bench harness");
    }

  private:
    std::map<std::pair<Asid, GuestVA>, vmm::GuestPte> ptes_;
};

/** Engine harness shared by the primitive benchmarks. */
struct Harness
{
    explicit Harness(bool fast_path = true)
        : machine(sim::MachineConfig{512, 1, {}}), vmm(machine, 512),
          engine(vmm, 7, 4096)
    {
        vmm.setGuestOs(&os);
        vmm.setShadowRetention(fast_path);
        engine.setVictimCacheCapacity(fast_path ? 8 : 0);
        domain = engine.createDomain(appAsid, 1,
                                     cloak::programIdentity("bench"));
        os.map(appAsid, appVa, gpa);
        os.map(0, kernelVa, gpa);
        engine.registerRegion(domain, appVa, 1);
    }

    vmm::Vcpu
    appCpu()
    {
        return vmm::Vcpu(vmm, vmm::Context{appAsid, domain, false});
    }

    vmm::Vcpu
    kernelCpu()
    {
        return vmm::Vcpu(vmm, vmm::Context{0, systemDomain, true});
    }

    static constexpr Asid appAsid = 3;
    static constexpr GuestVA appVa = 0x10000;
    static constexpr Gpa gpa = 0x4000;
    static constexpr GuestVA kernelVa = 0x0000'8000'0000'0000ull + gpa;

    sim::Machine machine;
    vmm::Vmm vmm;
    cloak::CloakEngine engine;
    BenchOs os;
    DomainId domain = 0;
};

/** Per-run state a primitive operates on. */
struct Ctx
{
    explicit Ctx(bool fast_path)
        : h(fast_path), app(h.appCpu()), kernel(h.kernelCpu())
    {
    }

    Harness h;
    vmm::Vcpu app;
    vmm::Vcpu kernel;
    std::uint64_t scratch = 0;
    cloak::Resource* res = nullptr;
};

/**
 * One measured primitive. `prep` runs before every measured `op` and
 * is excluded from the timing; `init` runs once after construction.
 */
struct Primitive
{
    const char* name;
    bool fastPath;
    std::function<void(Ctx&)> init;
    std::function<void(Ctx&)> prep;
    std::function<void(Ctx&)> op;
};

/** Pages backing the async-eviction primitive: enough that the fixed
 *  warmup+measure loop (72 evictions) never revisits a sealed page. */
constexpr std::uint64_t asyncBenchPages = 128;

/** Drops retired async evictions: the bench times the enqueue only. */
struct DiscardSink : vmm::EvictionSink
{
    void
    commitEviction(std::uint64_t, std::uint64_t,
                   std::span<const std::uint8_t>) override
    {
    }
} discardSink;

const std::vector<Primitive>&
primitives()
{
    static const std::vector<Primitive> prims = {
        {"page_encrypt_dirty", false,
         nullptr,
         [](Ctx& c) { c.app.store64(Harness::appVa, ++c.scratch); },
         [](Ctx& c) { c.kernel.load64(Harness::kernelVa); }},

        // Raw decrypt + integrity verification (fast paths off so the
        // full SHA-256 + AES cost is visible, as in the paper).
        {"page_decrypt_verify", false,
         [](Ctx& c) { c.app.store64(Harness::appVa, 1); },
         [](Ctx& c) { c.kernel.load64(Harness::kernelVa); },
         [](Ctx& c) { c.app.store64(Harness::appVa, 2); }},

        // Clean-page re-encryption: AES under the stored IV, no hash.
        {"clean_reencrypt", false,
         [](Ctx& c) {
             c.app.store64(Harness::appVa, 1);
             c.kernel.load64(Harness::kernelVa);
         },
         [](Ctx& c) { c.app.load64(Harness::appVa); },
         [](Ctx& c) { c.kernel.load64(Harness::kernelVa); }},

        // Victim-cache hits: the same kernel<->app ping-pong with the
        // fast path on skips AES and SHA entirely.
        {"victim_reencrypt", true,
         [](Ctx& c) {
             c.app.store64(Harness::appVa, 1);
             c.kernel.load64(Harness::kernelVa);
         },
         [](Ctx& c) { c.app.load64(Harness::appVa); },
         [](Ctx& c) { c.kernel.load64(Harness::kernelVa); }},

        {"victim_decrypt", true,
         [](Ctx& c) {
             c.app.store64(Harness::appVa, 1);
             c.kernel.load64(Harness::kernelVa);
         },
         [](Ctx& c) { c.kernel.load64(Harness::kernelVa); },
         [](Ctx& c) { c.app.load64(Harness::appVa); }},

        // Full shadow-page-table fill after a true invalidation.
        {"shadow_fill", true,
         [](Ctx& c) { c.app.store64(Harness::appVa, 1); },
         [](Ctx& c) {
             c.h.vmm.shadows().invalidateVa(Harness::appAsid,
                                            Harness::appVa);
             c.h.vmm.tlb(0).invalidateVa(Harness::appAsid,
                                         Harness::appVa);
         },
         [](Ctx& c) { c.app.load64(Harness::appVa); }},

        // Revalidation of a suspended shadow entry (retention hit):
        // the translation survived a cloaking-state flip.
        {"shadow_revalidate", true,
         [](Ctx& c) { c.app.store64(Harness::appVa, 1); },
         [](Ctx& c) {
             c.h.vmm.suspendMpa(
                 c.h.vmm.pmap().translate(Harness::gpa));
         },
         [](Ctx& c) { c.app.load64(Harness::appVa); }},

        {"world_switch_hypercall", true,
         nullptr,
         nullptr,
         [](Ctx& c) {
             std::array<std::uint64_t, 1> a{
                 vmm::introspectTimingHardening};
             c.app.hypercall(vmm::Hypercall::CloakIntrospect, a);
         }},

        {"metadata_cache_hit", true,
         [](Ctx& c) {
             c.res = &c.h.engine.metadata().createResource(c.h.domain);
             c.h.engine.metadata().page(*c.res, 0); // warm
         },
         nullptr,
         [](Ctx& c) { c.h.engine.metadata().page(*c.res, 0); }},

        // Asynchronous eviction enqueue: the critical-path cost of
        // handing a dirty cloaked frame back to the kernel while the
        // seal + swap write ride the background lane (depth 256, so
        // the fixed loop never fills the queue or drains).
        {"page_encrypt_dirty_async", false,
         [](Ctx& c) {
             c.h.engine.setAsyncEvictDepth(256);
             for (std::uint64_t i = 1; i <= asyncBenchPages; ++i)
                 c.h.os.map(Harness::appAsid,
                            Harness::appVa + i * pageSize,
                            Harness::gpa + i * pageSize);
             c.h.engine.registerRegion(c.h.domain,
                                       Harness::appVa + pageSize,
                                       asyncBenchPages);
         },
         [](Ctx& c) {
             std::uint64_t i = 1 + c.scratch % asyncBenchPages;
             c.app.store64(Harness::appVa + i * pageSize,
                           c.scratch + 1);
         },
         [](Ctx& c) {
             std::uint64_t i = 1 + c.scratch % asyncBenchPages;
             bool queued = c.h.engine.evictPageAsync(
                 Harness::gpa + i * pageSize, discardSink, 0, 0);
             osh_assert(queued, "async enqueue refused in bench");
             ++c.scratch;
         }},

        {"metadata_cache_miss", true,
         [](Ctx& c) {
             c.h.engine.metadata().setCacheCapacity(1);
             c.res = &c.h.engine.metadata().createResource(c.h.domain);
         },
         nullptr,
         [](Ctx& c) {
             c.h.engine.metadata().page(*c.res, c.scratch);
             c.scratch = (c.scratch + 1) % 64; // never reuse the cache
         }},

        // --- Timing-hardened series (docs/threat-model.md) ---
        // The same primitives with constant-cost cloak responses on:
        // every secret-dependent fast path charges its worst-case
        // sibling, so the hardened cost is the overhead a defender
        // pays to close the timing oracles. The dirty seal is already
        // the worst case, so hardening adds only the metadata
        // hit-charged-as-miss delta to it — and the clean/victim
        // paths must land on exactly the same hardened cost (that
        // equality IS the defense).
        {"hardened_page_encrypt_dirty", false,
         [](Ctx& c) { c.h.engine.setConstantCostMode(true); },
         [](Ctx& c) { c.app.store64(Harness::appVa, ++c.scratch); },
         [](Ctx& c) { c.kernel.load64(Harness::kernelVa); }},

        {"hardened_clean_reencrypt", false,
         [](Ctx& c) {
             c.h.engine.setConstantCostMode(true);
             c.app.store64(Harness::appVa, 1);
             c.kernel.load64(Harness::kernelVa);
         },
         [](Ctx& c) { c.app.load64(Harness::appVa); },
         [](Ctx& c) { c.kernel.load64(Harness::kernelVa); }},

        {"hardened_victim_reencrypt", true,
         [](Ctx& c) {
             c.h.engine.setConstantCostMode(true);
             c.app.store64(Harness::appVa, 1);
             c.kernel.load64(Harness::kernelVa);
         },
         [](Ctx& c) { c.app.load64(Harness::appVa); },
         [](Ctx& c) { c.kernel.load64(Harness::kernelVa); }},

        {"hardened_victim_decrypt", true,
         [](Ctx& c) {
             c.h.engine.setConstantCostMode(true);
             c.app.store64(Harness::appVa, 1);
             c.kernel.load64(Harness::kernelVa);
         },
         [](Ctx& c) { c.kernel.load64(Harness::kernelVa); },
         [](Ctx& c) { c.app.load64(Harness::appVa); }},

        {"hardened_metadata_cache_hit", true,
         [](Ctx& c) {
             c.h.engine.setConstantCostMode(true);
             c.res = &c.h.engine.metadata().createResource(c.h.domain);
             c.h.engine.metadata().page(*c.res, 0); // warm
         },
         nullptr,
         [](Ctx& c) { c.h.engine.metadata().page(*c.res, 0); }},
    };
    return prims;
}

/**
 * Deterministic measurement: fixed warmup + fixed iteration count, so
 * the average is independent of host speed and bit-identical across
 * runs. These are the numbers BENCH_t1_primitives.json records.
 */
std::uint64_t
fixedCyclesPerOp(const Primitive& p)
{
    constexpr int warmup = 8;
    constexpr int iters = 64;
    Ctx ctx(p.fastPath);
    if (p.init)
        p.init(ctx);
    for (int i = 0; i < warmup; ++i) {
        if (p.prep)
            p.prep(ctx);
        p.op(ctx);
    }
    Cycles total = 0;
    for (int i = 0; i < iters; ++i) {
        if (p.prep)
            p.prep(ctx);
        Cycles before = ctx.h.machine.cost().cycles();
        p.op(ctx);
        total += ctx.h.machine.cost().cycles() - before;
    }
    return total / iters;
}

} // namespace

int
main()
{
    osh::bench::header("Table T1: cloaking primitive costs "
                       "(simulated cycles/op)");
    osh::bench::BenchReport report("t1_primitives");
    for (const Primitive& p : primitives()) {
        std::uint64_t cycles = fixedCyclesPerOp(p);
        std::printf("%-30s %10llu\n", p.name,
                    static_cast<unsigned long long>(cycles));
        report.set(std::string(p.name) + ".sim_cycles", cycles);
    }
    report.write();
    return 0;
}
