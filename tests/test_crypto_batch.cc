/**
 * @file
 * Batched page-crypto API equivalence tests.
 *
 * The contract of CloakEngine::encryptPages is that batching is
 * purely an amortization: the bytes written, the metadata transitions
 * (versions, IVs, hashes, states), the victim-cache contents and the
 * simulated cycles charged are all identical to the equivalent
 * per-page sequence. These tests pin that
 * down by running two identically-constructed harnesses side by side
 * — one batched, one sequential — and comparing everything observable.
 * Sealed pages come back through the app's view (a fault-driven
 * decrypt + verify, the only decrypt path there is).
 *
 * The same contract extends to the crypto worker pool: workers=N is
 * purely a host-side speedup, so the Parallel* tests compare a
 * multi-lane engine against a serial one and require byte-, cycle-
 * and trace-identical results, with constant-cost mode off and on.
 */

#include "cloak/engine.hh"
#include "sim/machine.hh"
#include "trace/trace.hh"
#include "vmm/vcpu.hh"
#include "vmm/vmm.hh"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace osh::cloak
{
namespace
{

constexpr std::uint64_t numPages = 4;

/** Sum of the marker words dirtyAll() writes with salt 0. */
constexpr std::uint64_t markerSum = numPages * 0xfeed0000ull + 0 + 1 + 2 + 3;

/** Guest OS stub: fixed page tables, no fault handling. */
class FakeOs : public vmm::GuestOsHooks
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
    handleGuestPageFault(vmm::Vcpu&, GuestVA va, vmm::AccessType) override
    {
        throw vmm::ProcessKilled{
            0, formatString("unexpected guest fault at 0x%llx",
                            static_cast<unsigned long long>(va))};
    }

  private:
    std::map<std::pair<Asid, GuestVA>, vmm::GuestPte> ptes_;
};

/**
 * Machine + VMM + engine + one domain with a `numPages`-page cloaked
 * region. Two instances built with the same knobs share every seed, so
 * any divergence between them is caused by the operations applied, not
 * the environment.
 */
struct Harness
{
    explicit Harness(std::size_t victim_entries = 0,
                     bool tracing = false)
        : machine(sim::MachineConfig{256, 7, trace::TraceConfig{tracing}}),
          vmm(machine, 256), engine(vmm, 99, 64)
    {
        vmm.setGuestOs(&os);
        engine.setVictimCacheCapacity(victim_entries);
        domain = engine.createDomain(appAsid, 5,
                                     programIdentity("victim"));
        for (std::uint64_t i = 0; i < numPages; ++i) {
            os.map(appAsid, appVa + i * pageSize, gpa0 + i * pageSize);
            os.map(0, kernelVaOf(gpa0 + i * pageSize),
                   gpa0 + i * pageSize);
        }
        resource = engine.registerRegion(domain, appVa, numPages).value();
    }

    static GuestVA kernelVaOf(Gpa g) { return 0x800000000000ull + g; }

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

    /** Write one marker word into each page through the app's view. */
    void
    dirtyAll(std::uint64_t salt = 0)
    {
        auto app = appCpu();
        for (std::uint64_t i = 0; i < numPages; ++i)
            app.store64(appVa + i * pageSize, 0xfeed0000 + salt + i);
    }

    /** Read each page back through the app's view, faulting sealed
     *  pages in clean; returns the sum of the marker words. */
    std::uint64_t
    loadAll()
    {
        auto app = appCpu();
        std::uint64_t sum = 0;
        for (std::uint64_t i = 0; i < numPages; ++i)
            sum += app.load64(appVa + i * pageSize);
        return sum;
    }

    Resource&
    res()
    {
        Resource* r = engine.metadata().lookup(resource).valueOr(nullptr);
        EXPECT_NE(r, nullptr);
        return *r;
    }

    /** Work items covering all pages, metadata freshly looked up. */
    std::vector<PageCryptoItem>
    allItems()
    {
        Resource& r = res();
        std::vector<PageCryptoItem> items;
        for (std::uint64_t i = 0; i < numPages; ++i)
            items.push_back({i, &engine.metadata().page(r, i)});
        return items;
    }

    std::vector<std::uint8_t>
    rawFrame(std::uint64_t page)
    {
        auto span = machine.memory().framePlain(
            vmm.pmap().translate(gpa0 + page * pageSize));
        return {span.begin(), span.end()};
    }

    static constexpr Asid appAsid = 5;
    static constexpr GuestVA appVa = 0x10000;
    static constexpr Gpa gpa0 = 0x3000;

    sim::Machine machine;
    vmm::Vmm vmm;
    CloakEngine engine;
    FakeOs os;
    DomainId domain = 0;
    ResourceId resource = 0;
};

/** Everything observable about one page after an operation. */
struct PageObservation
{
    std::vector<std::uint8_t> frame;
    PageState state;
    crypto::Iv iv;
    crypto::Digest hash;
    std::uint64_t version;

    bool
    operator==(const PageObservation& o) const
    {
        return frame == o.frame && state == o.state && iv == o.iv &&
               hash == o.hash && version == o.version;
    }
};

PageObservation
observe(Harness& h, std::uint64_t page)
{
    Resource& r = h.res();
    // Peek at the metadata map directly: no cache charge, so observing
    // never perturbs the cycle comparison.
    const PageMeta& meta = r.pages.at(page);
    return {h.rawFrame(page), meta.state, meta.iv, meta.hash,
            meta.version};
}

TEST(CryptoBatch, EncryptMatchesSequential)
{
    Harness batched, sequential;
    batched.dirtyAll();
    sequential.dirtyAll();

    auto bi = batched.allItems();
    batched.engine.encryptPages(batched.res(), bi);

    auto si = sequential.allItems();
    for (std::uint64_t i = 0; i < numPages; ++i)
        sequential.engine.encryptPages(
            sequential.res(),
            std::span<const PageCryptoItem>(&si[i], 1));

    for (std::uint64_t i = 0; i < numPages; ++i) {
        PageObservation b = observe(batched, i);
        EXPECT_EQ(b, observe(sequential, i)) << "page " << i;
        EXPECT_EQ(b.state, PageState::Encrypted);
        EXPECT_EQ(b.version, 1u);
    }
    EXPECT_EQ(batched.machine.cost().cycles(),
              sequential.machine.cost().cycles());
    EXPECT_EQ(batched.engine.stats().value("batch_encrypt_pages"),
              numPages);
}

TEST(CryptoBatch, DirtyReencryptionBumpsVersionsAndIvs)
{
    Harness h;
    h.dirtyAll(0);
    auto items = h.allItems();
    h.engine.encryptPages(h.res(), items);
    std::vector<PageObservation> first;
    for (std::uint64_t i = 0; i < numPages; ++i)
        first.push_back(observe(h, i));

    // Fault the pages back in as writable and re-dirty them.
    h.dirtyAll(0x100);
    auto again = h.allItems();
    h.engine.encryptPages(h.res(), again);

    for (std::uint64_t i = 0; i < numPages; ++i) {
        PageObservation second = observe(h, i);
        EXPECT_EQ(second.version, 2u) << "page " << i;
        EXPECT_NE(second.iv, first[i].iv) << "page " << i;
        EXPECT_NE(second.hash, first[i].hash) << "page " << i;
        EXPECT_NE(second.frame, first[i].frame) << "page " << i;
    }
}

TEST(CryptoBatch, VictimCacheServesBatchedRoundTrips)
{
    Harness h(8);
    h.dirtyAll();
    auto items = h.allItems();
    h.engine.encryptPages(h.res(), items); // fills the victim cache

    EXPECT_EQ(h.loadAll(), markerSum);
    EXPECT_EQ(h.engine.stats().value("victim_decrypt_hits"),
              numPages);
    for (std::uint64_t i = 0; i < numPages; ++i)
        EXPECT_EQ(observe(h, i).state, PageState::PlaintextClean);

    // Clean pages going back out: deterministic re-encryption served
    // from the cache, bytes identical to the first seal.
    std::vector<PageObservation> sealed;
    for (std::uint64_t i = 0; i < numPages; ++i)
        sealed.push_back(observe(h, i));
    auto out = h.allItems();
    h.engine.encryptPages(h.res(), out);
    EXPECT_EQ(h.engine.stats().value("victim_reencrypt_hits"),
              numPages);
    for (std::uint64_t i = 0; i < numPages; ++i) {
        PageObservation o = observe(h, i);
        EXPECT_EQ(o.version, 1u);
        EXPECT_EQ(o.iv, sealed[i].iv);
        EXPECT_EQ(o.hash, sealed[i].hash);
    }
}

TEST(CryptoBatch, KernelViewLoadsSealEachPageOnce)
{
    // A kernel-view load is the one way a dirty cloaked frame is
    // sealed for the kernel: each page once, however often the kernel
    // reads it, with the ciphertext, metadata and total cycles of one
    // encryptPages batch of the same pages.
    Harness batched, faulted;
    batched.dirtyAll();
    faulted.dirtyAll();
    auto items = batched.allItems();
    batched.engine.encryptPages(batched.res(), items);

    for (Harness* h : {&batched, &faulted}) {
        auto k = h->kernelCpu();
        for (int pass = 0; pass < 2; ++pass)
            for (std::uint64_t i = 0; i < numPages; ++i)
                k.load64(Harness::kernelVaOf(Harness::gpa0 + i * pageSize));
    }

    for (std::uint64_t i = 0; i < numPages; ++i)
        EXPECT_EQ(observe(faulted, i), observe(batched, i))
            << "page " << i;
    EXPECT_EQ(faulted.machine.cost().cycles(),
              batched.machine.cost().cycles());
    EXPECT_EQ(faulted.engine.stats().value("foreign_plaintext_seals"),
              numPages);
    EXPECT_EQ(faulted.engine.stats().value("page_encrypts"), numPages);
    EXPECT_EQ(batched.engine.stats().value("foreign_plaintext_seals"),
              0u);
}

/**
 * Field-by-field trace comparison. Event order matters: the parallel
 * merge must flush events in submission order, so the rings have to be
 * identical streams, not just equal multisets.
 */
void
expectTracesEqual(const Harness& parallel, const Harness& serial)
{
    auto pe = parallel.machine.tracer().buffer().snapshot();
    auto se = serial.machine.tracer().buffer().snapshot();
    ASSERT_EQ(pe.size(), se.size());
    for (std::size_t i = 0; i < pe.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "event " << i);
        EXPECT_EQ(pe[i].category, se[i].category);
        EXPECT_STREQ(pe[i].name, se[i].name);
        EXPECT_EQ(pe[i].domain, se[i].domain);
        EXPECT_EQ(pe[i].pid, se[i].pid);
        EXPECT_EQ(pe[i].begin, se[i].begin);
        EXPECT_EQ(pe[i].end, se[i].end);
        EXPECT_EQ(pe[i].arg0, se[i].arg0);
        EXPECT_EQ(pe[i].arg1, se[i].arg1);
    }
}

TEST(CryptoBatch, ParallelEncryptMatchesSerial)
{
    Harness parallel(0, true), serial(0, true);
    parallel.engine.setCryptoWorkers(8);
    ASSERT_EQ(parallel.engine.cryptoWorkers(), 8u);
    ASSERT_EQ(serial.engine.cryptoWorkers(), 1u);

    parallel.dirtyAll();
    serial.dirtyAll();

    auto pi = parallel.allItems();
    parallel.engine.encryptPages(parallel.res(), pi);
    auto si = serial.allItems();
    serial.engine.encryptPages(serial.res(), si);

    for (std::uint64_t i = 0; i < numPages; ++i)
        EXPECT_EQ(observe(parallel, i), observe(serial, i))
            << "page " << i;
    EXPECT_EQ(parallel.machine.cost().cycles(),
              serial.machine.cost().cycles());
    expectTracesEqual(parallel, serial);
}

TEST(CryptoBatch, ParallelVictimCacheHitsMatchSerial)
{
    // Victim-cache capacity (8) below 2 * numPages keeps LRU eviction
    // order load-bearing: any reordering of finds/inserts between the
    // lanes would change which entries survive and the hit counters.
    // Constant-cost mode re-prices the victim and clean re-encrypts,
    // so it must be just as invisible to the worker count.
    for (bool constant_cost : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "constant_cost=" << constant_cost);
        Harness parallel(8, true), serial(8, true);
        parallel.engine.setCryptoWorkers(8);

        for (Harness* h : {&parallel, &serial}) {
            h->engine.setConstantCostMode(constant_cost);
            h->dirtyAll();
            auto seal = h->allItems();
            h->engine.encryptPages(h->res(), seal);
            EXPECT_EQ(h->loadAll(), markerSum);
            auto out = h->allItems();
            h->engine.encryptPages(h->res(), out);
        }

        EXPECT_EQ(
            serial.engine.stats().value("victim_reencrypt_hits"),
            numPages);
        for (const char* counter :
             {"victim_decrypt_hits", "victim_reencrypt_hits",
              "clean_reencrypts", "page_encrypts", "page_decrypts"}) {
            EXPECT_EQ(parallel.engine.stats().value(counter),
                      serial.engine.stats().value(counter))
                << counter;
        }
        for (std::uint64_t i = 0; i < numPages; ++i)
            EXPECT_EQ(observe(parallel, i), observe(serial, i))
                << "page " << i;
        EXPECT_EQ(parallel.machine.cost().cycles(),
                  serial.machine.cost().cycles());
        expectTracesEqual(parallel, serial);
    }
}

} // namespace
} // namespace osh::cloak
