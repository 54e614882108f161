/**
 * @file
 * Property-based (parameterized) tests of the cloaking invariants.
 *
 * Rather than scripted scenarios, these run randomized operation
 * sequences — application reads/writes, kernel touches, simulated
 * swap relocations, cross-domain interference — across many seeds and
 * sizes, checking after every step that:
 *   - the application always reads exactly what it last wrote
 *     (consistency / integrity),
 *   - the kernel never observes a plaintext value the application
 *     stored (privacy),
 *   - foreign domains never observe plaintext either (isolation).
 */

#include "base/rng.hh"
#include "cloak/engine.hh"
#include "sim/machine.hh"
#include "system/system.hh"
#include "vmm/vcpu.hh"
#include "workloads/workloads.hh"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

namespace osh
{
namespace
{

/** Fake guest OS with mutable mappings (see test_engine.cc). */
class PropOs : public vmm::GuestOsHooks
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
            0, formatString("unexpected fault 0x%llx",
                            static_cast<unsigned long long>(va))};
    }

  private:
    std::map<std::pair<Asid, GuestVA>, vmm::GuestPte> ptes_;
};

/** Random-walk over the page state machine, one test per seed. */
class StateMachineWalk : public ::testing::TestWithParam<int>
{
};

TEST_P(StateMachineWalk, AppViewAlwaysConsistent)
{
    const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
    Rng rng(seed);

    sim::Machine machine(sim::MachineConfig{512, seed, {}});
    vmm::Vmm vmm(machine, 512);
    cloak::CloakEngine engine(vmm, seed, 256);
    PropOs os;
    vmm.setGuestOs(&os);

    constexpr Asid appAsid = 4;
    constexpr std::uint64_t numPages = 4;
    constexpr GuestVA base = 0x40000;
    DomainId domain = engine.createDomain(
        appAsid, 4, cloak::programIdentity("walker"));
    std::vector<Gpa> gpas;
    std::vector<Gpa> altGpas; // private migration target per page
    for (std::uint64_t p = 0; p < numPages; ++p) {
        Gpa g = 0x10000 + p * pageSize;
        gpas.push_back(g);
        altGpas.push_back(0x80000 + p * pageSize);
        os.map(appAsid, base + p * pageSize, g);
        os.map(0, 0x0000'8000'0000'0000ull + g, g);
    }
    engine.registerRegion(domain, base, numPages);

    vmm::Vcpu app(vmm, vmm::Context{appAsid, domain, false});
    vmm::Vcpu kernel(vmm, vmm::Context{0, systemDomain, true});

    // Expected app-visible value of word 0 of each page (0 = untouched
    // => zero-fill guarantees zero).
    std::vector<std::uint64_t> expected(numPages, 0);
    std::set<std::uint64_t> secrets;

    for (int step = 0; step < 400; ++step) {
        std::uint64_t p = rng.nextBounded(numPages);
        GuestVA va = base + p * pageSize;
        GuestVA kva = 0x0000'8000'0000'0000ull + gpas[p];
        switch (rng.nextBounded(4)) {
          case 0: { // app write
            std::uint64_t v = rng.next64() | 1;
            app.store64(va, v);
            expected[p] = v;
            secrets.insert(v);
            break;
          }
          case 1: // app read
            ASSERT_EQ(app.load64(va), expected[p])
                << "seed " << seed << " step " << step;
            break;
          case 2: { // benign kernel touch: must never see a secret
            std::uint64_t seen = kernel.load64(kva);
            EXPECT_EQ(secrets.count(seen), 0u)
                << "kernel saw plaintext at step " << step;
            break;
          }
          case 3: { // kernel page migration: move ciphertext to the
                    // page's alternate frame and remap (models
                    // swap-out + swap-in).
            kernel.load64(kva); // force encryption
            std::vector<std::uint8_t> cipher(pageSize);
            machine.memory().read(vmm.pmap().translate(gpas[p]),
                                  cipher);
            Gpa fresh = altGpas[p];
            machine.memory().write(vmm.pmap().translate(fresh), cipher);
            std::swap(gpas[p], altGpas[p]);
            os.map(appAsid, va, fresh);
            os.map(0, 0x0000'8000'0000'0000ull + fresh, fresh);
            vmm.invalidateVa(appAsid, va);
            break;
          }
        }
    }
    // Everything still verifies at the end.
    for (std::uint64_t p = 0; p < numPages; ++p)
        EXPECT_EQ(app.load64(base + p * pageSize), expected[p]);
    EXPECT_EQ(engine.stats().value("violations"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateMachineWalk,
                         ::testing::Range(1, 13));

/** Cross-domain isolation under random interleaving. */
class IsolationWalk : public ::testing::TestWithParam<int>
{
};

TEST_P(IsolationWalk, DomainsNeverSeeEachOther)
{
    const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
    Rng rng(seed ^ 0xD0D0);

    sim::Machine machine(sim::MachineConfig{512, seed, {}});
    vmm::Vmm vmm(machine, 512);
    cloak::CloakEngine engine(vmm, seed, 256);
    PropOs os;
    vmm.setGuestOs(&os);

    struct Party
    {
        Asid asid;
        DomainId domain;
        GuestVA va;
        Gpa gpa;
        std::uint64_t value = 0;
    };
    Party a{10, 0, 0x50000, 0x20000, 0};
    Party b{11, 0, 0x60000, 0x21000, 0};
    a.domain = engine.createDomain(a.asid, 10,
                                   cloak::programIdentity("alice"));
    b.domain = engine.createDomain(b.asid, 11,
                                   cloak::programIdentity("bob"));
    for (Party* p : {&a, &b}) {
        os.map(p->asid, p->va, p->gpa);
        engine.registerRegion(p->domain, p->va, 1);
        // Malicious kernel also maps the *other* party's frame into
        // each address space at va + pageSize.
    }
    os.map(a.asid, a.va + pageSize, b.gpa);
    os.map(b.asid, b.va + pageSize, a.gpa);

    vmm::Vcpu cpu_a(vmm, vmm::Context{a.asid, a.domain, false});
    vmm::Vcpu cpu_b(vmm, vmm::Context{b.asid, b.domain, false});

    for (int step = 0; step < 300; ++step) {
        switch (rng.nextBounded(4)) {
          case 0:
            a.value = rng.next64() | 1;
            cpu_a.store64(a.va, a.value);
            break;
          case 1:
            b.value = rng.next64() | 1;
            cpu_b.store64(b.va, b.value);
            break;
          case 2: { // a peeks at b's frame through the hostile mapping
            std::uint64_t seen = cpu_a.load64(a.va + pageSize);
            if (b.value != 0) {
                EXPECT_NE(seen, b.value) << "isolation broken";
            }
            break;
          }
          case 3: {
            std::uint64_t seen = cpu_b.load64(b.va + pageSize);
            if (a.value != 0) {
                EXPECT_NE(seen, a.value) << "isolation broken";
            }
            break;
          }
        }
        // Own data always intact.
        if (a.value != 0) {
            ASSERT_EQ(cpu_a.load64(a.va), a.value);
        }
        if (b.value != 0) {
            ASSERT_EQ(cpu_b.load64(b.va), b.value);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsolationWalk, ::testing::Range(1, 9));

/**
 * Full-system transparency sweep: every workload, several seeds —
 * native and cloaked runs must produce identical checksums.
 */
class TransparencySweep
    : public ::testing::TestWithParam<std::tuple<const char*, int>>
{
};

TEST_P(TransparencySweep, ResultsMatch)
{
    auto [name, seed] = GetParam();
    const std::map<std::string, std::vector<std::string>> argvs = {
        {"wl.matmul", {"10"}},
        {"wl.sort", {"300"}},
        {"wl.stream", {"16", "2"}},
        {"wl.histogram", {"4096"}},
        {"wl.fileserver", {"32", "10", "1024", "1"}},
        {"wl.memstress", {"40", "2", "1"}},
    };
    const auto& argv = argvs.at(name);

    auto run = [&](bool cloaked) {
        system::SystemConfig cfg;
        cfg.cloakingEnabled = cloaked;
        cfg.guestFrames = 1024;
        cfg.seed = static_cast<std::uint64_t>(seed);
        cfg.preemptOpsPerTick = 5000; // aggressive preemption
        system::System sys(cfg);
        workloads::registerAll(sys);
        auto r = sys.runProgram(name, argv);
        EXPECT_EQ(r.status, 0) << r.killReason;
        return workloads::resultOf(sys, name);
    };

    std::string native = run(false);
    std::string cloaked = run(true);
    ASSERT_FALSE(native.empty());
    EXPECT_EQ(native, cloaked);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransparencySweep,
    ::testing::Combine(
        ::testing::Values("wl.matmul", "wl.sort", "wl.stream",
                          "wl.histogram", "wl.fileserver",
                          "wl.memstress"),
        ::testing::Values(1, 7, 99)));

/**
 * Paging-correctness sweep: cloaked working sets under varying memory
 * pressure always compute correct results (integrity across swap).
 */
class PagingSweep : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(PagingSweep, CloakedResultsSurvivePressure)
{
    auto [frames, seed] = GetParam();
    system::SystemConfig cfg;
    cfg.cloakingEnabled = true;
    cfg.guestFrames = static_cast<std::uint64_t>(frames);
    cfg.seed = static_cast<std::uint64_t>(seed);
    system::System sys(cfg);
    workloads::registerAll(sys);
    auto r = sys.runProgram("wl.memstress", {"96", "3", "1"});
    EXPECT_EQ(r.status, 0) << r.killReason;

    // Reference without pressure.
    system::SystemConfig big = cfg;
    big.guestFrames = 1024;
    system::System ref(big);
    workloads::registerAll(ref);
    ASSERT_EQ(ref.runProgram("wl.memstress", {"96", "3", "1"}).status,
              0);
    EXPECT_EQ(workloads::resultOf(sys, "wl.memstress"),
              workloads::resultOf(ref, "wl.memstress"));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PagingSweep,
    ::testing::Combine(::testing::Values(72, 96, 128),
                       ::testing::Values(3, 17)));

} // namespace
} // namespace osh
