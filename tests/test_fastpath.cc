/**
 * @file
 * Shadow-resolution fast-path tests: ASID-tagged shadow retention, the
 * re-encryption victim cache, SystemConfig::Builder validation, and
 * the bounded audit ring.
 *
 * The retention and victim-cache optimizations are only safe if they
 * are invisible: a retained translation must die with the frame it
 * maps, a fork child must never see the parent's plaintext view, and a
 * cached encrypt result must never be served for a page that was
 * dirtied or tampered with in between. These tests pin each of those
 * edges.
 */

#include "cloak/engine.hh"
#include "sim/machine.hh"
#include "system/system.hh"
#include "vmm/vcpu.hh"
#include "vmm/vmm.hh"
#include "workloads/workloads.hh"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <stdexcept>

namespace osh::cloak
{
namespace
{

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

constexpr Asid appAsid = 5;
constexpr Asid kernelAsid = 0;
constexpr GuestVA appVa = 0x10000;
constexpr Gpa gpa = 0x3000;

inline GuestVA kernelVaOf(Gpa g) { return 0x800000000000ull + g; }

/** Machine + VMM + engine + one cloaked domain, fast path togglable. */
struct Rig
{
    explicit Rig(bool fast_path = true)
        : machine_(sim::MachineConfig{256, 7, {}}),
          vmm_(machine_, 256),
          engine_(vmm_, 99, 64)
    {
        vmm_.setGuestOs(&os_);
        vmm_.setShadowRetention(fast_path);
        engine_.setVictimCacheCapacity(fast_path ? 8 : 0);
        domain_ = engine_.createDomain(appAsid, 5,
                                       programIdentity("victim"));
        os_.map(appAsid, appVa, gpa);
        os_.map(kernelAsid, kernelVaOf(gpa), gpa);
        resource_ = engine_.registerRegion(domain_, appVa, 4).value();
    }

    vmm::Vcpu
    appCpu()
    {
        return vmm::Vcpu(vmm_, vmm::Context{appAsid, domain_, false});
    }

    vmm::Vcpu
    kernelCpu()
    {
        return vmm::Vcpu(vmm_,
                         vmm::Context{kernelAsid, systemDomain, true});
    }

    Mpa frame() { return vmm_.pmap().translate(gpa); }

    sim::Machine machine_;
    vmm::Vmm vmm_;
    CloakEngine engine_;
    FakeOs os_;
    DomainId domain_ = 0;
    ResourceId resource_ = 0;
};

/** Fixture sugar: exposes the default (fast-path-on) rig's members. */
class FastPathTest : public ::testing::Test
{
  protected:
    explicit FastPathTest(bool fast_path = true) : rig_(fast_path) {}

    vmm::Vcpu appCpu() { return rig_.appCpu(); }
    vmm::Vcpu kernelCpu() { return rig_.kernelCpu(); }
    Mpa frame() { return rig_.frame(); }

    Rig rig_;
    sim::Machine& machine_ = rig_.machine_;
    vmm::Vmm& vmm_ = rig_.vmm_;
    CloakEngine& engine_ = rig_.engine_;
    DomainId& domain_ = rig_.domain_;
};

// ---------------------------------------------------------------------
// Shadow retention.
// ---------------------------------------------------------------------

TEST_F(FastPathTest, CloakFlipSuspendsAndReactivatesShadow)
{
    auto app = appCpu();
    auto kernel = kernelCpu();

    app.store64(appVa, 0xfeed);       // plaintext, app shadow installed
    kernel.load64(kernelVaOf(gpa));   // encrypt: app shadow suspended

    EXPECT_GE(vmm_.shadows().suspendedCount(), 1u);
    std::uint64_t fills_before = vmm_.shadows().stats().value("installs");

    // The app resumes: same context, same VA, same frame. The retained
    // entry must revalidate instead of a full shadow fill.
    EXPECT_EQ(app.load64(appVa), 0xfeedu);
    EXPECT_EQ(vmm_.stats().value("retention_hits"), 1u);
    EXPECT_EQ(vmm_.shadows().stats().value("reactivations"), 1u);
    EXPECT_EQ(vmm_.shadows().stats().value("installs"), fills_before);
}

TEST_F(FastPathTest, FrameReclaimDropsSuspendedEntries)
{
    auto app = appCpu();
    auto kernel = kernelCpu();

    app.store64(appVa, 1);
    kernel.load64(kernelVaOf(gpa)); // suspends the app's entry

    // The kernel reclaims the frame (swap-out / reuse): the
    // translation is dead, retention must not survive it.
    vmm_.invalidateMpa(frame());
    EXPECT_EQ(vmm_.shadows().suspendedCount(), 0u);

    // Next access rebuilds from scratch — no reactivation.
    EXPECT_EQ(app.load64(appVa), 1u);
    EXPECT_EQ(vmm_.stats().value("retention_hits"), 0u);
}

TEST_F(FastPathTest, ForkChildDoesNotInheritParentShadow)
{
    // Retention is keyed by full context (asid, view, mode). A fork
    // child — new asid, new domain — must never reactivate the
    // parent's suspended plaintext translation even for the same
    // frame.
    vmm::Context parent{appAsid, domain_, false};
    vmm::Context child{appAsid + 1, domain_ + 1, false};
    vmm::ShadowEntry e{frame(), true, true};

    vmm_.shadows().install(parent, pageBase(appVa), e);
    vmm_.shadows().suspendMpa(frame());
    EXPECT_EQ(vmm_.shadows().suspendedCount(), 1u);

    EXPECT_FALSE(vmm_.shadows().reactivate(child, pageBase(appVa), e));
    EXPECT_FALSE(
        vmm_.shadows().lookup(child, pageBase(appVa)).has_value());
    EXPECT_EQ(vmm_.shadows().entryCount(child.asid), 0u);

    // The parent itself still reactivates.
    EXPECT_TRUE(vmm_.shadows().reactivate(parent, pageBase(appVa), e));
}

class FastPathOffTest : public FastPathTest
{
  protected:
    FastPathOffTest() : FastPathTest(false) {}
};

TEST_F(FastPathOffTest, AblationFlushesOnContextSwitchAndFlip)
{
    auto app = appCpu();
    auto kernel = kernelCpu();

    app.store64(appVa, 1);
    kernel.load64(kernelVaOf(gpa)); // flip: hard invalidation, no park
    EXPECT_EQ(vmm_.shadows().suspendedCount(), 0u);
    EXPECT_EQ(app.load64(appVa), 1u);
    EXPECT_EQ(vmm_.stats().value("retention_hits"), 0u);

    // A context switch throws every shadow away.
    vmm_.onContextSwitch(0);
    EXPECT_EQ(vmm_.shadows().entryCount(), 0u);
    EXPECT_EQ(vmm_.stats().value("switch_flushes"), 1u);
}

TEST_F(FastPathTest, RetentionKeepsShadowsAcrossContextSwitch)
{
    auto app = appCpu();
    app.store64(appVa, 1);
    std::size_t live = vmm_.shadows().entryCount();
    ASSERT_GE(live, 1u);

    vmm_.onContextSwitch(0);
    EXPECT_EQ(vmm_.shadows().entryCount(), live);
    EXPECT_EQ(vmm_.stats().value("switches_retained"), 1u);
    EXPECT_EQ(vmm_.stats().value("switch_flushes"), 0u);
}

TEST_F(FastPathTest, FastPathCostsLessThanAblation)
{
    // The same kernel<->app ping-pong, measured with the fast path on
    // (this fixture's rig) and off (a second rig). On-path must be
    // strictly cheaper in simulated cycles.
    auto ping = [](Rig& r) {
        auto app = r.appCpu();
        auto kernel = r.kernelCpu();
        app.store64(appVa, 1);
        kernel.load64(kernelVaOf(gpa));
        app.load64(appVa); // decrypt; warm victim + retention state
        Cycles before = r.machine_.cost().cycles();
        for (int i = 0; i < 16; ++i) {
            kernel.load64(kernelVaOf(gpa)); // clean re-encrypt
            app.load64(appVa);              // decrypt + verify
        }
        return r.machine_.cost().cycles() - before;
    };

    Cycles fast = ping(rig_);
    Rig slow_rig(false);
    Cycles slow = ping(slow_rig);
    EXPECT_LT(fast, slow);
    EXPECT_GE(engine_.stats().value("victim_reencrypt_hits"), 16u);
    EXPECT_GE(engine_.stats().value("victim_decrypt_hits"), 16u);
}

// ---------------------------------------------------------------------
// Victim cache correctness.
// ---------------------------------------------------------------------

TEST_F(FastPathTest, VictimCacheNeverServesStalePlaintext)
{
    auto app = appCpu();
    auto kernel = kernelCpu();

    app.store64(appVa, 111);
    kernel.load64(kernelVaOf(gpa)); // encrypt v1, victim remembers it
    EXPECT_EQ(app.load64(appVa), 111u);

    // Dirty the page between encrypt and reuse: the next encrypt must
    // produce fresh ciphertext (new version + IV), and the decrypt
    // must return the new value — not the cached v1 plaintext.
    app.store64(appVa, 222);
    kernel.load64(kernelVaOf(gpa));
    EXPECT_EQ(app.load64(appVa), 222u);

    // And the page is still usable through further clean round trips.
    kernel.load64(kernelVaOf(gpa));
    EXPECT_EQ(app.load64(appVa), 222u);
}

TEST_F(FastPathTest, VictimCacheDoesNotMaskTampering)
{
    auto app = appCpu();
    auto kernel = kernelCpu();

    app.store64(appVa, 42);
    kernel.load64(kernelVaOf(gpa)); // encrypt; victim caches result
    app.load64(appVa);              // decrypt; victim caches plaintext
    kernel.load64(kernelVaOf(gpa)); // re-encrypt (victim hit is fine)

    // A malicious kernel flips a byte of ciphertext. The cached-match
    // fast path must miss (frame != cached authentic ciphertext) and
    // the full verification must kill the process.
    kernel.store64(kernelVaOf(gpa), 0xbad);
    EXPECT_THROW(app.load64(appVa), vmm::ProcessKilled);
    EXPECT_GE(engine_.stats().value("violations"), 1u);
}

TEST_F(FastPathTest, VictimCacheEvictsAtCapacity)
{
    engine_.setVictimCacheCapacity(2);
    auto app = appCpu();
    auto kernel = kernelCpu();

    // Every dirty round trip bumps the page version, creating new
    // victim entries; the ring must stay bounded and stay correct.
    for (std::uint64_t i = 1; i <= 5; ++i) {
        app.store64(appVa, i);          // dirty -> fresh version
        kernel.load64(kernelVaOf(gpa)); // encrypt, insert
        EXPECT_EQ(app.load64(appVa), i); // decrypt, insert
        EXPECT_LE(engine_.victimCache().size(), 2u);
    }
}

TEST(VictimCacheTest, ReplacesLeastRecentlyUsed)
{
    VictimCache cache(3);
    for (std::uint64_t page = 1; page <= 3; ++page)
        ASSERT_NE(cache.insert(1, page, 0), nullptr);
    // Keys differ by resource and version too.
    EXPECT_EQ(cache.find(2, 1, 0), nullptr);
    EXPECT_EQ(cache.find(1, 1, 1), nullptr);

    ASSERT_NE(cache.find(1, 1, 0), nullptr); // page 2 is now the oldest
    cache.insert(1, 4, 0);
    EXPECT_EQ(cache.find(1, 2, 0), nullptr);
    EXPECT_EQ(cache.size(), 3u);

    // Re-inserting a resident key refreshes it in place: 1 is oldest.
    VictimCache::Entry* three = cache.insert(1, 3, 0);
    EXPECT_EQ(three, cache.find(1, 3, 0));

    // Shrinking keeps the most recently used entries.
    cache.setCapacity(2);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.find(1, 1, 0), nullptr);
    EXPECT_NE(cache.find(1, 4, 0), nullptr);
    EXPECT_NE(cache.find(1, 3, 0), nullptr);

    cache.setCapacity(0);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.insert(1, 5, 0), nullptr);
}

// ---------------------------------------------------------------------
// SystemConfig::Builder validation.
// ---------------------------------------------------------------------

TEST(BuilderTest, RejectsNonsenseConfigs)
{
    using system::SystemConfig;
    EXPECT_THROW(SystemConfig::Builder{}.guestFrames(0).build(),
                 std::invalid_argument);
    EXPECT_THROW(SystemConfig::Builder{}.metadataCacheEntries(0).build(),
                 std::invalid_argument);
    EXPECT_THROW(SystemConfig::Builder{}
                     .cloaking(false)
                     .victimCacheEntries(4)
                     .build(),
                 std::invalid_argument);
    EXPECT_THROW(SystemConfig::Builder{}.cryptoWorkers(257).build(),
                 std::invalid_argument);
    EXPECT_THROW(SystemConfig::Builder{}
                     .cloaking(false)
                     .cryptoWorkers(8)
                     .build(),
                 std::invalid_argument);
    // 0 (auto) and 1 (serial) are valid with cloaking on or off.
    EXPECT_EQ(SystemConfig::Builder{}.cryptoWorkers(8).build()
                  .cryptoWorkers,
              8u);
    EXPECT_EQ(SystemConfig::Builder{}
                  .cloaking(false)
                  .cryptoWorkers(1)
                  .build()
                  .cryptoWorkers,
              1u);
}

TEST(BuilderTest, BuildsValidatedConfig)
{
    auto cfg = system::SystemConfig::Builder{}
                   .guestFrames(128)
                   .seed(7)
                   .cloaking(true)
                   .shadowRetention(false)
                   .victimCacheEntries(0)
                   .build();
    EXPECT_EQ(cfg.guestFrames, 128u);
    EXPECT_EQ(cfg.seed, 7u);
    EXPECT_FALSE(cfg.shadowRetention);
    EXPECT_EQ(cfg.victimCacheEntries, 0u);

    // Native baseline with the victim cache left at its default is
    // fine — the default is not an explicit request.
    EXPECT_NO_THROW(
        system::SystemConfig::Builder{}.cloaking(false).build());
}

// ---------------------------------------------------------------------
// Bounded audit ring.
// ---------------------------------------------------------------------

TEST(AuditLogTest, RingDropsOldestAndCounts)
{
    AuditLog ring(3);
    for (std::uint64_t i = 1; i <= 5; ++i) {
        AuditEvent ev;
        ev.domain = static_cast<DomainId>(i);
        ring.push(ev);
    }
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.dropped(), 2u);
    EXPECT_EQ(ring.front().domain, 3u); // 1 and 2 fell off
    EXPECT_EQ(ring.back().domain, 5u);
}

TEST_F(FastPathTest, EngineErrorsLandInBoundedRing)
{
    // One error past the fixed ring's capacity drops the oldest.
    const std::size_t cap = engine_.auditLog().capacity();
    std::array<std::uint8_t, ctcBytes> bogus{};
    for (std::size_t i = 0; i <= cap; ++i) {
        auto r = engine_.verifyCtc(domain_, bogus);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error(), CloakError::NoCtcHash);
    }
    EXPECT_EQ(engine_.auditLog().size(), cap);
    EXPECT_EQ(engine_.auditLog().dropped(), 1u);
    EXPECT_EQ(engine_.auditLog().back().code, CloakError::NoCtcHash);
    EXPECT_EQ(engine_.stats().value("audit_errors"), cap + 1);
}

// ---------------------------------------------------------------------
// Whole-system runs: paging pressure with retention on and off.
// ---------------------------------------------------------------------

TEST(FastPathSystemTest, SwapOutUnderRetentionStaysCorrect)
{
    // 96 frames force the 200-page working set through swap: every
    // swapped-out frame is reclaimed and re-used, so any stale
    // retained shadow would read the wrong page (or dead plaintext).
    auto run = [](bool fast_path) {
        auto cfg = system::SystemConfig::Builder{}
                       .cloaking(true)
                       .guestFrames(96)
                       .shadowRetention(fast_path)
                       .victimCacheEntries(fast_path ? 8 : 0)
                       .build();
        system::System sys(cfg);
        workloads::registerAll(sys);
        auto r = sys.runProgram("wl.memstress", {"200", "2"});
        EXPECT_EQ(r.status, 0) << r.killReason;
        EXPECT_FALSE(r.killed) << r.killReason;
        return sys.cycles();
    };
    Cycles fast = run(true);
    Cycles slow = run(false);
    EXPECT_LT(fast, slow);
}

} // namespace
} // namespace osh::cloak
