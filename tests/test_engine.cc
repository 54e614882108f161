/**
 * @file
 * Cloak-engine unit tests against a minimal fake guest OS.
 *
 * These drive resolvePage() directly through Vcpu memory accesses with
 * hand-built contexts, pinning down the multi-shadowing semantics:
 * plaintext in the owner's view, ciphertext everywhere else, integrity
 * verification on every uncloak, and the clean/dirty state machine.
 */

#include "cloak/engine.hh"
#include "sim/machine.hh"
#include "vmm/vcpu.hh"
#include "vmm/vmm.hh"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>

namespace osh::cloak
{
namespace
{

/** Guest OS stub: fixed page tables, no fault handling. */
class FakeOs : public vmm::GuestOsHooks
{
  public:
    void
    map(Asid asid, GuestVA va, Gpa gpa, bool writable = true)
    {
        ptes_[{asid, pageBase(va)}] =
            vmm::GuestPte{pageBase(gpa), true, writable, true, false};
    }

    void
    unmap(Asid asid, GuestVA va)
    {
        ptes_.erase({asid, pageBase(va)});
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

/** Harness: machine + VMM + engine + fake OS + one domain. */
class EngineTest : public ::testing::Test
{
  protected:
    EngineTest()
        : machine_(sim::MachineConfig{256, 7, {}}),
          vmm_(machine_, 256),
          engine_(vmm_, 99, 64)
    {
        vmm_.setGuestOs(&os_);
        domain_ = engine_.createDomain(appAsid, 5,
                                       programIdentity("victim"));
        os_.map(appAsid, appVa, gpa);
        // The kernel reaches the same frame through its direct map.
        os_.map(kernelAsid, kernelVaOf(gpa), gpa);
        resource_ = engine_.registerRegion(domain_, appVa, 4).value();
    }

    static GuestVA kernelVaOf(Gpa gpa) { return 0x800000000000ull + gpa; }

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

    /** Raw machine bytes of the frame backing a GPA. */
    std::vector<std::uint8_t>
    rawFrame(Gpa g)
    {
        auto span = machine_.memory().framePlain(vmm_.pmap().translate(g));
        return {span.begin(), span.end()};
    }

    static constexpr Asid appAsid = 5;
    static constexpr Asid kernelAsid = 0;
    static constexpr GuestVA appVa = 0x10000;
    static constexpr Gpa gpa = 0x3000;

    sim::Machine machine_;
    vmm::Vmm vmm_;
    CloakEngine engine_;
    FakeOs os_;
    DomainId domain_ = 0;
    ResourceId resource_ = 0;
};

TEST_F(EngineTest, FirstTouchIsZeroFilled)
{
    // Leave junk in the frame (as a malicious kernel might).
    machine_.memory().write64(vmm_.pmap().translate(gpa), 0x1111);
    auto app = appCpu();
    EXPECT_EQ(app.load64(appVa), 0u);
    app.store64(appVa, 0xfeed);
    EXPECT_EQ(app.load64(appVa), 0xfeedu);
}

TEST_F(EngineTest, KernelSeesCiphertextAppSeesPlaintext)
{
    auto app = appCpu();
    auto kernel = kernelCpu();
    app.store64(appVa, 0x5ec7e7'5ec7e7ull);

    // Kernel view: ciphertext, not the stored value.
    std::uint64_t kview = kernel.load64(kernelVaOf(gpa));
    EXPECT_NE(kview, 0x5ec7e7'5ec7e7ull);
    EXPECT_EQ(engine_.stats().value("page_encrypts"), 1u);

    // App view: decrypt + verify restores the plaintext.
    EXPECT_EQ(app.load64(appVa), 0x5ec7e7'5ec7e7ull);
    EXPECT_EQ(engine_.stats().value("page_decrypts"), 1u);
}

TEST_F(EngineTest, WholePageNeverLeaksPlaintextToKernel)
{
    auto app = appCpu();
    auto kernel = kernelCpu();
    // Fill the page with a recognizable pattern.
    for (GuestVA off = 0; off < pageSize; off += 8)
        app.store64(appVa + off, 0xabad1dea'00000000ull | off);

    std::vector<std::uint8_t> kbytes(pageSize);
    kernel.readBytes(kernelVaOf(gpa), kbytes);
    int matches = 0;
    for (GuestVA off = 0; off < pageSize; off += 8) {
        std::uint64_t v;
        std::memcpy(&v, kbytes.data() + off, 8);
        matches += (v == (0xabad1dea'00000000ull | off)) ? 1 : 0;
    }
    EXPECT_EQ(matches, 0);
}

TEST_F(EngineTest, KernelTamperingDetectedOnNextAppAccess)
{
    auto app = appCpu();
    auto kernel = kernelCpu();
    app.store64(appVa, 42);
    kernel.load64(kernelVaOf(gpa)); // Forces encryption.
    kernel.store64(kernelVaOf(gpa) + 256, 0x666); // Tamper ciphertext.
    EXPECT_THROW(app.load64(appVa), vmm::ProcessKilled);
    EXPECT_EQ(engine_.stats().value("violations"), 1u);
    ASSERT_FALSE(engine_.auditLog().empty());
    EXPECT_EQ(engine_.auditLog().front().domain, domain_);
}

TEST_F(EngineTest, ReplayOfStaleCiphertextDetected)
{
    auto app = appCpu();
    auto kernel = kernelCpu();
    app.store64(appVa, 1);
    kernel.load64(kernelVaOf(gpa));   // Encrypt v1.
    auto v1 = rawFrame(gpa);

    app.store64(appVa, 2);            // Decrypt, modify (dirty).
    kernel.load64(kernelVaOf(gpa));   // Encrypt v2 (fresh IV/version).

    // Malicious kernel restores the stale v1 image.
    machine_.memory().write(vmm_.pmap().translate(gpa), v1);
    EXPECT_THROW(app.load64(appVa), vmm::ProcessKilled);
}

TEST_F(EngineTest, LegitimatePageRelocationVerifies)
{
    // Model swap-out/swap-in to a different frame: the kernel moves the
    // exact ciphertext bytes to a new GPA and remaps the app's VA.
    auto app = appCpu();
    auto kernel = kernelCpu();
    app.store64(appVa, 0x1234);
    kernel.load64(kernelVaOf(gpa)); // Encrypt.
    auto cipher = rawFrame(gpa);

    constexpr Gpa gpa2 = 0x9000;
    machine_.memory().write(vmm_.pmap().translate(gpa2), cipher);
    os_.map(appAsid, appVa, gpa2);
    os_.map(kernelAsid, kernelVaOf(gpa2), gpa2);
    vmm_.invalidateVa(appAsid, appVa);

    EXPECT_EQ(app.load64(appVa), 0x1234u);
}

TEST_F(EngineTest, RelocationWithWrongBytesDetected)
{
    auto app = appCpu();
    auto kernel = kernelCpu();
    app.store64(appVa, 0x1234);
    kernel.load64(kernelVaOf(gpa)); // Encrypt.

    // Kernel remaps the VA to a frame with junk.
    constexpr Gpa gpa2 = 0xa000;
    machine_.memory().write64(vmm_.pmap().translate(gpa2), 0x9999);
    os_.map(appAsid, appVa, gpa2);
    vmm_.invalidateVa(appAsid, appVa);

    EXPECT_THROW(app.load64(appVa), vmm::ProcessKilled);
}

TEST_F(EngineTest, OtherDomainSeesCiphertext)
{
    auto app = appCpu();
    app.store64(appVa, 0x7007);

    // A second cloaked process; the malicious kernel maps the victim's
    // frame into its address space.
    constexpr Asid otherAsid = 8;
    DomainId other = engine_.createDomain(otherAsid, 8,
                                          programIdentity("attacker"));
    constexpr GuestVA otherVa = 0x40000;
    os_.map(otherAsid, otherVa, gpa);

    vmm::Vcpu attacker(vmm_, vmm::Context{otherAsid, other, false});
    std::uint64_t seen = attacker.load64(otherVa);
    EXPECT_NE(seen, 0x7007u);

    // And the victim still round-trips correctly afterwards.
    EXPECT_EQ(app.load64(appVa), 0x7007u);
}

TEST_F(EngineTest, CleanPagesSkipRehash)
{
    auto app = appCpu();
    auto kernel = kernelCpu();
    app.store64(appVa, 5);
    kernel.load64(kernelVaOf(gpa)); // dirty -> encrypt (v1)
    EXPECT_EQ(engine_.stats().value("page_encrypts"), 1u);

    app.load64(appVa);              // decrypt -> CLEAN (read-only)
    kernel.load64(kernelVaOf(gpa)); // clean -> cheap re-encrypt
    EXPECT_EQ(engine_.stats().value("page_encrypts"), 1u);
    EXPECT_EQ(engine_.stats().value("clean_reencrypts"), 1u);

    app.store64(appVa, 6);          // decrypt, write -> DIRTY
    kernel.load64(kernelVaOf(gpa)); // dirty -> full encrypt (v2)
    EXPECT_EQ(engine_.stats().value("page_encrypts"), 2u);
    EXPECT_EQ(app.load64(appVa), 6u);
}

TEST_F(EngineTest, CleanOptimizationDisabledAlwaysRehashes)
{
    engine_.setCleanOptimization(false);
    auto app = appCpu();
    auto kernel = kernelCpu();
    app.store64(appVa, 5);
    kernel.load64(kernelVaOf(gpa));
    app.load64(appVa);
    kernel.load64(kernelVaOf(gpa));
    EXPECT_EQ(engine_.stats().value("clean_reencrypts"), 0u);
    EXPECT_EQ(engine_.stats().value("page_encrypts"), 2u);
    EXPECT_EQ(app.load64(appVa), 5u);
}

TEST_F(EngineTest, CleanToDirtyUpgradeWithoutCrypto)
{
    auto app = appCpu();
    auto kernel = kernelCpu();
    app.store64(appVa, 5);
    kernel.load64(kernelVaOf(gpa));
    app.load64(appVa); // CLEAN
    std::uint64_t decrypts = engine_.stats().value("page_decrypts");
    app.store64(appVa, 9); // write fault: CLEAN -> DIRTY, no crypto
    EXPECT_EQ(engine_.stats().value("page_decrypts"), decrypts);
    EXPECT_EQ(engine_.stats().value("clean_to_dirty"), 1u);
    EXPECT_EQ(app.load64(appVa), 9u);
}

TEST_F(EngineTest, UnregisterScrubsPlaintext)
{
    auto app = appCpu();
    app.store64(appVa, 0x1337);
    auto plain = rawFrame(gpa);
    EXPECT_EQ(plain[0], 0x37);

    engine_.unregisterRegion(domain_, appVa);
    auto after = rawFrame(gpa);
    EXPECT_NE(after, plain); // Encrypted in place.
}

TEST_F(EngineTest, TeardownScrubsResidentPlaintext)
{
    auto app = appCpu();
    app.store64(appVa, 0x4242);
    engine_.teardownDomain(domain_);
    auto frame = rawFrame(gpa);
    bool all_zero = true;
    for (std::uint8_t b : frame)
        all_zero &= b == 0;
    EXPECT_TRUE(all_zero);
}

TEST_F(EngineTest, MultiPageRegionIndependentStates)
{
    auto app = appCpu();
    auto kernel = kernelCpu();
    constexpr Gpa gpa1 = 0x5000;
    os_.map(appAsid, appVa + pageSize, gpa1);
    os_.map(kernelAsid, kernelVaOf(gpa1), gpa1);

    app.store64(appVa, 100);
    app.store64(appVa + pageSize, 200);
    kernel.load64(kernelVaOf(gpa)); // Encrypt only page 0.
    EXPECT_EQ(engine_.stats().value("page_encrypts"), 1u);
    // Page 1 stays plaintext-resident and readable without decryption.
    std::uint64_t decrypts = engine_.stats().value("page_decrypts");
    EXPECT_EQ(app.load64(appVa + pageSize), 200u);
    EXPECT_EQ(engine_.stats().value("page_decrypts"), decrypts);
    EXPECT_EQ(app.load64(appVa), 100u);
}

std::array<std::uint8_t, cloak::ctcBytes>
sampleCtcRecord()
{
    std::array<std::uint8_t, cloak::ctcBytes> rec;
    for (std::size_t i = 0; i < rec.size(); ++i)
        rec[i] = static_cast<std::uint8_t>(i * 7 + 3);
    return rec;
}

TEST_F(EngineTest, CtcRecordRoundTrip)
{
    auto rec = sampleCtcRecord();
    engine_.bindThread(domain_, 0x7000, 0);
    auto before = engine_.verifyCtc(domain_, rec);
    ASSERT_FALSE(before.ok());
    EXPECT_EQ(before.error(), cloak::CloakError::NoCtcHash);
    engine_.recordCtc(domain_, rec);
    EXPECT_TRUE(engine_.verifyCtc(domain_, rec).ok());
    auto wrong = rec;
    wrong[0] ^= 1;
    auto mismatch = engine_.verifyCtc(domain_, wrong);
    ASSERT_FALSE(mismatch.ok());
    EXPECT_EQ(mismatch.error(), cloak::CloakError::CtcHashMismatch);
    // Both rejections were audited with their typed reason.
    EXPECT_EQ(engine_.auditLog().back().code,
              cloak::CloakError::CtcHashMismatch);
    EXPECT_EQ(engine_.stats().value("audit_errors"), 2u);
    // The copy is the VMM's own: changing the caller's buffer after
    // the save does not change what verifies.
    rec[5] ^= 0x40;
    EXPECT_FALSE(engine_.verifyCtc(domain_, rec).ok());
    rec[5] ^= 0x40;
    EXPECT_TRUE(engine_.verifyCtc(domain_, rec).ok());
}

TEST_F(EngineTest, CtcEverySingleByteFlipIsRefused)
{
    const auto rec = sampleCtcRecord();
    engine_.bindThread(domain_, 0x7000, 0);
    engine_.recordCtc(domain_, rec);
    std::uint64_t audited = engine_.stats().value("audit_errors");
    for (std::size_t pos = 0; pos < rec.size(); ++pos) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            auto flipped = rec;
            flipped[pos] ^= static_cast<std::uint8_t>(1u << bit);
            auto r = engine_.verifyCtc(domain_, flipped);
            ASSERT_FALSE(r.ok()) << "byte " << pos << " bit " << bit;
            EXPECT_EQ(r.error(), cloak::CloakError::CtcHashMismatch);
            EXPECT_EQ(engine_.auditLog().back().code,
                      cloak::CloakError::CtcHashMismatch);
            EXPECT_EQ(engine_.stats().value("audit_errors"), ++audited);
        }
    }
    // The refusals changed nothing: the saved record still verifies.
    EXPECT_TRUE(engine_.verifyCtc(domain_, rec).ok());
}

TEST_F(EngineTest, CtcVerifyBeforeAnySaveIsRefused)
{
    // A record of all zeros is what an untouched copy holds; it must
    // not verify before a save.
    std::array<std::uint8_t, cloak::ctcBytes> zeros{};
    engine_.bindThread(domain_, 0x7000, 0);
    auto r = engine_.verifyCtc(domain_, zeros);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), cloak::CloakError::NoCtcHash);
    EXPECT_EQ(engine_.auditLog().back().code,
              cloak::CloakError::NoCtcHash);
    EXPECT_EQ(engine_.stats().value("audit_errors"), 1u);

    // Re-binding the CTC (a new thread registration) drops the copy,
    // so the old record is refused until the next save.
    auto rec = sampleCtcRecord();
    engine_.recordCtc(domain_, rec);
    ASSERT_TRUE(engine_.verifyCtc(domain_, rec).ok());
    engine_.bindThread(domain_, 0x8000, 0);
    auto rebound = engine_.verifyCtc(domain_, rec);
    ASSERT_FALSE(rebound.ok());
    EXPECT_EQ(rebound.error(), cloak::CloakError::NoCtcHash);
}

TEST_F(EngineTest, ForkAttachRequiresToken)
{
    auto bogus = engine_.forkAttach(9, 9, 0xdead);
    ASSERT_FALSE(bogus.ok());
    EXPECT_EQ(bogus.error(), cloak::CloakError::BadForkToken);
    std::uint64_t token = engine_.prepareFork(domain_).value();
    // Attach before the snapshot is refused.
    auto early = engine_.forkAttach(9, 9, token);
    ASSERT_FALSE(early.ok());
    EXPECT_EQ(early.error(), cloak::CloakError::ForkNotSnapshotted);
    ASSERT_TRUE(engine_.snapshotFork(domain_, token, 9).ok());
    // Snapshots are single use too.
    auto again = engine_.snapshotFork(domain_, token, 9);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.error(),
              cloak::CloakError::ForkAlreadySnapshotted);
    DomainId child = engine_.forkAttach(9, 9, token).value();
    EXPECT_NE(child, systemDomain);
    // Tokens are single use.
    EXPECT_FALSE(engine_.forkAttach(10, 10, token).ok());
    // Child inherits the identity.
    EXPECT_EQ(engine_.findDomain(child)->identity,
              programIdentity("victim"));
}

TEST_F(EngineTest, ForkTokenAttachesOnlyItsChild)
{
    // Through the hypercalls a shim issues: the parent names the child
    // pid its fork trap returned, so a third process presenting the
    // token is refused (audited) and the real child still attaches.
    constexpr Pid childPid = 9;
    constexpr Pid thiefPid = 10;
    auto parent = appCpu();
    std::int64_t token =
        parent.hypercall(vmm::Hypercall::CloakPrepareFork, {});
    ASSERT_GT(token, 0);
    std::array<std::uint64_t, 2> snap{static_cast<std::uint64_t>(token),
                                      childPid};
    ASSERT_EQ(parent.hypercall(vmm::Hypercall::CloakSnapshotFork, snap),
              0);

    std::array<std::uint64_t, 1> attach{static_cast<std::uint64_t>(token)};
    vmm::Vcpu thief(vmm_, vmm::Context{thiefPid, systemDomain, false});
    std::size_t audited = engine_.auditLog().size();
    EXPECT_EQ(thief.hypercall(vmm::Hypercall::CloakForkAttach, attach),
              static_cast<std::int64_t>(systemDomain));
    ASSERT_EQ(engine_.auditLog().size(), audited + 1);
    EXPECT_EQ(engine_.auditLog().back().code,
              cloak::CloakError::BadForkToken);
    EXPECT_EQ(engine_.auditLog().back().domain, domain_);

    vmm::Vcpu child(vmm_, vmm::Context{childPid, systemDomain, false});
    std::int64_t domain =
        child.hypercall(vmm::Hypercall::CloakForkAttach, attach);
    ASSERT_GT(domain, 0);
    EXPECT_EQ(engine_.findDomain(static_cast<DomainId>(domain))->identity,
              programIdentity("victim"));
}

TEST_F(EngineTest, RetiredInfoHypercallAnswersNobody)
{
    // Hypercall 6 once reported audit, plaintext-frame and domain counts
    // to any caller; it is gone for cloaked and uncloaked callers alike.
    constexpr auto retired = static_cast<vmm::Hypercall>(6);
    auto cloaked = appCpu();
    auto uncloaked = kernelCpu();
    for (std::uint64_t selector = 0; selector < 4; ++selector) {
        std::array<std::uint64_t, 1> a{selector};
        EXPECT_EQ(cloaked.hypercall(retired, a), -1) << selector;
        EXPECT_EQ(uncloaked.hypercall(retired, a), -1) << selector;
    }
}

TEST_F(EngineTest, DomainHypercallsAnswerOnlyCloakedCallers)
{
    // Every hypercall that acts on the caller's own domain answers -1
    // to a caller with none, and CloakCreateDomain answers -1 to all:
    // a domain comes only from the attested launch path.
    using vmm::Hypercall;
    std::array<std::uint64_t, 4> args{appVa + 8 * pageSize, 1, 0, 0};
    auto uncloaked = kernelCpu();
    for (Hypercall h :
         {Hypercall::CloakCreateDomain, Hypercall::CloakRegisterRegion,
          Hypercall::CloakUnregisterRegion, Hypercall::CloakRegisterThread,
          Hypercall::CloakSealMetadata, Hypercall::CloakPrepareFork,
          Hypercall::CloakAttachFile, Hypercall::CloakDiscardFile,
          Hypercall::CloakTeardownDomain, Hypercall::CloakSnapshotFork})
        EXPECT_EQ(uncloaked.hypercall(h, args), -1) << static_cast<int>(h);
    EXPECT_EQ(appCpu().hypercall(Hypercall::CloakCreateDomain, args), -1);
    ASSERT_NE(engine_.findDomain(domain_), nullptr);
    EXPECT_EQ(engine_.findDomain(domain_)->regions.size(), 1u);
}

TEST_F(EngineTest, RegisterRegionRefusesUnknownAndForeignResources)
{
    // The resource id is guest-supplied: an unknown one, or another
    // domain's, is an audited refusal answered with -1, and no region
    // is added.
    DomainId other = engine_.createDomain(12, 12,
                                          programIdentity("other"));
    ResourceId foreign =
        engine_.registerRegion(other, appVa, 1).value();
    struct Case
    {
        ResourceId resource;
        CloakError code;
    };
    for (Case c : {Case{9999, CloakError::UnknownResource},
                   Case{foreign, CloakError::ForeignResource}}) {
        std::array<std::uint64_t, 4> args{appVa + 8 * pageSize, 1,
                                          c.resource, 0};
        std::size_t audited = engine_.auditLog().size();
        EXPECT_EQ(appCpu().hypercall(vmm::Hypercall::CloakRegisterRegion,
                                     args),
                  -1);
        ASSERT_EQ(engine_.auditLog().size(), audited + 1);
        EXPECT_EQ(engine_.auditLog().back().code, c.code);
        EXPECT_EQ(engine_.auditLog().back().domain, domain_);
        EXPECT_EQ(engine_.findDomain(domain_)->regions.size(), 1u);
    }
}

TEST_F(EngineTest, ForkSnapshotRequiresOwningDomain)
{
    std::uint64_t token = engine_.prepareFork(domain_).value();
    DomainId other = engine_.createDomain(12, 12,
                                          programIdentity("other"));
    auto foreign = engine_.snapshotFork(other, token, 9);
    ASSERT_FALSE(foreign.ok());
    EXPECT_EQ(foreign.error(), cloak::CloakError::BadForkToken);
    EXPECT_TRUE(engine_.snapshotFork(domain_, token, 9).ok());
}

TEST_F(EngineTest, ForkedChildDecryptsInheritedPages)
{
    auto app = appCpu();
    auto kernel = kernelCpu();
    app.store64(appVa, 0xc0ffee);
    kernel.load64(kernelVaOf(gpa)); // Encrypt parent page.
    auto cipher = rawFrame(gpa);

    // Kernel eagerly copies the ciphertext for the child.
    constexpr Gpa childGpa = 0xb000;
    machine_.memory().write(vmm_.pmap().translate(childGpa), cipher);

    std::uint64_t token = engine_.prepareFork(domain_).value();
    ASSERT_TRUE(engine_.snapshotFork(domain_, token, 9).ok());

    // The parent may keep running and re-encrypt its own pages after
    // the snapshot without invalidating the child's copies.
    app.store64(appVa, 0xfeedf00d);    // dirty again
    kernel.load64(kernelVaOf(gpa));    // fresh IV + version bump

    constexpr Asid childAsid = 9;
    DomainId child = engine_.forkAttach(childAsid, 9, token).value();
    ASSERT_NE(child, systemDomain);
    os_.map(childAsid, appVa, childGpa);

    vmm::Vcpu child_cpu(vmm_, vmm::Context{childAsid, child, false});
    EXPECT_EQ(child_cpu.load64(appVa), 0xc0ffeeu);

    // Divergence: child writes do not affect the parent, which kept
    // running with its own newer value.
    child_cpu.store64(appVa, 1);
    EXPECT_EQ(app.load64(appVa), 0xfeedf00du);
}

} // namespace
} // namespace osh::cloak
