/**
 * @file
 * Checkpoint/restore and live-migration tests: image-format round
 * trips and refusals, canonical (byte-identical) serialization,
 * deterministic resume across machines, and the stream-replay defense.
 */

#include "migrate/checkpoint.hh"
#include "migrate/live.hh"
#include "system/system.hh"
#include "workloads/workloads.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace
{

using namespace osh;
using migrate::MigrateError;
using migrate::RecordType;

crypto::Digest
testKey(std::uint8_t fill)
{
    crypto::Digest key{};
    key.fill(fill);
    return key;
}

std::vector<std::uint8_t>
sampleImage(const crypto::Digest& key)
{
    migrate::ImageWriter writer(key);
    migrate::PayloadWriter a;
    a.u64(0x1122334455667788ull);
    a.str("hello");
    writer.append(RecordType::Manifest, a.view());
    migrate::PayloadWriter b;
    b.u32(7);
    writer.append(RecordType::Vma, b.view());
    return writer.finish();
}

system::SystemConfig
victimConfig(const std::string& workload, std::uint64_t seed)
{
    bool paging = workload == "wl.victim.paging";
    return system::SystemConfig::Builder{}
        .seed(seed)
        .guestFrames(paging ? 96 : 512)
        .cloaking(true)
        .build();
}

struct RunRef
{
    int status = 0;
    bool killed = false;
    std::string checksum;
};

RunRef
referenceRun(const std::string& workload, std::uint64_t seed)
{
    system::System sys(victimConfig(workload, seed));
    workloads::registerAll(sys);
    system::ExitResult r = sys.runProgram(workload);
    return {r.status, r.killed, workloads::resultOf(sys, workload)};
}

/** Launch + park the victim; asserts the freeze landed. */
Pid
launchFrozen(system::System& sys, const std::string& workload,
             std::uint64_t entries)
{
    Pid pid = sys.launch(workload);
    sys.kernel().requestFreeze(pid, entries);
    sys.run();
    EXPECT_TRUE(sys.kernel().isFrozen(pid));
    return pid;
}

// --- image format ---------------------------------------------------

TEST(MigrateImage, PayloadRoundTrip)
{
    migrate::PayloadWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.str("cloak");
    std::array<std::uint8_t, 4> blob = {1, 2, 3, 4};
    w.bytes(blob);

    migrate::PayloadReader r(w.view());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.str(), "cloak");
    std::array<std::uint8_t, 4> out{};
    r.bytes(out);
    EXPECT_EQ(out, blob);
    EXPECT_TRUE(r.done());

    // Reading past the end flips ok() instead of overrunning.
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_FALSE(r.ok());
}

TEST(MigrateImage, ChainRoundTrip)
{
    const crypto::Digest key = testKey(0x5a);
    std::vector<std::uint8_t> image = sampleImage(key);

    migrate::ImageReader reader(key, image);
    auto first = reader.next();
    ASSERT_TRUE(first.ok());
    EXPECT_EQ((*first).type, RecordType::Manifest);
    migrate::PayloadReader pr((*first).payload);
    EXPECT_EQ(pr.u64(), 0x1122334455667788ull);
    EXPECT_EQ(pr.str(), "hello");

    auto second = reader.next();
    ASSERT_TRUE(second.ok());
    EXPECT_EQ((*second).type, RecordType::Vma);

    auto end = reader.next();
    ASSERT_TRUE(end.ok());
    EXPECT_EQ((*end).type, RecordType::End);
    EXPECT_TRUE(reader.atEnd());
}

TEST(MigrateImage, EveryFlippedByteIsRefused)
{
    const crypto::Digest key = testKey(0x5a);
    const std::vector<std::uint8_t> image = sampleImage(key);

    for (std::size_t i = 0; i < image.size(); ++i) {
        std::vector<std::uint8_t> bad = image;
        bad[i] ^= 0x40;
        migrate::ImageReader reader(key, bad);
        bool refused = false;
        while (true) {
            auto rec = reader.next();
            if (!rec.ok()) {
                refused = true;
                break;
            }
            if ((*rec).type == RecordType::End)
                break;
        }
        EXPECT_TRUE(refused) << "flipped byte " << i;
    }
}

TEST(MigrateImage, EveryTruncationIsRefused)
{
    const crypto::Digest key = testKey(0x5a);
    const std::vector<std::uint8_t> image = sampleImage(key);

    for (std::size_t len = 0; len < image.size(); ++len) {
        std::vector<std::uint8_t> cut(image.begin(),
                                      image.begin() + len);
        migrate::ImageReader reader(key, cut);
        bool refused = false;
        while (true) {
            auto rec = reader.next();
            if (!rec.ok()) {
                refused = true;
                break;
            }
            if ((*rec).type == RecordType::End)
                break;
        }
        EXPECT_TRUE(refused) << "truncated to " << len;
    }
}

TEST(MigrateImage, WrongKeyIsRefused)
{
    std::vector<std::uint8_t> image = sampleImage(testKey(0x5a));
    migrate::ImageReader reader(testKey(0x5b), image);
    auto rec = reader.next();
    ASSERT_FALSE(rec.ok());
    EXPECT_EQ(rec.error(), MigrateError::BadMac);
}

// --- pre-copy stream ------------------------------------------------

TEST(MigrateStream, RoundKeysDiffer)
{
    const crypto::Digest base = testKey(0x11);
    EXPECT_NE(migrate::streamRoundKey(base, 0),
              migrate::streamRoundKey(base, 1));
    EXPECT_EQ(migrate::streamRoundKey(base, 3),
              migrate::streamRoundKey(base, 3));
}

TEST(MigrateStream, ReplayedRoundIsRefusedAndStagesNothing)
{
    const crypto::Digest base = testKey(0x11);
    migrate::ImageWriter writer(migrate::streamRoundKey(base, 0));
    migrate::PayloadWriter p;
    p.u64(0x10000000);
    std::array<std::uint8_t, pageSize> page{};
    page.fill(0xcd);
    p.bytes(page);
    writer.append(RecordType::PageData, p.view());
    std::vector<std::uint8_t> segment = writer.finish();

    // Round 0's segment verifies under round 0's key...
    migrate::StagedPages staged;
    auto ok = migrate::applyStreamSegment(
        segment, migrate::streamRoundKey(base, 0), staged);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(*ok, 1u);
    EXPECT_EQ(staged.size(), 1u);

    // ...and is refused when replayed into any later round.
    migrate::StagedPages replay_staged;
    auto replay = migrate::applyStreamSegment(
        segment, migrate::streamRoundKey(base, 2), replay_staged);
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.error(), MigrateError::BadMac);
    EXPECT_TRUE(replay_staged.empty());
}

// --- checkpoint/restore ---------------------------------------------

TEST(MigrateCheckpoint, SerializationIsCanonical)
{
    system::System src(victimConfig("wl.victim.compute", 7));
    workloads::registerAll(src);
    Pid pid = launchFrozen(src, "wl.victim.compute", 16);

    migrate::CheckpointOptions copts;
    copts.nonce = 99;
    auto first = migrate::checkpoint(src, pid, copts);
    ASSERT_TRUE(first.ok());
    // A second checkpoint of the same quiesced state must produce
    // byte-identical output — the format has no hidden nondeterminism.
    auto second = migrate::checkpoint(src, pid, copts);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ((*first).image, (*second).image);

    src.kernel().thaw(pid);
    src.run();
}

TEST(MigrateCheckpoint, RestoreThenRecheckpointIsByteIdentical)
{
    system::System src(victimConfig("wl.victim.compute", 7));
    workloads::registerAll(src);
    Pid pid = launchFrozen(src, "wl.victim.compute", 16);

    migrate::CheckpointOptions copts;
    copts.nonce = 99;
    auto ckpt = migrate::checkpoint(src, pid, copts);
    ASSERT_TRUE(ckpt.ok());

    // Restore on a fresh machine and re-checkpoint before the restored
    // victim runs: the image must survive the round trip bit-for-bit.
    system::System dst(victimConfig("wl.victim.compute", 7));
    workloads::registerAll(dst);
    auto restored = migrate::restore(dst, (*ckpt).image, (*ckpt).ticket);
    ASSERT_TRUE(restored.ok());
    auto again = migrate::checkpoint(dst, (*restored).pid, copts);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ((*ckpt).image, (*again).image);

    // Both copies still finish correctly (only the target is kept).
    src.killFrozen(pid, "migrated away");
    dst.run();
    const system::ExitResult* r = dst.resultOf((*restored).pid);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->status, 0);
}

TEST(MigrateCheckpoint, RestoredPagesCountInTheMetadataFootprint)
{
    // A restored resource's pages enter the metadata footprint and
    // leave it when the process exits; the count never wraps.
    system::System src(victimConfig("wl.victim.compute", 7));
    workloads::registerAll(src);
    Pid pid = launchFrozen(src, "wl.victim.compute", 16);
    auto ckpt = migrate::checkpoint(src, pid, {});
    ASSERT_TRUE(ckpt.ok());
    const std::uint64_t source_bytes =
        src.cloak()->metadata().footprintBytes();
    src.killFrozen(pid, "migrated away");

    system::System dst(victimConfig("wl.victim.compute", 7));
    workloads::registerAll(dst);
    auto restored = migrate::restore(dst, (*ckpt).image, (*ckpt).ticket);
    ASSERT_TRUE(restored.ok());
    const cloak::MetadataStore& meta = dst.cloak()->metadata();
    EXPECT_EQ(meta.footprintBytes(), source_bytes);

    dst.run();
    const system::ExitResult* r = dst.resultOf((*restored).pid);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->status, 0);
    EXPECT_EQ(meta.footprintBytes(), 0u);
    EXPECT_LT(meta.peakFootprintBytes(), 1u << 20);
}

TEST(MigrateCheckpoint, TamperedImageIsRefusedUntouched)
{
    system::System src(victimConfig("wl.victim.compute", 7));
    workloads::registerAll(src);
    Pid pid = launchFrozen(src, "wl.victim.compute", 16);

    auto ckpt = migrate::checkpoint(src, pid, {});
    ASSERT_TRUE(ckpt.ok());

    system::System dst(victimConfig("wl.victim.compute", 7));
    workloads::registerAll(dst);

    // A flipped byte mid-image and a truncation must both be refused
    // with a typed error, leaving the target machine untouched.
    std::vector<std::uint8_t> flipped = (*ckpt).image;
    flipped[flipped.size() / 2] ^= 0x01;
    auto r1 = migrate::restore(dst, flipped, (*ckpt).ticket);
    ASSERT_FALSE(r1.ok());

    std::vector<std::uint8_t> cut = (*ckpt).image;
    cut.resize(cut.size() - 1);
    auto r2 = migrate::restore(dst, cut, (*ckpt).ticket);
    ASSERT_FALSE(r2.ok());
    EXPECT_EQ(r2.error(), MigrateError::Truncated);

    // Wrong identity and image-version rollback are caught by the
    // out-of-band ticket.
    migrate::Ticket wrong_id = (*ckpt).ticket;
    wrong_id.identity[0] ^= 1;
    auto r3 = migrate::restore(dst, (*ckpt).image, wrong_id);
    ASSERT_FALSE(r3.ok());
    EXPECT_EQ(r3.error(), MigrateError::IdentityMismatch);

    migrate::Ticket newer = (*ckpt).ticket;
    newer.imageVersion += 1;
    auto r4 = migrate::restore(dst, (*ckpt).image, newer);
    ASSERT_FALSE(r4.ok());
    EXPECT_EQ(r4.error(), MigrateError::ImageRollback);

    EXPECT_TRUE(dst.results().empty());

    src.kernel().thaw(pid);
    src.run();
    const system::ExitResult* r = src.resultOf(pid);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->status, 0);
}

TEST(MigrateCheckpoint, KillFrozenEndsTheProcess)
{
    system::System sys(victimConfig("wl.victim.compute", 7));
    workloads::registerAll(sys);
    Pid pid = launchFrozen(sys, "wl.victim.compute", 16);

    sys.killFrozen(pid, "test done");
    EXPECT_FALSE(sys.kernel().isFrozen(pid));
    const system::ExitResult* r = sys.resultOf(pid);
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->killed);
    EXPECT_EQ(r->killReason, "test done");
}

TEST(MigrateCheckpoint, SystemHoldingAFrozenProcessTearsDown)
{
    // A checkpoint refusal leaves the victim frozen; the caller may
    // drop the machine without thawing it.
    system::System sys(victimConfig("wl.victim.compute", 7));
    workloads::registerAll(sys);
    Pid pid = launchFrozen(sys, "wl.victim.compute", 16);
    ASSERT_TRUE(sys.kernel().isFrozen(pid));
}

TEST(MigrateCheckpoint, FileMappingRecordIsRefused)
{
    system::System src(victimConfig("wl.victim.compute", 7));
    workloads::registerAll(src);
    Pid pid = launchFrozen(src, "wl.victim.compute", 16);

    migrate::CheckpointOptions copts;
    copts.nonce = 5;
    auto ckpt = migrate::checkpoint(src, pid, copts);
    ASSERT_TRUE(ckpt.ok());

    // Re-seal the image with its first VMA retyped as a file mapping:
    // correctly MAC'd, but a record checkpoint() never writes. Such a
    // VMA would hold no reference on the inode it names.
    const crypto::Digest key = src.cloak()->migrationKey(copts.nonce);
    migrate::ImageReader reader(key, (*ckpt).image);
    migrate::ImageWriter writer(key);
    bool retyped = false;
    for (;;) {
        auto rec = reader.next();
        ASSERT_TRUE(rec.ok());
        if ((*rec).type == RecordType::End)
            break;
        std::vector<std::uint8_t> payload = (*rec).payload;
        if ((*rec).type == RecordType::Vma && !retyped) {
            // Layout: start u64, end u64, type u8, ...
            payload[16] = static_cast<std::uint8_t>(os::VmaType::File);
            retyped = true;
        }
        writer.append((*rec).type, payload);
    }
    ASSERT_TRUE(retyped);
    std::vector<std::uint8_t> forged = writer.finish();

    system::System dst(victimConfig("wl.victim.compute", 7));
    workloads::registerAll(dst);
    auto r = migrate::restore(dst, forged, (*ckpt).ticket);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), MigrateError::BadRecord);
    EXPECT_TRUE(dst.kernel().pids().empty());

    // The untouched image still restores.
    EXPECT_TRUE(migrate::restore(dst, (*ckpt).image, (*ckpt).ticket).ok());
    dst.run();
    src.killFrozen(pid, "migrated away");
}

/** Cold round trip: the migrated victim must finish with the same
 *  status and checksum as an unmigrated run, for every seed. */
TEST(MigrateCheckpoint, ColdMigrationMatchesReference)
{
    for (const char* workload :
         {"wl.victim.compute", "wl.victim.paging"}) {
        for (std::uint64_t seed : {7ull, 42ull}) {
            RunRef ref = referenceRun(workload, seed);
            ASSERT_EQ(ref.status, 0) << workload;

            system::System src(victimConfig(workload, seed));
            workloads::registerAll(src);
            system::System dst(victimConfig(workload, seed));
            workloads::registerAll(dst);

            Pid pid = launchFrozen(src, workload, 16);
            migrate::CheckpointOptions copts;
            copts.nonce = seed ^ 0x6d19;
            auto ckpt = migrate::checkpoint(src, pid, copts);
            ASSERT_TRUE(ckpt.ok())
                << migrate::migrateErrorName(ckpt.error());
            auto restored =
                migrate::restore(dst, (*ckpt).image, (*ckpt).ticket);
            ASSERT_TRUE(restored.ok())
                << migrate::migrateErrorName(restored.error());
            src.killFrozen(pid, "migrated away");

            dst.run();
            const system::ExitResult* r = dst.resultOf((*restored).pid);
            ASSERT_NE(r, nullptr);
            EXPECT_EQ(r->status, ref.status)
                << workload << " seed " << seed;
            EXPECT_EQ(workloads::resultOf(dst, workload), ref.checksum)
                << workload << " seed " << seed;
        }
    }
}

/**
 * A cloaked program that can be checkpointed, then forks. Its state
 * lives in a two-page cloaked arena (magic word, secret word) that a
 * restored life finds again by scanning its mappings. The getpid()
 * loop gives a freeze somewhere to land; the fork comes after it, so
 * a program frozen in the loop forks only once restored.
 */
int
forkAfterRestore(os::Env& env)
{
    constexpr std::uint64_t magic = 0xf0a7c0de5eed0001ull;
    constexpr std::uint64_t secret = 0x5ec2e70000000042ull;
    GuestVA arena = 0;
    for (std::uint64_t i = 0; arena == 0; ++i) {
        std::int64_t start = env.vmaQuery(i, os::vmaQueryStart);
        if (start < 0)
            break;
        std::int64_t end = env.vmaQuery(i, os::vmaQueryEnd);
        std::int64_t flags = env.vmaQuery(i, os::vmaQueryFlags);
        if (end - start == 2 * static_cast<std::int64_t>(pageSize) &&
            (flags & os::vmaFlagCloaked) != 0 &&
            (flags & os::vmaFlagAnon) != 0 &&
            env.load64(static_cast<GuestVA>(start)) == magic)
            arena = static_cast<GuestVA>(start);
    }
    if (arena == 0) {
        arena = env.allocPages(2);
        env.store64(arena + pageSize, secret);
        env.store64(arena, magic);
    }
    for (int i = 0; i < 16; ++i)
        env.getpid();

    Pid child = env.fork([arena](os::Env& c) {
        c.getpid(); // a secure syscall through the inherited layout
        if (c.load64(arena + pageSize) != secret)
            return 1;
        c.store64(arena + pageSize, 0); // the child's private copy
        return c.getppid() > 0 ? 0 : 2;
    });
    int status = -1;
    if (env.waitpid(child, &status) != child || status != 0)
        return 3;
    return env.load64(arena + pageSize) == secret ? 0 : 4;
}

TEST(MigrateCheckpoint, RestoredProcessForksACloakedChild)
{
    // The child of a restored process inherits the layout (CTC and
    // bounce area) the restore put in the parent's Domain.
    auto cfg = victimConfig("wl.victim.compute", 42);
    system::System src(cfg);
    src.addProgram("forker", os::Program{forkAfterRestore, true, 32});
    Pid pid = launchFrozen(src, "forker", 24);

    auto ckpt = migrate::checkpoint(src, pid, {});
    ASSERT_TRUE(ckpt.ok()) << migrate::migrateErrorName(ckpt.error());
    src.killFrozen(pid, "migrated away");
    EXPECT_EQ(src.kernel().stats().value("forks"), 0u);
    EXPECT_EQ(src.machine().cost().stats().value("cloak_launch"), 1u);

    system::System dst(cfg);
    dst.addProgram("forker", os::Program{forkAfterRestore, true, 32});
    auto restored = migrate::restore(dst, (*ckpt).image, (*ckpt).ticket);
    ASSERT_TRUE(restored.ok())
        << migrate::migrateErrorName(restored.error());
    dst.run();

    ASSERT_EQ(dst.results().size(), 2u);
    for (const auto& [p, r] : dst.results()) {
        EXPECT_EQ(r.status, 0) << "pid " << p << ": " << r.killReason;
        EXPECT_FALSE(r.killed) << r.killReason;
    }
    const StatGroup& events = dst.machine().cost().stats();
    EXPECT_EQ(events.value("cloak_launch"), 0u);
    EXPECT_EQ(events.value("cloak_restore_launch"), 1u);
    EXPECT_EQ(events.value("cloak_fork_launch"), 1u);
    EXPECT_EQ(dst.vmm().stats().value("hypercalls"), 6u);
    EXPECT_EQ(dst.cloak()->stats().value("domains_destroyed"),
              dst.cloak()->stats().value("domains_created"));
}

// --- live migration -------------------------------------------------

TEST(MigrateLive, LiveMigrationMatchesReference)
{
    for (const char* workload :
         {"wl.victim.compute", "wl.victim.paging"}) {
        const std::uint64_t seed = 42;
        RunRef ref = referenceRun(workload, seed);
        ASSERT_EQ(ref.status, 0) << workload;

        system::System src(victimConfig(workload, seed));
        workloads::registerAll(src);
        system::System dst(victimConfig(workload, seed));
        workloads::registerAll(dst);

        Pid pid = src.launch(workload);
        migrate::LiveOptions lopts;
        lopts.nonce = seed ^ 0x11fe;
        lopts.entriesPerRound = 12;
        auto live = migrate::migrateLive(src, pid, dst, lopts);
        ASSERT_TRUE(live.ok())
            << migrate::migrateErrorName(live.error());
        EXPECT_GE((*live).rounds, 1u);
        EXPECT_GT((*live).stopCopyPages, 0u);

        // The source copy is dead; only the target finishes.
        dst.run();
        const system::ExitResult* r = dst.resultOf((*live).targetPid);
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->status, ref.status) << workload;
        EXPECT_EQ(workloads::resultOf(dst, workload), ref.checksum)
            << workload;
    }
}

TEST(MigrateLive, ReplayedStreamAbortsAndVictimSurvives)
{
    const std::uint64_t seed = 42;
    system::System src(victimConfig("wl.victim.compute", seed));
    workloads::registerAll(src);
    system::System dst(victimConfig("wl.victim.compute", seed));
    workloads::registerAll(dst);

    Pid pid = src.launch("wl.victim.compute");
    migrate::LiveOptions lopts;
    lopts.nonce = seed ^ 0x11fe;
    lopts.entriesPerRound = 12;
    std::vector<std::uint8_t> first;
    std::uint64_t replays = 0;
    lopts.interceptSegment = [&](std::uint64_t round,
                                 std::vector<std::uint8_t>& seg) {
        if (round == 0) {
            first = seg;
            return;
        }
        seg = first;
        ++replays;
    };
    auto live = migrate::migrateLive(src, pid, dst, lopts);
    ASSERT_FALSE(live.ok());
    EXPECT_EQ(live.error(), MigrateError::BadMac);
    EXPECT_GE(replays, 1u);

    // The aborted migration must leave the victim able to finish on
    // the source with a correct result.
    RunRef ref = referenceRun("wl.victim.compute", seed);
    src.run();
    const system::ExitResult* r = src.resultOf(pid);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->status, ref.status);
    EXPECT_EQ(workloads::resultOf(src, "wl.victim.compute"),
              ref.checksum);
}

} // namespace
