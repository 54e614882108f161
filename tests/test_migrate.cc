/**
 * @file
 * Checkpoint/restore and live-migration tests: image-format round
 * trips and refusals, canonical (byte-identical) serialization,
 * deterministic resume across machines, and the stream-replay defense.
 */

#include "base/bytes.hh"
#include "base/logging.hh"
#include "cloak/engine.hh"
#include "cloak/metadata.hh"
#include "crypto/sha256.hh"
#include "migrate/checkpoint.hh"
#include "migrate/live.hh"
#include "mutate.hh"
#include "system/system.hh"
#include "vmm/vcpu.hh"
#include "workloads/workloads.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
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
    PayloadWriter a;
    a.u64(0x1122334455667788ull);
    a.str("hello");
    writer.append(RecordType::Manifest, a.view());
    PayloadWriter b;
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

TEST(MigrateImage, ChainRoundTrip)
{
    const crypto::Digest key = testKey(0x5a);
    std::vector<std::uint8_t> image = sampleImage(key);

    migrate::ImageReader reader(key, image);
    auto first = reader.next();
    ASSERT_TRUE(first.ok());
    EXPECT_EQ((*first).type, RecordType::Manifest);
    PayloadReader pr((*first).payload);
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
    PayloadWriter p;
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

TEST(MigrateCheckpoint, SystemHoldingAProcessThatNeverRanTearsDown)
{
    // A restored process, and a launched one, whose System goes out of
    // scope without run(): teardown ends both.
    system::System src(victimConfig("wl.victim.compute", 7));
    workloads::registerAll(src);
    Pid pid = launchFrozen(src, "wl.victim.compute", 16);
    migrate::CheckpointOptions copts;
    copts.nonce = 3;
    auto ckpt = migrate::checkpoint(src, pid, copts);
    ASSERT_TRUE(ckpt.ok());
    {
        system::System dst(victimConfig("wl.victim.compute", 7));
        workloads::registerAll(dst);
        auto restored =
            migrate::restore(dst, (*ckpt).image, (*ckpt).ticket);
        ASSERT_TRUE(restored.ok());
        Pid launched = dst.launch("wl.victim.compute");
        EXPECT_FALSE(dst.kernel().isFrozen((*restored).pid));
        EXPECT_FALSE(dst.kernel().isFrozen(launched));
    }
    src.killFrozen(pid, "checkpointed");
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

/** A checkpoint of wl.victim.compute (seed 7, 16 entries, nonce 5)
 *  split into its records, End excluded. */
struct SplitImage
{
    migrate::Ticket ticket;
    crypto::Digest key{};
    std::vector<migrate::Record> records;

    SplitImage()
    {
        system::System src(victimConfig("wl.victim.compute", 7));
        workloads::registerAll(src);
        Pid pid = launchFrozen(src, "wl.victim.compute", 16);
        migrate::CheckpointOptions copts;
        copts.nonce = 5;
        auto ckpt = migrate::checkpoint(src, pid, copts);
        EXPECT_TRUE(ckpt.ok());
        src.killFrozen(pid, "checkpointed");
        ticket = (*ckpt).ticket;
        key = src.cloak()->migrationKey(copts.nonce);
        migrate::ImageReader reader(key, (*ckpt).image);
        for (auto rec = reader.next(); (*rec).type != RecordType::End;
             rec = reader.next())
            records.push_back(*rec);
    }

    /** @p recs chained under the image's key: only the decoder can
     *  refuse what they say. */
    std::vector<std::uint8_t>
    chain(const std::vector<migrate::Record>& recs) const
    {
        migrate::ImageWriter writer(key);
        for (const migrate::Record& r : recs)
            writer.append(r.type, r.payload);
        return writer.finish();
    }
};

/** A fresh restore target for wl.victim.compute. */
std::unique_ptr<system::System>
computeTarget()
{
    auto sys =
        std::make_unique<system::System>(victimConfig("wl.victim.compute", 7));
    workloads::registerAll(*sys);
    return sys;
}

TEST(MigrateCheckpoint, EveryMutatedStateRecordIsRefusedOrRoundTrips)
{
    const SplitImage split;
    // Each mutant of one state record (PageData carries no state to
    // decode). A refusal leaves the target without a process; an
    // accepted image must checkpoint back to exactly its own bytes.
    // An accepted mutant leaves its restored process (and the swap
    // slots its pages fill) on the target, so the next mutant gets a
    // fresh target.
    std::unique_ptr<system::System> dst = computeTarget();
    std::size_t accepted = 0, refused = 0;
    // A killed mutant whose page metadata was flipped fails its
    // integrity check on the way out, and says so once per mutant.
    LogSink logged = setLogSink([](LogLevel, const std::string&) {});
    for (std::size_t at = 0; at < split.records.size(); ++at) {
        RecordType type = split.records[at].type;
        if (type != RecordType::Process && type != RecordType::Vma &&
            type != RecordType::Region && type != RecordType::Resource)
            continue;
        test::forEachMutant(split.records[at].payload, [&](const auto& m) {
            if (HasFailure())
                return;
            std::vector<migrate::Record> recs = split.records;
            recs[at].payload = m;
            std::vector<std::uint8_t> image = split.chain(recs);
            auto restored = migrate::restore(*dst, image, split.ticket);
            if (!restored.ok()) {
                EXPECT_TRUE(dst->kernel().pids().empty());
                ++refused;
                return;
            }
            migrate::CheckpointOptions copts;
            copts.nonce = 5;
            auto again = migrate::checkpoint(*dst, (*restored).pid, copts);
            EXPECT_TRUE(again.ok() && (*again).image == image)
                << "record " << at << ", a mutant of " << m.size()
                << " bytes";
            dst = computeTarget();
            ++accepted;
        });
    }
    setLogSink(logged);
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(refused, 0u);
}

TEST(MigrateCheckpoint, NonCanonicalRegionsAreRefused)
{
    // Region layouts no single bit flip reaches. Each would be
    // restored differently from how it reads (an overlap would stop
    // the simulator in registerRegion), so each is refused whole.
    const SplitImage split;
    struct RegionRec
    {
        GuestVA start;
        std::uint64_t pages, resource, offset;
    };
    std::vector<std::size_t> at; // Where the Region records sit.
    std::vector<RegionRec> regions;
    for (std::size_t i = 0; i < split.records.size(); ++i) {
        if (split.records[i].type != RecordType::Region)
            continue;
        PayloadReader in(split.records[i].payload);
        at.push_back(i);
        regions.push_back({in.u64(), in.u64(), in.u64(), in.u64()});
    }
    // Three regions over three resources, the first two of them at
    // least two pages long.
    ASSERT_EQ(regions.size(), 3u);
    ASSERT_GE(regions[0].pages, 2u);
    ASSERT_GE(regions[1].pages, 2u);
    // The image with its Region records replaced by @p layout; a
    // fourth region goes after the third.
    auto with = [&](const std::vector<RegionRec>& layout) {
        std::vector<migrate::Record> recs = split.records;
        for (std::size_t k = 0; k < layout.size(); ++k) {
            PayloadWriter w;
            w.u64(layout[k].start);
            w.u64(layout[k].pages);
            w.u64(layout[k].resource);
            w.u64(layout[k].offset);
            migrate::Record rec{RecordType::Region, w.take()};
            if (k < at.size())
                recs[at[k]] = rec;
            else
                recs.insert(recs.begin() + at.back() + 1, rec);
        }
        return split.chain(recs);
    };
    const RegionRec& a = regions[0];
    const RegionRec& b = regions[1];
    const std::uint64_t half = b.pages / 2;
    const std::vector<std::vector<RegionRec>> layouts = {
        // The third region moved onto the first page of the first.
        {a, b, {a.start, 1, 2, 0}},
        // The first region starting mid-page, one page shorter.
        {{a.start + 16, a.pages - 1, 0, 0}, b, regions[2]},
        // The second region split around the third, so resources are
        // named 0, 2, 1, 2: not in order of first appearance.
        {a, {b.start, half, 2, 0}, {regions[2].start, 1, 1, 0},
         {b.start + half * pageSize, b.pages - half, 2, half}},
    };
    auto dst = computeTarget();
    for (std::size_t k = 0; k < layouts.size(); ++k) {
        auto r = migrate::restore(*dst, with(layouts[k]), split.ticket);
        ASSERT_FALSE(r.ok()) << "layout " << k;
        EXPECT_EQ(r.error(), MigrateError::BadRecord) << "layout " << k;
        EXPECT_TRUE(dst->kernel().pids().empty());
    }
}

/** A cloaked program that writes /cloaked/<args[0]> (its seal names
 *  the program's identity as the key's owner), then traps getpid 200
 *  times so it can be frozen. */
os::Program
fileKeeper()
{
    return os::Program{[](os::Env& env) {
        env.mkdir("/cloaked");
        std::int64_t fd = env.open("/cloaked/" + env.args().at(0),
                                   os::openCreate | os::openWrite);
        if (fd < 0)
            return 1;
        env.writeAll(fd, "kept");
        env.close(fd);
        for (int i = 0; i < 200; ++i)
            env.getpid();
        return 0;
    }, true, 64};
}

/** The shim's file key for a protected path. */
std::uint64_t
fileKeyOf(const std::string& path)
{
    return loadLe64(crypto::Sha256::hash(std::span<const std::uint8_t>(
                        reinterpret_cast<const std::uint8_t*>(path.data()),
                        path.size()))
                        .data());
}

/** The (file key, version) of every SealVersion record of @p image. */
std::map<std::uint64_t, std::uint64_t>
floorsIn(const crypto::Digest& key, std::span<const std::uint8_t> image)
{
    std::map<std::uint64_t, std::uint64_t> floors;
    migrate::ImageReader reader(key, image);
    for (auto rec = reader.next(); (*rec).type != RecordType::End;
         rec = reader.next()) {
        if ((*rec).type != RecordType::SealVersion)
            continue;
        PayloadReader in((*rec).payload);
        std::uint64_t file_key = in.u64();
        floors[file_key] = in.u64();
    }
    return floors;
}

TEST(MigrateCheckpoint, ImageCarriesNoOtherIdentitysFileState)
{
    // Another program sealed /cloaked/x on this machine: its bundle
    // and its floor are not the compute victim's to carry.
    system::System src(victimConfig("wl.victim.compute", 7));
    workloads::registerAll(src);
    src.addProgram("keeper", fileKeeper());
    ASSERT_EQ(src.runProgram("keeper", {"x"}).status, 0);
    ASSERT_EQ(src.cloak()->metadata().lastSealedVersion(
                  fileKeyOf("/cloaked/x")),
              1u);
    Pid pid = launchFrozen(src, "wl.victim.compute", 16);
    auto ckpt = migrate::checkpoint(src, pid, {});
    ASSERT_TRUE(ckpt.ok());
    src.killFrozen(pid, "checkpointed");

    migrate::ImageReader reader(src.cloak()->migrationKey(1),
                                (*ckpt).image);
    for (auto rec = reader.next(); (*rec).type != RecordType::End;
         rec = reader.next()) {
        // Type 7 carried a sealed bundle in format 1.
        EXPECT_NE(static_cast<std::uint32_t>((*rec).type), 7u);
    }
    EXPECT_TRUE(
        floorsIn(src.cloak()->migrationKey(1), (*ckpt).image).empty());
}

TEST(MigrateCheckpoint, OwnedFloorsTravelWithTheirIdentity)
{
    system::System src(victimConfig("wl.victim.compute", 7));
    src.addProgram("keeper", fileKeeper());
    src.addProgram("other", fileKeeper());
    ASSERT_EQ(src.runProgram("other", {"y"}).status, 0);
    Pid pid = src.launch("keeper", {"k"});
    src.kernel().requestFreeze(pid, 100);
    src.run();
    ASSERT_TRUE(src.kernel().isFrozen(pid));
    auto ckpt = migrate::checkpoint(src, pid, {});
    ASSERT_TRUE(ckpt.ok());
    src.killFrozen(pid, "checkpointed");

    // Only the floor keeper owns travels; other's floor for y stays.
    const std::uint64_t k = fileKeyOf("/cloaked/k");
    using Floors = std::map<std::uint64_t, std::uint64_t>;
    EXPECT_EQ(floorsIn(src.cloak()->migrationKey(1), (*ckpt).image),
              (Floors{{k, 1}}));

    // Restore onto a target whose store already holds k at
    // @p prior_version for @p prior_owner (none at 0); return the
    // floors keeper and other own there afterwards.
    const crypto::Digest keeper = cloak::programIdentity("keeper");
    const crypto::Digest other = cloak::programIdentity("other");
    using Owned = std::pair<Floors, Floors>;
    auto restoredOn = [&](std::uint64_t prior_version,
                          const crypto::Digest& prior_owner) {
        system::System dst(victimConfig("wl.victim.compute", 7));
        dst.addProgram("keeper", fileKeeper());
        cloak::MetadataStore& store = dst.cloak()->metadata();
        if (prior_version != 0)
            store.importFloors({{k, prior_version}}, prior_owner);
        EXPECT_TRUE(
            migrate::restore(dst, (*ckpt).image, (*ckpt).ticket).ok());
        return Owned{store.floorsOwnedBy(keeper), store.floorsOwnedBy(other)};
    };
    // A fresh target takes the floor, owned by the same identity.
    EXPECT_EQ(restoredOn(0, keeper), (Owned{{{k, 1}}, {}}));
    // An import never lowers a version...
    EXPECT_EQ(restoredOn(9, keeper), (Owned{{{k, 9}}, {}}));
    // ...and never changes an existing owner.
    EXPECT_EQ(restoredOn(5, other), (Owned{{}, {{k, 5}}}));
}

TEST(MigrateCheckpoint, RegionOverAFileResourceIsRefused)
{
    // A domain that registered a region over its own protected file,
    // with no descriptor or file mapping open: its pages' ciphertext
    // is bound to a bundle that stays on this machine's disk.
    system::System src(victimConfig("wl.victim.compute", 7));
    src.addProgram("squatter", os::Program{[](os::Env& env) {
        std::array<std::uint64_t, 1> key{0x5157};
        std::int64_t res =
            env.vcpu().hypercall(vmm::Hypercall::CloakAttachFile, key);
        GuestVA va = env.allocUncloakedPages(1);
        std::array<std::uint64_t, 4> region{
            va, 1, static_cast<std::uint64_t>(res), 0};
        if (res <= 0 ||
            env.vcpu().hypercall(vmm::Hypercall::CloakRegisterRegion,
                                 region) < 0)
            return 1;
        for (int i = 0; i < 200; ++i)
            env.getpid();
        return 0;
    }, true, 64});
    Pid pid = src.launch("squatter");
    src.kernel().requestFreeze(pid, 100);
    src.run();
    ASSERT_TRUE(src.kernel().isFrozen(pid));
    auto ckpt = migrate::checkpoint(src, pid, {});
    ASSERT_FALSE(ckpt.ok());
    EXPECT_EQ(ckpt.error(), MigrateError::UnsupportedState);
    src.killFrozen(pid, "refused");
}

TEST(MigrateCheckpoint, FileKeyIdIsRefused)
{
    // A Resource record whose key id carries the file tag would import
    // a protected file's key into a private region.
    const SplitImage split;
    std::vector<migrate::Record> recs = split.records;
    auto res = std::find_if(recs.begin(), recs.end(), [](const auto& r) {
        return r.type == RecordType::Resource;
    });
    ASSERT_NE(res, recs.end());
    // Layout: index u64, key id u64, ...; the tag is the key id's top
    // bit, the last byte of its little-endian u64.
    res->payload[15] |= 0x80;
    auto dst = computeTarget();
    auto r = migrate::restore(*dst, split.chain(recs), split.ticket);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), MigrateError::BadRecord);
    EXPECT_TRUE(dst->kernel().pids().empty());
}

TEST(MigrateCheckpoint, NonCanonicalFloorsAreRefused)
{
    // SealVersion records come in ascending key order, each a sealed
    // version; anything else would re-encode differently, so it is
    // refused whole. Canonical floors restore and re-encode exactly.
    const SplitImage split;
    auto with = [&](std::vector<std::pair<std::uint64_t, std::uint64_t>>
                        floors) {
        std::vector<migrate::Record> recs = split.records;
        for (const auto& [file_key, version] : floors) {
            PayloadWriter w;
            w.u64(file_key);
            w.u64(version);
            recs.push_back({RecordType::SealVersion, w.take()});
        }
        return split.chain(recs);
    };
    auto dst = computeTarget();
    for (const auto& floors :
         {std::vector<std::pair<std::uint64_t, std::uint64_t>>{{5, 0}},
          {{5, 1}, {5, 2}},
          {{6, 1}, {5, 1}}}) {
        auto r = migrate::restore(*dst, with(floors), split.ticket);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error(), MigrateError::BadRecord);
        EXPECT_TRUE(dst->kernel().pids().empty());
    }
    const std::vector<std::uint8_t> canonical = with({{5, 1}, {6, 2}});
    auto r = migrate::restore(*dst, canonical, split.ticket);
    ASSERT_TRUE(r.ok());
    migrate::CheckpointOptions copts;
    copts.nonce = 5;
    auto again = migrate::checkpoint(*dst, (*r).pid, copts);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ((*again).image, canonical);
}

/** SHA-256 of @p bytes, in lowercase hex. */
std::string
digestHex(std::span<const std::uint8_t> bytes)
{
    return toHex(crypto::Sha256::hash(bytes));
}

TEST(MigrateCheckpoint, ImageBytesArePinned)
{
    // A checkpoint image and a sealed bundle are read by another
    // machine (or a later boot), so their bytes are a format. A digest
    // that moves here is a format change: make it on purpose, with a
    // new imageFormatVersion, or not at all.
    struct Cut
    {
        const char* workload;
        std::uint64_t entries;
        const char* sha256;
    };
    const Cut cuts[] = {
        {"wl.victim.compute", 12,
         "910abda08dae58793547c2100c30fe713b0e3bf151120ea1e5b961578d7d5ac3"},
        {"wl.victim.compute", 24,
         "b01b321fb7567a4edf7090c21b098d63a00696bdcfa76560adfbfd87dc688242"},
        {"wl.victim.paging", 12,
         "3c3b6278dbfc630a01b0c5fab77d23357590104fbd42137d9c6705551eae934e"},
        {"wl.victim.paging", 24,
         "14e026b9ed962475e8662c6a1fad8331554fda6869d39e6f823949243d17f71e"},
    };
    for (const Cut& c : cuts) {
        system::System sys(victimConfig(c.workload, 42));
        workloads::registerAll(sys);
        Pid pid = launchFrozen(sys, c.workload, c.entries);
        auto ckpt = migrate::checkpoint(sys, pid, {});
        ASSERT_TRUE(ckpt.ok()) << c.workload;
        EXPECT_EQ(digestHex((*ckpt).image), c.sha256)
            << c.workload << " after " << c.entries << " entries";
        sys.killFrozen(pid, "pinned");
    }

    // One fixed sealed bundle: two pages of a file resource, sealed
    // under a fixed key for a fixed owner.
    sim::CostModel cost;
    cloak::MetadataStore store(cost, 4);
    cloak::Resource& file = store.createResource(1, true, 0x77);
    for (std::uint8_t idx : {0, 5}) {
        cloak::PageMeta& meta = store.page(file, idx);
        meta.version = idx + 3u;
        meta.initialized = idx == 0;
        meta.iv.fill(idx + 1);
        meta.hash.fill(0xa0 + idx);
    }
    crypto::Digest key;
    key.fill(0x42);
    std::vector<std::uint8_t> bundle =
        store.seal(file, crypto::HmacKey(key),
                   cloak::programIdentity("wl.victim.fileio"));
    EXPECT_EQ(digestHex(bundle),
              "82a202ebf8ae1e1926e4a71ca58c5a0886b696db3134860052726e7d77693f14");
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
    // The parent's CloakPrepareFork and CloakSnapshotFork, and the
    // CloakRegisterRegion of its waitpid scratch page. Each launch
    // binds its thread and the child attaches inside its own launch,
    // so neither launch adds a hypercall.
    EXPECT_EQ(dst.vmm().stats().value("hypercalls"), 3u);
    EXPECT_EQ(dst.cloak()->stats().value("domains_destroyed"),
              dst.cloak()->stats().value("domains_created"));
}

/** A System's VMM entries outside the secure control transfer: every
 *  world switch but the trap and interrupt round trips around kernel
 *  entries, and the hypercalls among them. */
struct VmmEntries
{
    std::uint64_t switches = 0;
    std::uint64_t hypercalls = 0;

    VmmEntries
    operator-(const VmmEntries& o) const
    {
        return {switches - o.switches, hypercalls - o.hypercalls};
    }
};

VmmEntries
vmmEntries(system::System& sys)
{
    const StatGroup& ev = sys.machine().cost().stats();
    std::uint64_t transfers =
        ev.value("cloak_trap_enter") + ev.value("cloak_trap_return") +
        ev.value("cloak_intr_enter") + ev.value("cloak_intr_return");
    return {sys.vmm().stats().value("world_switches") - transfers,
            ev.value("hypercall")};
}

/** A cloaked program that notes @p sys's VMM entries as its body
 *  starts, then gives a freeze somewhere to land. */
os::Program
entryProbe(system::System& sys, std::vector<VmmEntries>& starts)
{
    return os::Program{[&sys, &starts](os::Env& env) {
        starts.push_back(vmmEntries(sys));
        for (int i = 0; i < 32; ++i)
            env.getpid();
        return 0;
    }, true, 32};
}

TEST(MigrateCheckpoint, EveryAttachIsOneWorldSwitch)
{
    // A fresh launch, a fork child and a restored process each enter
    // the VMM exactly once before their body runs: the launch event,
    // which registers a fresh domain's regions, attaches a fork child
    // and binds the thread itself, with no hypercall.
    auto cfg = victimConfig("wl.victim.compute", 42);
    system::System src(cfg);
    std::vector<VmmEntries> src_starts;
    src.addProgram("probe", entryProbe(src, src_starts));
    VmmEntries before = vmmEntries(src);
    Pid pid = launchFrozen(src, "probe", 12);
    ASSERT_EQ(src_starts.size(), 1u);
    VmmEntries fresh = src_starts[0] - before;
    EXPECT_EQ(fresh.switches, 1u);
    EXPECT_EQ(fresh.hypercalls, 0u);
    EXPECT_EQ(src.machine().cost().stats().value("cloak_launch"), 1u);

    auto ckpt = migrate::checkpoint(src, pid, {});
    ASSERT_TRUE(ckpt.ok()) << migrate::migrateErrorName(ckpt.error());
    src.killFrozen(pid, "migrated away");
    system::System dst(cfg);
    std::vector<VmmEntries> dst_starts;
    dst.addProgram("probe", entryProbe(dst, dst_starts));
    auto restored = migrate::restore(dst, (*ckpt).image, (*ckpt).ticket);
    ASSERT_TRUE(restored.ok())
        << migrate::migrateErrorName(restored.error());
    before = vmmEntries(dst);
    dst.run();
    ASSERT_EQ(dst_starts.size(), 1u);
    VmmEntries resumed = dst_starts[0] - before;
    EXPECT_EQ(resumed.switches, 1u);
    EXPECT_EQ(resumed.hypercalls, 0u);
    EXPECT_EQ(dst.machine().cost().stats().value("cloak_restore_launch"),
              1u);
    EXPECT_EQ(dst.results().at((*restored).pid).status, 0);

    system::System sys(cfg);
    VmmEntries mark;
    VmmEntries child_start;
    bool marked = false;
    bool child_after_mark = false;
    sys.addProgram("forker", os::Program{[&](os::Env& env) {
        Pid child = env.fork([&](os::Env&) {
            child_after_mark = marked;
            child_start = vmmEntries(sys);
            return 0;
        });
        mark = vmmEntries(sys);
        marked = true;
        // A raw wait with no status slot: Env::waitpid would map one.
        return env.syscall(os::Sys::WaitPid,
                           {static_cast<std::uint64_t>(child), 0}) == child
                   ? 0
                   : 1;
    }, true, 32});
    auto r = sys.runProgram("forker");
    EXPECT_EQ(r.status, 0) << r.killReason;
    ASSERT_EQ(sys.results().size(), 2u);
    for (const auto& [p, res] : sys.results())
        EXPECT_EQ(res.status, 0) << "pid " << p << ": " << res.killReason;
    ASSERT_TRUE(child_after_mark);
    VmmEntries forked = child_start - mark;
    EXPECT_EQ(forked.switches, 1u);
    EXPECT_EQ(forked.hypercalls, 0u);
    EXPECT_EQ(sys.machine().cost().stats().value("cloak_fork_launch"), 1u);
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
