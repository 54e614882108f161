/**
 * @file
 * Batched syscall submission tests: batched-vs-serial equivalence
 * (identical guest results and VFS state, strictly fewer world
 * switches), depth 1 through the ring like any depth, staging that
 * maps nothing, ring overflow/underflow rejection, malformed-descriptor
 * handling, and the ring codec's byte layout.
 */

#include "base/bytes.hh"
#include "cloak/engine.hh"
#include "os/attack_hooks.hh"
#include "os/env.hh"
#include "system/system.hh"
#include "workloads/workloads.hh"

#include <gtest/gtest.h>

#include <array>

namespace osh
{
namespace
{

using os::Env;
using system::System;
using system::SystemConfig;

SystemConfig
config(bool cloaked)
{
    SystemConfig cfg;
    cfg.cloakingEnabled = cloaked;
    cfg.guestFrames = 2048;
    cfg.preemptOpsPerTick = 0;
    cfg.seed = 97;
    return cfg;
}

system::ExitResult
run(System& sys, std::function<int(Env&)> body)
{
    sys.addProgram("batchtest", os::Program{std::move(body), true, 64});
    return sys.runProgram("batchtest");
}

// ---------------------------------------------------------------------------
// Batched-vs-serial equivalence
// ---------------------------------------------------------------------------

struct ServeOutcome
{
    std::string result;   // workload result hash
    std::string response; // final sink file contents
    std::uint64_t switches;
    std::uint64_t cycles;
};

ServeOutcome
serveFiles(bool cloaked, const std::string& depth)
{
    System sys(config(cloaked));
    workloads::registerAll(sys);
    std::vector<std::string> argv = {"64", "24", "2048", "1"};
    if (!depth.empty())
        argv.push_back(depth);
    auto r = sys.runProgram("wl.fileserver", argv);
    EXPECT_EQ(r.status, 0) << r.killReason;
    return {workloads::resultOf(sys, "wl.fileserver"),
            workloads::readGuestFile(sys, "/www/response"),
            sys.vmm().stats().value("world_switches"), sys.cycles()};
}

TEST(BatchEquivalence, CloakedBatchedMatchesSerial)
{
    ServeOutcome serial = serveFiles(true, "");
    ServeOutcome batched = serveFiles(true, "8");

    // Same request stream -> identical responses, identical result
    // hash, identical final VFS state. Only the trap count may differ.
    EXPECT_EQ(batched.result, serial.result);
    EXPECT_EQ(batched.response, serial.response);
    EXPECT_FALSE(serial.result.empty());

    // The point of the ring: strictly fewer secure control transfers.
    EXPECT_LT(batched.switches, serial.switches);
    EXPECT_LT(batched.cycles, serial.cycles);
}

TEST(BatchEquivalence, NativeBatchedMatchesSerial)
{
    // Uncloaked, the kernel ring is exercised directly (no shim).
    ServeOutcome serial = serveFiles(false, "");
    ServeOutcome batched = serveFiles(false, "8");
    EXPECT_EQ(batched.result, serial.result);
    EXPECT_EQ(batched.response, serial.response);
}

TEST(BatchEquivalence, OversizedTransfersFallBackCorrectly)
{
    // 64 KiB requests x depth 8 exceed the shim's staging arena; the
    // shim must flush/fall back transparently with identical results.
    auto serve = [](const std::string& depth) {
        System sys(config(true));
        workloads::registerAll(sys);
        std::vector<std::string> argv = {"256", "8", "65536", "1"};
        if (!depth.empty())
            argv.push_back(depth);
        auto r = sys.runProgram("wl.fileserver", argv);
        EXPECT_EQ(r.status, 0) << r.killReason;
        return std::pair{workloads::resultOf(sys, "wl.fileserver"),
                         workloads::readGuestFile(sys, "/www/response")};
    };
    auto serial = serve("");
    auto batched = serve("8");
    EXPECT_EQ(batched.first, serial.first);
    EXPECT_EQ(batched.second, serial.second);
}

// ---------------------------------------------------------------------------
// Sys::Clock serial equivalence inside a batch
// ---------------------------------------------------------------------------

TEST(BatchClock, BatchedClockIsSerialEquivalent)
{
    // The ring dispatches entries live, one at a time, so a Clock
    // entry must observe the time at ITS dispatch position — after the
    // cost of every earlier entry in the batch, before every later
    // one — exactly as serially-issued clocks bracketing the same
    // work would. A kernel that snapshotted the clock once per batch
    // (or reordered dispatch) would flatten these strict inequalities.
    for (bool cloaked : {true, false}) {
        System sys(config(cloaked));
        auto r = run(sys, [](Env& env) {
            GuestVA buf = env.allocPages(1);
            std::int64_t fd =
                env.open("/clk.dat", os::openCreate | os::openRead |
                                         os::openWrite);
            if (fd < 0)
                return 1;
            if (env.write(static_cast<std::uint64_t>(fd), buf,
                          pageSize) !=
                static_cast<std::int64_t>(pageSize))
                return 2;
            Cycles before = env.clock();
            std::vector<os::BatchEntry> entries = {
                {os::Sys::Clock, {}},
                {os::Sys::Pread,
                 {static_cast<std::uint64_t>(fd), buf, pageSize, 0}},
                {os::Sys::Clock, {}},
                {os::Sys::Clock, {}},
            };
            std::vector<std::int64_t> results;
            if (env.submitBatch(entries, results) != 4)
                return 3;
            Cycles after = env.clock();
            Cycles c0 = static_cast<Cycles>(results[0]);
            Cycles c2 = static_cast<Cycles>(results[2]);
            Cycles c3 = static_cast<Cycles>(results[3]);
            if (!(before < c0))
                return 4; // batch clock predates submission
            if (!(c0 < c2))
                return 5; // pread's cost invisible to the next clock
            if (!(c2 < c3))
                return 6; // adjacent entries collapsed to one instant
            if (!(c3 < after))
                return 7; // batch clock postdates completion
            // The pread must dominate the gap between its bracketing
            // clocks (disk access costs dwarf dispatch overhead).
            if (c2 - c0 < (c3 - c2))
                return 8;
            env.close(static_cast<std::uint64_t>(fd));
            return 0;
        });
        EXPECT_EQ(r.status, 0)
            << (cloaked ? "cloaked: " : "native: ") << r.killReason;
    }
}

// ---------------------------------------------------------------------------
// Depth 1 takes the ring like any other depth
// ---------------------------------------------------------------------------

TEST(BatchDepthOne, SingleEntryBatchMatchesDirectCall)
{
    auto measure = [](bool batched) {
        System sys(config(true));
        std::uint64_t switches = 0;
        auto r = run(sys, [&sys, &switches, batched](Env& env) {
            std::int64_t fd = env.open("/d.dat", os::openCreate |
                                                     os::openRead |
                                                         os::openWrite);
            GuestVA buf = env.allocPages(1);
            env.write(static_cast<std::uint64_t>(fd), buf, pageSize);
            std::uint64_t before = 0;
            for (int i = 0; i < 17; ++i) {
                // Count from the second call: the first batch also
                // maps the app's own ring page and first touches the
                // bounce area's.
                if (i == 1)
                    before = sys.vmm().stats().value("world_switches");
                std::int64_t got;
                if (batched) {
                    std::vector<os::BatchEntry> e = {
                        {os::Sys::Pread,
                         {static_cast<std::uint64_t>(fd), buf, pageSize,
                          0}}};
                    std::vector<std::int64_t> res;
                    if (env.submitBatch(e, res) != 1)
                        return 1;
                    got = res[0];
                } else {
                    got = env.pread(static_cast<std::uint64_t>(fd), buf,
                                    pageSize, 0);
                }
                if (got != static_cast<std::int64_t>(pageSize))
                    return 2;
            }
            switches = sys.vmm().stats().value("world_switches") - before;
            env.close(static_cast<std::uint64_t>(fd));
            return 0;
        });
        EXPECT_EQ(r.status, 0) << r.killReason;
        return std::pair{switches,
                         sys.cloak()->stats().value("shim_batch_traps")};
    };
    auto [direct_sw, direct_traps] = measure(false);
    auto [batch_sw, batch_traps] = measure(true);

    // A depth-1 batch takes the kernel-facing ring, one ring trap per
    // batch, and costs the world switches of the direct call.
    EXPECT_EQ(batch_sw, direct_sw);
    EXPECT_EQ(direct_traps, 0u);
    EXPECT_EQ(batch_traps, 17u);
}

/** A hostile kernel: rewrites the echo token of every submitted
 *  descriptor before its single copy of the ring. */
class EchoTamper : public os::AttackHooks
{
  public:
    explicit EchoTamper(System& sys) : kernel_(sys.kernel())
    {
        kernel_.setAttackHooks(this);
    }

    ~EchoTamper() override { kernel_.setAttackHooks(nullptr); }

    void
    onBatchSubmit(os::Kernel& kernel, os::Thread& t, GuestVA sub_va,
                  std::uint64_t count) override
    {
        if (!kernel.currentProcess().cloaked)
            return;
        for (std::uint64_t i = 0; i < count; ++i) {
            GuestVA echo = sub_va + i * os::batchDescBytes + 6 * 8;
            std::array<std::uint8_t, 8> word{};
            storeLe64(word.data(), 0x5ca1ab1e);
            kernel.copyToUser(t, echo, word);
        }
        ++tampered;
    }

    std::uint64_t tampered = 0;

  private:
    os::Kernel& kernel_;
};

TEST(BatchDepthOne, RingTamperOnSingleEntryBatchKills)
{
    // One entry is no reason to skip the ring's checks: the forged
    // echo token comes back in the completion and the shim kills.
    System sys(config(true));
    EchoTamper attacker(sys);
    auto r = run(sys, [](Env& env) {
        std::vector<os::BatchEntry> e = {{os::Sys::GetPid, {}}};
        std::vector<std::int64_t> res;
        env.submitBatch(e, res);
        return 0;
    });
    EXPECT_EQ(attacker.tampered, 1u);
    EXPECT_TRUE(r.killed);
    EXPECT_NE(r.killReason.find("echo token mismatch"), std::string::npos)
        << r.killReason;
    EXPECT_EQ(sys.cloak()->stats().value("ring_violations"), 1u);
}

// ---------------------------------------------------------------------------
// Ring overflow / underflow and malformed descriptors
// ---------------------------------------------------------------------------

/** Hand-craft a submission ring so malformed fields reach the shim. */
GuestVA
writeRing(Env& env, GuestVA sub,
          const std::vector<std::array<std::uint64_t, 8>>& descs)
{
    std::vector<std::uint8_t> raw(descs.size() * os::batchDescBytes, 0);
    for (std::size_t i = 0; i < descs.size(); ++i)
        for (std::size_t w = 0; w < 8; ++w)
            storeLe64(raw.data() + i * os::batchDescBytes + 8 * w,
                      descs[i][w]);
    env.writeBytes(sub, raw);
    return sub + os::maxBatchDepth * os::batchDescBytes;
}

std::int64_t
completionAt(Env& env, GuestVA comp, std::uint64_t slot)
{
    std::vector<std::uint8_t> raw(os::batchCompBytes);
    env.readBytes(comp + slot * os::batchCompBytes, raw);
    return static_cast<std::int64_t>(loadLe64(raw.data()));
}

void
runRingTests(bool cloaked)
{
    System sys(config(cloaked));
    auto r = run(sys, [](Env& env) {
        GuestVA ring = env.allocPages(2);
        const std::uint64_t gp =
            static_cast<std::uint64_t>(os::Sys::GetPid);

        // Underflow and overflow: count 0 and count > maxBatchDepth
        // are rejected outright, no completions written.
        std::vector<std::array<std::uint64_t, 8>> one = {
            {gp, 0, 0, 0, 0, 0, 7, 0}};
        GuestVA comp = writeRing(env, ring, one);
        if (env.syscall(os::Sys::SubmitBatch, {ring, comp, 0}) !=
            -os::errInval)
            return 1;
        if (env.syscall(os::Sys::SubmitBatch,
                        {ring, comp, os::maxBatchDepth + 1}) !=
            -os::errInval)
            return 2;

        // A malformed descriptor (reserved word set) fails with
        // -errInval in its own completion slot while its neighbours
        // execute normally.
        std::vector<std::array<std::uint64_t, 8>> mixed = {
            {gp, 0, 0, 0, 0, 0, 11, 0},
            {gp, 0, 0, 0, 0, 0, 12, 0xdead},
            {gp, 0, 0, 0, 0, 0, 13, 0}};
        comp = writeRing(env, ring, mixed);
        if (env.syscall(os::Sys::SubmitBatch, {ring, comp, 3}) != 3)
            return 3;
        std::int64_t pid = static_cast<std::int64_t>(env.getpid());
        if (completionAt(env, comp, 0) != pid)
            return 4;
        if (completionAt(env, comp, 1) != -os::errInval)
            return 5;
        if (completionAt(env, comp, 2) != pid)
            return 6;

        // Non-batchable syscalls are refused per entry: open must not
        // be dispatchable from a ring, and a nested SubmitBatch is
        // rejected rather than recursed into.
        std::vector<std::array<std::uint64_t, 8>> bad = {
            {static_cast<std::uint64_t>(os::Sys::Open), 0, 0, 0, 0, 0,
             21, 0},
            {static_cast<std::uint64_t>(os::Sys::SubmitBatch), ring, 0,
             1, 0, 0, 22, 0},
            {gp, 0, 0, 0, 0, 0, 23, 0}};
        comp = writeRing(env, ring, bad);
        if (env.syscall(os::Sys::SubmitBatch, {ring, comp, 3}) != 3)
            return 7;
        if (completionAt(env, comp, 0) != -os::errInval)
            return 8;
        if (completionAt(env, comp, 1) != -os::errInval)
            return 9;
        if (completionAt(env, comp, 2) != pid)
            return 10;
        return 0;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(BatchRing, RejectionsCloaked) { runRingTests(true); }
TEST(BatchRing, RejectionsNative) { runRingTests(false); }

TEST(BatchRing, CodecMatchesTheHandPackedLayout)
{
    os::BatchDesc d;
    d.num = os::Sys::Pwrite;
    d.args = {3, 0x1000, 8, 1ull << 40, 5};
    d.echo = 0xfeedface;
    d.reserved = 9;
    std::vector<std::uint8_t> raw(os::batchDescBytes + 10, 0xff);
    os::encodeDescs(std::span(&d, 1), raw);
    const std::array<std::uint64_t, 8> words = {
        static_cast<std::uint64_t>(os::Sys::Pwrite), 3, 0x1000, 8,
        1ull << 40, 5, 0xfeedface, 9};
    for (std::size_t w = 0; w < words.size(); ++w)
        EXPECT_EQ(loadLe64(raw.data() + 8 * w), words[w]) << "word " << w;
    // The encoder writes only its entries.
    EXPECT_EQ(raw.back(), 0xff);

    // Decoders take whole entries only.
    std::array<os::BatchDesc, 2> back;
    ASSERT_EQ(os::decodeDescs(raw, back), 1u);
    EXPECT_EQ(back[0].num, d.num);
    EXPECT_EQ(back[0].args, d.args);
    EXPECT_EQ(back[0].echo, d.echo);
    EXPECT_EQ(back[0].reserved, d.reserved);

    os::BatchComp c{static_cast<std::uint64_t>(-os::errFBig), 77};
    std::vector<std::uint8_t> craw(os::batchCompBytes);
    os::encodeComps(std::span(&c, 1), craw);
    EXPECT_EQ(static_cast<std::int64_t>(loadLe64(craw.data())),
              -os::errFBig);
    EXPECT_EQ(loadLe64(craw.data() + 8), 77u);
    craw.pop_back();
    std::array<os::BatchComp, 1> cback;
    EXPECT_EQ(os::decodeComps(craw, cback), 0u);
}

TEST(BatchRing, EnvWrapperRejectsBadDepths)
{
    System sys(config(true));
    auto r = run(sys, [](Env& env) {
        std::vector<os::BatchEntry> none;
        std::vector<std::int64_t> res;
        if (env.submitBatch(none, res) != -os::errInval)
            return 1;
        std::vector<os::BatchEntry> many(
            os::maxBatchDepth + 1, os::BatchEntry{os::Sys::GetPid, {}});
        if (env.submitBatch(many, res) != -os::errInval)
            return 2;
        return 0;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

// ---------------------------------------------------------------------------
// The first batch maps nothing
// ---------------------------------------------------------------------------

TEST(BatchStaging, FirstBatchMapsNothing)
{
    // The shim stages batches in the bounce area it mapped at attach,
    // which a fork child inherits: neither the first batch of a
    // process nor that of its child adds a mapping. The app's own ring
    // is allocated up front so only the shim's work is measured.
    System sys(config(true));
    std::vector<std::int64_t> deltas;
    auto firstBatch = [&sys, &deltas](Env& env) {
        GuestVA ring = env.allocPages(1);
        std::vector<std::array<std::uint64_t, 8>> two = {
            {static_cast<std::uint64_t>(os::Sys::GetPid), 0, 0, 0, 0, 0,
             1, 0},
            {static_cast<std::uint64_t>(os::Sys::GetPpid), 0, 0, 0, 0, 0,
             2, 0}};
        GuestVA comp = writeRing(env, ring, two);
        std::uint64_t before = sys.kernel().stats().value("mmaps");
        if (env.syscall(os::Sys::SubmitBatch, {ring, comp, 2}) != 2)
            return false;
        deltas.push_back(static_cast<std::int64_t>(
            sys.kernel().stats().value("mmaps") - before));
        return completionAt(env, comp, 0) ==
               static_cast<std::int64_t>(env.getpid());
    };
    auto r = run(sys, [&firstBatch](Env& env) {
        if (!firstBatch(env))
            return 1;
        Pid child = env.fork(
            [&firstBatch](Env& c) { return firstBatch(c) ? 0 : 1; });
        int status = -1;
        if (env.waitpid(child, &status) != child || status != 0)
            return 2;
        return 0;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
    EXPECT_EQ(deltas, (std::vector<std::int64_t>{0, 0}));
    EXPECT_EQ(sys.cloak()->stats().value("shim_batch_traps"), 2u);
}

// ---------------------------------------------------------------------------
// Fstat through the ring: full, defined-byte completion
// ---------------------------------------------------------------------------

TEST(BatchRing, FstatWritesOnlyDefinedBytes)
{
    // A batched fstat copies exactly sizeof(StatBuf) fully-initialized
    // bytes: poison the destination and verify every byte inside the
    // struct is defined (matches a zeroed reference) and every byte
    // beyond it is untouched.
    System sys(config(true));
    auto r = run(sys, [](Env& env) {
        std::int64_t fd = env.open("/s.dat", os::openCreate |
                                                 os::openWrite);
        env.writeAll(static_cast<std::uint64_t>(fd), "abcdef");

        GuestVA buf = env.allocPages(1);
        std::vector<std::uint8_t> poison(64, 0xa5);
        env.writeBytes(buf, poison);

        std::vector<os::BatchEntry> e = {
            {os::Sys::Fstat, {static_cast<std::uint64_t>(fd), buf}}};
        std::vector<std::int64_t> res;
        if (env.submitBatch(e, res) != 1 || res[0] != 0)
            return 1;

        std::vector<std::uint8_t> got(64);
        env.readBytes(buf, got);

        os::StatBuf want{};
        want.size = 6;
        std::vector<std::uint8_t> ref(sizeof(os::StatBuf), 0);
        std::memcpy(ref.data(), &want, sizeof(want));
        ref[12] = got[12]; // inode is fd-assignment dependent
        ref[13] = got[13];
        ref[14] = got[14];
        ref[15] = got[15];
        for (std::size_t i = 0; i < sizeof(os::StatBuf); ++i)
            if (got[i] != ref[i])
                return 2; // uninitialized or wrong byte leaked through
        for (std::size_t i = sizeof(os::StatBuf); i < 64; ++i)
            if (got[i] != 0xa5)
                return 3; // wrote past the struct
        env.close(static_cast<std::uint64_t>(fd));
        return 0;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

// ---------------------------------------------------------------------------
// New syscalls: pread/pwrite/dup2 through the shim
// ---------------------------------------------------------------------------

TEST(BatchSyscalls, PreadPwriteDup2UnderCloaking)
{
    System sys(config(true));
    auto r = run(sys, [](Env& env) {
        // Regular file: marshalled pread/pwrite must not move the file
        // offset.
        std::int64_t fd = env.open("/p.dat", os::openCreate |
                                                 os::openRead |
                                                     os::openWrite);
        GuestVA buf = env.allocPages(1);
        env.store64(buf, 0x1122334455667788ull);
        if (env.pwrite(static_cast<std::uint64_t>(fd), buf, 8, 100) != 8)
            return 1;
        env.store64(buf, 0);
        if (env.pread(static_cast<std::uint64_t>(fd), buf, 8, 100) != 8)
            return 2;
        if (env.load64(buf) != 0x1122334455667788ull)
            return 3;
        if (env.lseek(static_cast<std::uint64_t>(fd), 0, os::seekCur) !=
            0)
            return 4; // offset moved
        // dup2 onto a fresh slot aliases the descriptor.
        if (env.dup2(static_cast<std::uint64_t>(fd), 9) != 9)
            return 5;
        env.store64(buf, 0);
        if (env.pread(9, buf, 8, 100) != 8 ||
            env.load64(buf) != 0x1122334455667788ull)
            return 6;
        env.close(9);
        env.close(static_cast<std::uint64_t>(fd));

        // Protected file: emulated pread/pwrite, offset stays put and
        // pwrite past EOF grows the file.
        env.mkdir("/cloaked");
        std::int64_t pfd = env.open("/cloaked/p.dat",
                                    os::openCreate | os::openRead |
                                        os::openWrite);
        env.store64(buf, 0xdeadbeefcafef00dull);
        if (env.pwrite(static_cast<std::uint64_t>(pfd), buf, 8,
                       2 * pageSize) != 8)
            return 7;
        env.store64(buf, 0);
        if (env.pread(static_cast<std::uint64_t>(pfd), buf, 8,
                      2 * pageSize) != 8 ||
            env.load64(buf) != 0xdeadbeefcafef00dull)
            return 8;
        os::StatBuf sb{};
        env.fstat(static_cast<std::uint64_t>(pfd), sb);
        if (sb.size != 2 * pageSize + 8)
            return 9;
        if (env.lseek(static_cast<std::uint64_t>(pfd), 0,
                      os::seekCur) != 0)
            return 10;
        // dup2 over a protected fd would yank the emulated file out
        // from under the shim: refused.
        std::int64_t ofd = env.open("/p.dat", os::openRead);
        if (env.dup2(static_cast<std::uint64_t>(ofd),
                     static_cast<std::uint64_t>(pfd)) != -os::errInval)
            return 11;
        env.close(static_cast<std::uint64_t>(ofd));
        env.close(static_cast<std::uint64_t>(pfd));
        return 0;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

} // namespace
} // namespace osh
