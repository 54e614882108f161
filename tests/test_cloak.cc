/**
 * @file
 * Full-system Overshadow integration tests: the security properties
 * (privacy and integrity against an actively malicious kernel), the
 * transparency property (identical results cloaked vs native), secure
 * control transfer, cloaked fork/exec, protected-file persistence and
 * paging of cloaked memory.
 */

#include "cloak/engine.hh"
#include "os/attack_hooks.hh"
#include "os/env.hh"
#include "system/system.hh"
#include "vmm/vcpu.hh"
#include "workloads/workloads.hh"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>

namespace osh
{
namespace
{

using os::Env;
using system::System;
using system::SystemConfig;

SystemConfig
cloakedConfig(std::uint64_t frames = 1024)
{
    SystemConfig cfg;
    cfg.cloakingEnabled = true;
    cfg.guestFrames = frames;
    cfg.preemptOpsPerTick = 0;
    return cfg;
}

SystemConfig
nativeConfig(std::uint64_t frames = 1024)
{
    SystemConfig cfg = cloakedConfig(frames);
    cfg.cloakingEnabled = false;
    return cfg;
}

constexpr std::uint64_t secretValue = 0x5ec23e7'0dadbeefull;

/** Secret at a fixed stack address so the hostile kernel can target it. */
constexpr GuestVA secretVa = os::stackTop - 256;

/**
 * A hand-written hostile kernel: the same blunt attack against every
 * process, cloaked or not. (The campaign's director skips uncloaked
 * state by design, so it cannot show the native contrast cases.)
 * Installs itself on construction and restores the honest kernel on
 * destruction, so declare it after its System.
 */
class HostileKernel : public os::AttackHooks
{
  public:
    explicit HostileKernel(System& sys) : kernel_(sys.kernel())
    {
        kernel_.setAttackHooks(this);
    }

    ~HostileKernel() override { kernel_.setAttackHooks(nullptr); }

    HostileKernel(const HostileKernel&) = delete;
    HostileKernel& operator=(const HostileKernel&) = delete;

    /** Peek at 64 bytes here on every syscall entry (0 = off). */
    GuestVA snoopVa = 0;
    /** Overwrite 16 bytes here on every syscall entry (0 = off). */
    GuestVA scribbleVa = 0;
    /** Record the register file seen at every syscall entry. */
    bool recordTrapFrames = false;
    /** Flip a byte of every page written to swap. */
    bool tamperSwap = false;
    /** On swap-in, serve the first version ever swapped out instead. */
    bool replaySwap = false;
    /** Scribble over the user buffer after read() completes. */
    bool corruptReadBuffers = false;

    std::vector<std::vector<std::uint8_t>> snoopedData;
    std::vector<vmm::RegisterFile> trapFrames;

    void
    onSyscallEntry(os::Kernel& kernel, os::Thread& t) override
    {
        if (recordTrapFrames)
            trapFrames.push_back(t.vcpu.regs());
        os::Process& p = kernel.currentProcess();
        if (snoopVa != 0 && kernel.validUserRange(p, snoopVa, 64, false)) {
            std::vector<std::uint8_t> peek(64);
            t.vcpu.readBytes(snoopVa, peek);
            snoopedData.push_back(std::move(peek));
        }
        if (scribbleVa != 0 &&
            kernel.validUserRange(p, scribbleVa, 16, true)) {
            std::array<std::uint8_t, 16> junk;
            junk.fill(0x66);
            t.vcpu.writeBytes(scribbleVa, junk);
        }
    }

    void
    onReadReturn(os::Kernel& kernel, os::Thread& t, GuestVA buf,
                 std::uint64_t len) override
    {
        if (!corruptReadBuffers)
            return;
        std::array<std::uint8_t, 16> junk;
        junk.fill(0xcc);
        std::size_t m = std::min<std::size_t>(junk.size(), len);
        kernel.copyToUser(t, buf,
                          std::span<const std::uint8_t>(junk.data(), m));
    }

    void
    onSwapOut(os::Kernel& kernel, os::SwapSlot slot,
              std::uint64_t replay_key) override
    {
        if (tamperSwap)
            kernel.swap().rawSlot(slot)[0] ^= 0xff;
        if (replaySwap)
            firstVersions_.emplace(replay_key, kernel.swap().rawSlot(slot));
    }

    void
    onSwapIn(os::Kernel&, os::SwapSlot, std::uint64_t replay_key,
             std::span<std::uint8_t> page) override
    {
        auto it = firstVersions_.find(replay_key);
        if (replaySwap && it != firstVersions_.end())
            std::memcpy(page.data(), it->second.data(), page.size());
    }

  private:
    os::Kernel& kernel_;
    std::map<std::uint64_t, std::array<std::uint8_t, pageSize>>
        firstVersions_;
};

system::ExitResult
runCloaked(System& sys, std::function<int(Env&)> body,
           const std::string& name = "victim")
{
    sys.addProgram(name, os::Program{std::move(body), true, 64});
    return sys.runProgram(name);
}

TEST(CloakPrivacy, KernelSnoopSeesOnlyCiphertext)
{
    System sys(cloakedConfig());
    HostileKernel evil(sys);
    evil.snoopVa = secretVa;

    auto r = runCloaked(sys, [](Env& env) {
        env.store64(secretVa, secretValue);
        env.store64(secretVa + 8, secretValue ^ 1);
        // Generate kernel entries (each snoops).
        for (int i = 0; i < 10; ++i)
            env.getpid();
        return env.load64(secretVa) == secretValue ? 0 : 1;
    });
    EXPECT_EQ(r.status, 0);
    EXPECT_FALSE(r.killed);

    const auto& snoops = evil.snoopedData;
    ASSERT_FALSE(snoops.empty());
    for (const auto& bytes : snoops) {
        std::uint64_t v0 = 0;
        std::memcpy(&v0, bytes.data(), 8);
        EXPECT_NE(v0, secretValue) << "kernel snooped plaintext";
    }
}

TEST(CloakPrivacy, NativeBaselineLeaks)
{
    // Sanity check of the attack itself: without Overshadow the same
    // snoop reads the secret in plaintext.
    System sys(nativeConfig());
    HostileKernel evil(sys);
    evil.snoopVa = secretVa;

    runCloaked(sys, [](Env& env) {
        env.store64(secretVa, secretValue);
        for (int i = 0; i < 5; ++i)
            env.getpid();
        return 0;
    });
    const auto& snoops = evil.snoopedData;
    ASSERT_FALSE(snoops.empty());
    bool leaked = false;
    for (const auto& bytes : snoops) {
        std::uint64_t v0 = 0;
        std::memcpy(&v0, bytes.data(), 8);
        leaked |= v0 == secretValue;
    }
    EXPECT_TRUE(leaked);
}

TEST(CloakIntegrity, KernelScribbleDetected)
{
    System sys(cloakedConfig());
    HostileKernel evil(sys);
    evil.scribbleVa = secretVa;

    auto r = runCloaked(sys, [](Env& env) {
        env.store64(secretVa, secretValue);
        env.getpid(); // kernel scribbles over the (now encrypted) page
        // Next access must detect the tampering, not return junk.
        return env.load64(secretVa) == secretValue ? 0 : 1;
    });
    EXPECT_TRUE(r.killed);
    EXPECT_NE(r.killReason.find("cloak violation"), std::string::npos);
    EXPECT_GE(sys.cloak()->auditLog().size(), 1u);
}

TEST(CloakIntegrity, SwapTamperDetectedCloaked)
{
    SystemConfig cfg = cloakedConfig(96);
    System sys(cfg);
    workloads::registerAll(sys);
    HostileKernel evil(sys);
    evil.tamperSwap = true;
    auto r = sys.runProgram("wl.memstress", {"200", "2"});
    EXPECT_TRUE(r.killed);
    EXPECT_NE(r.killReason.find("cloak violation"), std::string::npos);
}

TEST(CloakIntegrity, SwapTamperSilentlyCorruptsNative)
{
    // The contrast case: a native process gets corrupt data back and
    // never notices — exactly the failure mode Overshadow closes.
    auto checksum_with = [](bool tamper) {
        SystemConfig cfg = nativeConfig(96);
        System sys(cfg);
        workloads::registerAll(sys);
        HostileKernel evil(sys);
        evil.tamperSwap = tamper;
        auto r = sys.runProgram("wl.memstress", {"200", "2"});
        EXPECT_FALSE(r.killed);
        EXPECT_EQ(r.status, 0);
        return workloads::resultOf(sys, "wl.memstress");
    };
    std::string clean = checksum_with(false);
    std::string corrupted = checksum_with(true);
    ASSERT_FALSE(clean.empty());
    EXPECT_NE(clean, corrupted);
}

TEST(CloakIntegrity, SwapReplayDetected)
{
    SystemConfig cfg = cloakedConfig(96);
    System sys(cfg);
    workloads::registerAll(sys);
    HostileKernel evil(sys);
    evil.replaySwap = true;
    // Multiple passes modify pages between swap cycles, so the replayed
    // first version no longer matches the metadata.
    auto r = sys.runProgram("wl.memstress", {"200", "3"});
    EXPECT_TRUE(r.killed);
    EXPECT_NE(r.killReason.find("cloak violation"), std::string::npos);
}

TEST(CloakIntegrity, EmulatedFileIoImmuneToReadBufferCorruption)
{
    // The kernel corrupts every read() destination buffer it serves.
    // Marshalled reads of ordinary files are corrupted; emulated reads
    // of protected files never enter the kernel and stay intact.
    auto run_case = [](bool protected_file) {
        System sys(cloakedConfig());
        HostileKernel evil(sys);
        evil.corruptReadBuffers = true;
        return runCloaked(sys, [protected_file](Env& env) {
            std::string path;
            if (protected_file) {
                env.mkdir("/cloaked");
                path = "/cloaked/data";
            } else {
                path = "/data";
            }
            std::int64_t fd = env.open(path, os::openCreate |
                                                 os::openRead |
                                                 os::openWrite);
            if (fd < 0)
                return 90;
            env.writeAll(fd, "precious bytes");
            env.lseek(fd, 0, os::seekSet);
            std::string back = env.readSome(fd, 32);
            env.close(fd);
            return back == "precious bytes" ? 0 : 1;
        });
    };
    EXPECT_EQ(run_case(true).status, 0);
    EXPECT_EQ(run_case(false).status, 1);
}

TEST(CloakRegisters, ScrubHidesAndRestores)
{
    System sys(cloakedConfig());
    HostileKernel evil(sys);
    evil.recordTrapFrames = true;

    auto r = runCloaked(sys, [](Env& env) {
        env.regs().gpr[8] = secretValue;
        env.regs().gpr[15] = secretValue ^ 0xff;
        for (int i = 0; i < 5; ++i)
            env.getpid();
        if (env.regs().gpr[8] != secretValue)
            return 1;
        if (env.regs().gpr[15] != (secretValue ^ 0xff))
            return 2;
        return 0;
    });
    EXPECT_EQ(r.status, 0);

    const auto& frames = evil.trapFrames;
    ASSERT_FALSE(frames.empty());
    for (const auto& f : frames) {
        for (std::size_t i = 0; i < vmm::numGprs; ++i) {
            EXPECT_NE(f.gpr[i], secretValue);
            EXPECT_NE(f.gpr[i], secretValue ^ 0xff);
        }
    }
}

TEST(CloakRegisters, NativeTrapFramesLeakRegisters)
{
    System sys(nativeConfig());
    HostileKernel evil(sys);
    evil.recordTrapFrames = true;
    runCloaked(sys, [](Env& env) {
        env.regs().gpr[8] = secretValue;
        env.getpid();
        return 0;
    });
    bool leaked = false;
    for (const auto& f : evil.trapFrames)
        leaked |= f.gpr[8] == secretValue;
    EXPECT_TRUE(leaked);
}

TEST(CloakTransparency, WorkloadsProduceIdenticalResults)
{
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        cases = {
            {"wl.matmul", {"12"}},
            {"wl.sort", {"512"}},
            {"wl.stream", {"32"}},
            {"wl.chase", {"1024", "2048"}},
            {"wl.histogram", {"8192"}},
            {"wl.stencil", {"24", "4"}},
            {"wl.fileserver", {"64", "20", "2048", "1"}},
            {"wl.build", {"2", "8"}},
        };
    for (const auto& [name, argv] : cases) {
        SystemConfig ncfg = nativeConfig();
        System native(ncfg);
        workloads::registerAll(native);
        auto nr = native.runProgram(name, argv);
        ASSERT_EQ(nr.status, 0) << name << " native";

        SystemConfig ccfg = cloakedConfig();
        System cloaked(ccfg);
        workloads::registerAll(cloaked);
        auto cr = cloaked.runProgram(name, argv);
        ASSERT_EQ(cr.status, 0) << name << " cloaked: "
                                << cr.killReason;

        EXPECT_EQ(workloads::resultOf(native, name),
                  workloads::resultOf(cloaked, name))
            << name << " transparency";
        EXPECT_FALSE(workloads::resultOf(native, name).empty());
    }
}

TEST(CloakTransparency, CryptoWorkerCountInvisible)
{
    // The crypto worker pool is a host-speed knob only: a full cloaked
    // workload whose file writeback drives multi-page encryptPages
    // batches through the fan-out must produce the same result and
    // charge the same total simulated cycles at any worker count,
    // with timing hardening off and on.
    for (bool hardened : {false, true}) {
        SCOPED_TRACE(testing::Message() << "hardened=" << hardened);
        auto run = [&](std::size_t workers) {
            SystemConfig cfg = cloakedConfig();
            cfg.cryptoWorkers = workers;
            cfg.timingHardening = hardened;
            System sys(cfg);
            workloads::registerAll(sys);
            auto r = sys.runProgram("wl.fileserver",
                                    {"64", "20", "2048", "1"});
            EXPECT_EQ(r.status, 0) << "workers=" << workers << ": "
                                   << r.killReason;
            // Guard against going vacuous: some batch held more than
            // one page, so the fan-out actually ran.
            EXPECT_GT(sys.cloak()->stats().value("batch_encrypt_pages"),
                      sys.cloak()->stats().value("batch_encrypt_calls"));
            return std::pair{workloads::resultOf(sys, "wl.fileserver"),
                             sys.cycles()};
        };
        auto serial = run(1);
        auto pooled = run(8);
        EXPECT_EQ(pooled.first, serial.first);
        EXPECT_EQ(pooled.second, serial.second);
    }
}

TEST(CloakFork, ChildInheritsSecretsAndDiverges)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        GuestVA p = env.allocPages(2);
        env.store64(p, secretValue);
        env.store64(p + pageSize, 1111);
        Pid child = env.fork([p](Env& c) {
            if (c.load64(p) != secretValue)
                return 1;
            c.store64(p, 2222); // private to the child
            return c.load64(p) == 2222 ? 42 : 2;
        });
        if (child <= 0)
            return 3;
        int status = -1;
        if (env.waitpid(child, &status) != child)
            return 4;
        if (status != 42)
            return 5;
        return env.load64(p) == secretValue ? 0 : 6;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
    EXPECT_GT(sys.cloak()->stats().value("fork_attaches"), 0u);
}

TEST(CloakFork, ForkedChildSyscallsStillMarshalled)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        Pid child = env.fork([](Env& c) {
            // The child's shim must be live: file I/O + getpid work.
            std::int64_t fd = c.open("/childfile",
                                     os::openCreate | os::openWrite);
            if (fd < 0)
                return 1;
            c.writeAll(fd, "from child");
            c.close(fd);
            return c.getpid() > 0 ? 21 : 2;
        });
        int status = -1;
        env.waitpid(child, &status);
        if (status != 21)
            return 1;
        std::int64_t fd = env.open("/childfile", os::openRead);
        if (fd < 0)
            return 2;
        std::string s = env.readSome(fd, 32);
        env.close(fd);
        return s == "from child" ? 0 : 3;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(CloakExec, ReplacesDomain)
{
    System sys(cloakedConfig());
    sys.addProgram("second", os::Program{[](Env& env) {
        if (env.load64(os::stackTop - 8) != 0)
            return 1; // old image leaked through
        env.store64(secretVa, 77);
        return env.args().size() == 1 && env.args()[0] == "x" ? 55 : 2;
    }, true, 64});
    sys.addProgram("first", os::Program{[](Env& env) {
        env.store64(os::stackTop - 8, secretValue);
        env.exec("second", {"x"});
        return 0;
    }, true, 64});
    auto r = sys.runProgram("first");
    EXPECT_EQ(r.status, 55) << r.killReason;
    // Both domains were created and torn down.
    EXPECT_EQ(sys.cloak()->stats().value("domains_created"), 2u);
    EXPECT_EQ(sys.cloak()->stats().value("domains_destroyed"), 2u);
}

TEST(CloakPaging, CloakedMemorySurvivesSwap)
{
    SystemConfig cfg = cloakedConfig(96);
    System sys(cfg);
    workloads::registerAll(sys);
    auto r = sys.runProgram("wl.memstress", {"200", "2"});
    EXPECT_EQ(r.status, 0) << r.killReason;
    EXPECT_GT(sys.kernel().stats().value("evicted_anon"), 0u);
    EXPECT_GT(sys.cloak()->stats().value("page_encrypts"), 0u);
    EXPECT_GT(sys.cloak()->stats().value("page_decrypts"), 0u);
}

TEST(CloakFiles, ProtectedFilePersistsAcrossProcesses)
{
    System sys(cloakedConfig());
    sys.addProgram("vault", os::Program{[](Env& env) {
        const auto& args = env.args();
        env.mkdir("/cloaked");
        if (!args.empty() && args[0] == "write") {
            std::int64_t fd = env.open("/cloaked/vault",
                                       os::openCreate | os::openWrite |
                                           os::openTrunc);
            if (fd < 0)
                return 1;
            env.writeAll(fd, "the crown jewels");
            env.close(fd);
            return 0;
        }
        std::int64_t fd = env.open("/cloaked/vault", os::openRead);
        if (fd < 0)
            return 2;
        std::string s = env.readSome(fd, 64);
        env.close(fd);
        return s == "the crown jewels" ? 0 : 3;
    }, true, 64});

    auto w = sys.runProgram("vault", {"write"});
    ASSERT_EQ(w.status, 0) << w.killReason;
    // The bytes at rest are ciphertext.
    std::string disk = workloads::readGuestFile(sys, "/cloaked/vault");
    EXPECT_EQ(disk.find("crown"), std::string::npos);

    auto rd = sys.runProgram("vault", {"read"});
    EXPECT_EQ(rd.status, 0) << rd.killReason;
}

// Key lifetime: a finished process's key material is released with its
// resources, and nothing still using a key loses it.

TEST(CloakKeyLifetime, LiveKeysMatchLiveResourcesAfterExit)
{
    auto cfg = SystemConfig::Builder{}
                   .seed(42)
                   .cloaking(true)
                   .vcpus(4)
                   .preemptOpsPerTick(500)
                   .build();
    System sys(cfg);
    workloads::registerAll(sys);
    const crypto::KeyManager& keys = sys.cloak()->keys();
    std::size_t derived_per_wave = 0;
    for (std::uint64_t wave = 1; wave <= 2; ++wave) {
        for (std::uint64_t i = 0; i < 24; ++i)
            sys.launch("wl.tenant", {std::to_string(i)});
        sys.run();
        EXPECT_EQ(keys.liveKeyCount(),
                  sys.cloak()->metadata().resourceCount())
            << "wave " << wave;
        // Derivations stay cumulative while the live set drains.
        if (wave == 1)
            derived_per_wave = keys.derivedKeyCount();
        EXPECT_EQ(keys.derivedKeyCount(), wave * derived_per_wave);
    }
    EXPECT_GE(derived_per_wave, 24u);
}

TEST(CloakKeyLifetime, ForkChildOutlivesParent)
{
    System sys(cloakedConfig());
    Pid child_pid = 0;
    std::uint64_t domains_gone = ~0ull; // Seen by the child at its fault.
    sys.addProgram("parent", os::Program{[&](Env& env) {
        GuestVA p = env.allocPages(3);
        for (std::uint64_t i = 0; i < 3; ++i)
            env.store64(p + i * pageSize, secretValue + i);
        child_pid = env.fork([&sys, &domains_gone, p](Env& c) {
            // The child has attached to its cloned domain; now let the
            // parent run to its exit, so its domain (and its handles
            // to the shared key) is gone before the child faults its
            // cloned pages in.
            c.yield();
            domains_gone = sys.cloak()->stats().value("domains_destroyed");
            for (std::uint64_t i = 0; i < 3; ++i) {
                if (c.load64(p + i * pageSize) != secretValue + i)
                    return 1;
            }
            return 0;
        });
        env.yield(); // Let the child attach while this domain lives.
        return child_pid > 0 ? 0 : 2;
    }, true, 64});
    auto r = sys.runProgram("parent");
    ASSERT_EQ(r.status, 0) << r.killReason;
    const system::ExitResult* child = sys.resultOf(child_pid);
    ASSERT_NE(child, nullptr);
    EXPECT_FALSE(child->killed) << child->killReason;
    EXPECT_EQ(child->status, 0);
    EXPECT_EQ(domains_gone, 1u); // The parent's domain was destroyed.
    EXPECT_EQ(sys.cloak()->keys().liveKeyCount(),
              sys.cloak()->metadata().resourceCount());
}

TEST(CloakKeyLifetime, ProtectedFileOutlivesWriter)
{
    System sys(cloakedConfig());
    std::string content;
    for (int i = 0; content.size() < 3 * pageSize + 100; ++i)
        content += "block " + std::to_string(i * 7919) + ";";
    sys.addProgram("vault", os::Program{[content](Env& env) {
        env.mkdir("/cloaked");
        if (env.args().at(0) == "write") {
            std::int64_t fd = env.open("/cloaked/blob",
                                       os::openCreate | os::openWrite |
                                           os::openTrunc);
            if (fd < 0)
                return 1;
            env.writeAll(fd, content);
            env.close(fd);
            return 0;
        }
        std::int64_t fd = env.open("/cloaked/blob", os::openRead);
        if (fd < 0)
            return 2;
        std::string back;
        for (;;) {
            std::string s = env.readSome(fd, 1000);
            if (s.empty())
                break;
            back += s;
        }
        env.close(fd);
        return back == content ? 0 : 3;
    }, true, 64});

    auto w = sys.runProgram("vault", {"write"});
    ASSERT_EQ(w.status, 0) << w.killReason;
    const crypto::KeyManager& keys = sys.cloak()->keys();
    const cloak::MetadataStore& store = sys.cloak()->metadata();
    EXPECT_EQ(keys.liveKeyCount(), store.resourceCount());

    auto rd = sys.runProgram("vault", {"read"});
    EXPECT_EQ(rd.status, 0) << rd.killReason;
    // Every live key is some live resource's; resources of one file
    // share its key.
    EXPECT_GE(keys.liveKeyCount(), 1u);
    EXPECT_LE(keys.liveKeyCount(), store.resourceCount());
}

TEST(CloakFiles, DifferentProgramCannotAttach)
{
    System sys(cloakedConfig());
    sys.addProgram("owner", os::Program{[](Env& env) {
        env.mkdir("/cloaked");
        std::int64_t fd = env.open("/cloaked/private",
                                   os::openCreate | os::openWrite);
        if (fd < 0)
            return 1;
        env.writeAll(fd, "mine alone");
        env.close(fd);
        return 0;
    }, true, 64});
    sys.addProgram("thief", os::Program{[](Env& env) {
        // Attach is refused: identity mismatch on the sealed metadata.
        std::int64_t fd = env.open("/cloaked/private", os::openRead);
        return fd == -os::errPerm ? 0 : 1;
    }, true, 64});

    ASSERT_EQ(sys.runProgram("owner").status, 0);
    EXPECT_EQ(sys.runProgram("thief").status, 0);
    EXPECT_GT(sys.cloak()->stats().value("file_attach_rejected"), 0u);
}

TEST(CloakFiles, TamperedSealedMetadataRejected)
{
    System sys(cloakedConfig());
    sys.addProgram("vault", os::Program{[](Env& env) {
        const auto& args = env.args();
        env.mkdir("/cloaked");
        if (!args.empty() && args[0] == "write") {
            std::int64_t fd = env.open("/cloaked/v",
                                       os::openCreate | os::openWrite);
            if (fd < 0)
                return 1;
            env.writeAll(fd, "sealed data");
            env.close(fd);
            return 0;
        }
        std::int64_t fd = env.open("/cloaked/v", os::openRead);
        return fd == -os::errPerm ? 0 : 4;
    }, true, 64});

    ASSERT_EQ(sys.runProgram("vault", {"write"}).status, 0);
    // Corrupt every sealed bundle on "disk".
    for (auto& [key, bundle] : sys.cloak()->sealedStore()) {
        ASSERT_FALSE(bundle.empty());
        bundle[bundle.size() / 2] ^= 0x80;
    }
    EXPECT_EQ(sys.runProgram("vault", {"read"}).status, 0);
}

TEST(CloakFiles, LargeProtectedFileGrowsMapping)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        env.mkdir("/cloaked");
        std::int64_t fd = env.open("/cloaked/big",
                                   os::openCreate | os::openRead |
                                       os::openWrite);
        if (fd < 0)
            return 1;
        // Write 10 pages incrementally (forces mapping growth).
        GuestVA buf = env.allocPages(1);
        for (int chunk = 0; chunk < 10; ++chunk) {
            for (GuestVA off = 0; off < pageSize; off += 8)
                env.store64(buf + off, chunk * 100000 + off);
            if (env.write(fd, buf, pageSize) !=
                static_cast<std::int64_t>(pageSize))
                return 2;
        }
        // Verify a middle chunk.
        env.lseek(fd, 7 * pageSize, os::seekSet);
        if (env.read(fd, buf, pageSize) !=
            static_cast<std::int64_t>(pageSize))
            return 3;
        for (GuestVA off = 0; off < pageSize; off += 256) {
            if (env.load64(buf + off) != 7 * 100000 + off)
                return 4;
        }
        env.close(fd);
        return 0;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
    EXPECT_GT(sys.cloak()->stats().value("shim_map_grows"), 0u);
}

TEST(CloakSched, PreemptedCloakedProcessesComplete)
{
    SystemConfig cfg = cloakedConfig();
    cfg.preemptOpsPerTick = 2000;
    System sys(cfg);
    sys.addProgram("spin", os::Program{[](Env& env) {
        GuestVA p = env.allocPages(1);
        std::uint64_t acc = 0;
        for (int i = 0; i < 20000; ++i) {
            env.store64(p, acc);
            acc += env.load64(p) + 1;
        }
        return acc > 0 ? 0 : 1;
    }, true, 16});
    sys.addProgram("boss", os::Program{[](Env& env) {
        Pid a = env.spawn("spin");
        Pid b = env.spawn("spin");
        int sa = -1, sb = -1;
        env.waitpid(a, &sa);
        env.waitpid(b, &sb);
        return sa == 0 && sb == 0 ? 0 : 1;
    }, true, 16});
    auto r = sys.runProgram("boss");
    EXPECT_EQ(r.status, 0) << r.killReason;
    EXPECT_GT(sys.sched().stats().value("preemptions"), 0u);
    // Asynchronous interrupts went through secure control transfer.
    EXPECT_GT(sys.machine().cost().stats().value("ctc_save"), 0u);
}

TEST(CloakSignals, HandlersWorkUnderCloaking)
{
    System sys(cloakedConfig());
    auto r = runCloaked(sys, [](Env& env) {
        int fired = 0;
        env.onSignal(os::sigUser1, [&fired](Env&, int) { ++fired; });
        env.kill(env.getpid(), os::sigUser1);
        env.yield();
        return fired == 1 ? 0 : 1;
    });
    EXPECT_EQ(r.status, 0) << r.killReason;
}

TEST(CloakDeterminism, CloakedRunsAreReproducible)
{
    auto run_once = [] {
        SystemConfig cfg = cloakedConfig(512);
        cfg.seed = 1234;
        System sys(cfg);
        workloads::registerAll(sys);
        auto r = sys.runProgram("wl.fileserver", {"64", "20", "2048"});
        EXPECT_EQ(r.status, 0);
        return sys.cycles();
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(CloakOverhead, ComputeBoundOverheadIsSmall)
{
    // The paper's headline: compute-bound workloads pay almost nothing.
    SystemConfig ncfg = nativeConfig();
    System native(ncfg);
    workloads::registerAll(native);
    ASSERT_EQ(native.runProgram("wl.matmul", {"72"}).status, 0);

    SystemConfig ccfg = cloakedConfig();
    System cloaked(ccfg);
    workloads::registerAll(cloaked);
    ASSERT_EQ(cloaked.runProgram("wl.matmul", {"72"}).status, 0);

    double ratio = static_cast<double>(cloaked.cycles()) /
                   static_cast<double>(native.cycles());
    EXPECT_LT(ratio, 1.25);
    EXPECT_GE(ratio, 1.0);
}

TEST(CloakOverhead, CleanOptimizationReducesEncryptions)
{
    auto encrypts_with = [](bool opt) {
        SystemConfig cfg = cloakedConfig();
        cfg.cleanOptimization = opt;
        System sys(cfg);
        workloads::registerAll(sys);
        // Read-heavy protected-file workload: pages ping-pong between
        // the app (reads) and the kernel (writeback).
        auto r = sys.runProgram("wl.fileserver", {"64", "40", "4096"});
        EXPECT_EQ(r.status, 0) << r.killReason;
        return std::pair{sys.cloak()->stats().value("page_encrypts"),
                         sys.cycles()};
    };
    auto [enc_on, cycles_on] = encrypts_with(true);
    auto [enc_off, cycles_off] = encrypts_with(false);
    EXPECT_LT(enc_on, enc_off);
    EXPECT_LT(cycles_on, cycles_off);
}

} // namespace
} // namespace osh
