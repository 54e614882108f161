/**
 * @file
 * Demo: a hostile operating system versus Overshadow.
 *
 * Runs the same secret-holding application twice — once native, once
 * cloaked — under a kernel whose attack hooks (a) snoop application
 * memory on every trap, (b) record register files at syscall entry,
 * and (c) tamper with pages it swaps out. The output shows the paper's
 * claims side by side: natively everything leaks and corruption is
 * silent; cloaked, the kernel sees only ciphertext and tampering is
 * detected. Exits nonzero unless all four claims hold.
 */

#include "os/attack_hooks.hh"
#include "os/env.hh"
#include "system/system.hh"
#include "vmm/vcpu.hh"
#include "workloads/workloads.hh"

#include <cstdio>
#include <cstring>

using namespace osh;
using os::Env;

namespace
{

constexpr std::uint64_t secret = 0x5ec2e7c0de5ec2e7ull;
constexpr GuestVA secretVa = os::stackTop - 512;

/**
 * The hostile kernel: installed as the kernel's attack hooks, it snoops
 * every process alike, cloaked or not. Declare it after its System.
 */
class HostileKernel : public os::AttackHooks
{
  public:
    HostileKernel(system::System& sys, bool tamper_swap)
        : kernel_(sys.kernel()), tamperSwap_(tamper_swap)
    {
        kernel_.setAttackHooks(this);
    }

    ~HostileKernel() override { kernel_.setAttackHooks(nullptr); }

    HostileKernel(const HostileKernel&) = delete;
    HostileKernel& operator=(const HostileKernel&) = delete;

    std::vector<std::uint64_t> snooped;
    std::vector<vmm::RegisterFile> trapFrames;

    void
    onSyscallEntry(os::Kernel& kernel, os::Thread& t) override
    {
        trapFrames.push_back(t.vcpu.regs());
        if (kernel.validUserRange(kernel.currentProcess(), secretVa, 8,
                                  false))
            snooped.push_back(t.vcpu.load64(secretVa));
    }

    void
    onSwapOut(os::Kernel& kernel, os::SwapSlot slot,
              std::uint64_t) override
    {
        if (tamperSwap_)
            kernel.swap().rawSlot(slot)[0] ^= 0xff;
    }

  private:
    os::Kernel& kernel_;
    bool tamperSwap_;
};

int
victimMain(Env& env)
{
    env.store64(secretVa, secret);
    env.regs().gpr[9] = secret; // secret also lives in a register
    for (int i = 0; i < 8; ++i)
        env.getpid(); // each trap lets the kernel snoop
    if (env.load64(secretVa) != secret)
        return 1;
    if (env.regs().gpr[9] != secret)
        return 2;
    return 0;
}

/** What the snooping kernel got out of one run. */
struct Snoop
{
    bool memLeak = false;
    bool regLeak = false;
    bool sampled = false;
};

Snoop
runScenario(bool cloaked)
{
    std::printf("\n--- %s run ---\n",
                cloaked ? "OVERSHADOW (cloaked)" : "NATIVE");
    system::System sys(
        system::SystemConfig::Builder{}.cloaking(cloaked).build());
    HostileKernel evil(sys, false);

    sys.addProgram("victim", os::Program{victimMain, true, 64});
    auto r = sys.runProgram("victim");
    std::printf("victim exited: status=%d%s\n", r.status,
                r.killed ? " (killed)" : "");

    Snoop out;
    out.sampled = !evil.snooped.empty() && !evil.trapFrames.empty() &&
                  r.status == 0 && !r.killed;
    for (std::uint64_t v : evil.snooped)
        out.memLeak |= v == secret;
    for (const auto& f : evil.trapFrames) {
        for (std::size_t i = 0; i < vmm::numGprs; ++i)
            out.regLeak |= f.gpr[i] == secret;
    }
    std::printf("kernel snooped %zu memory samples: %s\n",
                evil.snooped.size(),
                out.memLeak ? "SECRET LEAKED" : "ciphertext only");
    std::printf("kernel recorded %zu trap frames:   %s\n",
                evil.trapFrames.size(),
                out.regLeak ? "SECRET LEAKED" : "registers scrubbed");
    return out;
}

/** Run the paging workload; returns its exit and checksum. */
system::ExitResult
runMemstress(bool cloaked, bool tamper, std::string& checksum)
{
    auto cfg = system::SystemConfig::Builder{}
                   .cloaking(cloaked)
                   .guestFrames(96) // force paging of the 200-page set
                   .build();
    system::System sys(cfg);
    workloads::registerAll(sys);
    HostileKernel evil(sys, tamper);
    auto r = sys.runProgram("wl.memstress", {"200", "2"});
    checksum = workloads::resultOf(sys, "wl.memstress");
    return r;
}

/**
 * Returns true when the claim holds: tampering is silent corruption
 * natively (clean exit, checksum differs from the untampered
 * @p reference) and a cloak-violation kill under Overshadow.
 */
bool
runTamperScenario(bool cloaked, const std::string& reference)
{
    std::printf("\n--- swap tampering, %s ---\n",
                cloaked ? "OVERSHADOW (cloaked)" : "NATIVE");
    std::string tampered;
    auto r = runMemstress(cloaked, true, tampered);
    if (r.killed) {
        std::printf("application terminated: %s\n",
                    r.killReason.c_str());
        std::printf("=> tampering DETECTED before any corrupt data "
                    "was consumed\n");
        return cloaked &&
               r.killReason.find("cloak violation") != std::string::npos;
    }
    std::printf("application completed \"successfully\" "
                "(status %d)\n", r.status);
    std::printf("=> it silently computed with CORRUPTED data "
                "(checksum %s, untampered %s)\n",
                tampered.c_str(), reference.c_str());
    return !cloaked && r.status == 0 && !reference.empty() &&
           tampered != reference;
}

/** Print one claim's verdict; returns whether it held. */
bool
claim(const char* what, bool held)
{
    std::printf("  [%s] %s\n", held ? " ok " : "FAIL", what);
    return held;
}

} // namespace

int
main()
{
    std::printf("Overshadow demo: running a secret-holding app under "
                "an actively hostile OS\n");
    Snoop native = runScenario(false);
    Snoop cloaked = runScenario(true);
    std::string reference;
    runMemstress(false, false, reference);
    bool native_corrupts = runTamperScenario(false, reference);
    bool cloaked_detects = runTamperScenario(true, reference);

    std::printf("\nclaims:\n");
    bool ok = true;
    ok &= claim("native run leaks memory and registers",
                native.sampled && native.memLeak && native.regLeak);
    ok &= claim("cloaked run sees only ciphertext and scrubbed registers",
                cloaked.sampled && !cloaked.memLeak && !cloaked.regLeak);
    ok &= claim("native swap tampering corrupts silently", native_corrupts);
    ok &= claim("cloaked swap tampering is detected", cloaked_detects);
    std::printf("\n%s\n", ok ? "done." : "a claim FAILED");
    return ok ? 0 : 1;
}
