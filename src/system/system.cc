#include "system/system.hh"

#include "base/logging.hh"
#include "cloak/shim.hh"
#include "cloak/transfer.hh"
#include "os/exceptions.hh"

#include <stdexcept>

namespace osh::system
{

namespace
{

sim::MachineConfig
machineConfig(const SystemConfig& cfg)
{
    sim::MachineConfig mc;
    mc.numFrames = cfg.guestFrames;
    mc.seed = cfg.seed;
    mc.trace = cfg.trace;
    return mc;
}

} // namespace

SystemConfig
SystemConfig::Builder::build() const
{
    if (cfg_.guestFrames == 0)
        throw std::invalid_argument(
            "SystemConfig: guestFrames must be > 0");
    if (cfg_.metadataCacheEntries == 0)
        throw std::invalid_argument(
            "SystemConfig: metadataCacheEntries must be > 0 "
            "(the metadata cache cannot hold nothing)");
    if (!cfg_.cloakingEnabled && cfg_.victimCacheEntries != 0 &&
        cfg_.victimCacheEntries !=
            SystemConfig{}.victimCacheEntries) {
        throw std::invalid_argument(
            "SystemConfig: victimCacheEntries configured with "
            "cloaking disabled — nothing would ever use it");
    }
    if (cfg_.cryptoWorkers > 256) {
        throw std::invalid_argument(
            "SystemConfig: cryptoWorkers > 256 — no host has that "
            "many lanes (0 means one per hardware thread)");
    }
    if (!cfg_.cloakingEnabled && cfg_.cryptoWorkers > 1) {
        throw std::invalid_argument(
            "SystemConfig: cryptoWorkers configured with cloaking "
            "disabled — there is no page crypto to parallelize");
    }
    if (cfg_.vcpus == 0 || cfg_.vcpus > 64) {
        throw std::invalid_argument(
            "SystemConfig: vcpus must be 1..64 — a guest needs a core, "
            "and the SMP model does not scale past commodity core "
            "counts");
    }
    if (cfg_.asyncEvictDepth > 256) {
        throw std::invalid_argument(
            "SystemConfig: asyncEvictDepth > 256 — staging that many "
            "pages exceeds any plausible background-lane window "
            "(0 means synchronous eviction)");
    }
    if (!cfg_.cloakingEnabled && cfg_.asyncEvictDepth > 0) {
        throw std::invalid_argument(
            "SystemConfig: asyncEvictDepth configured with cloaking "
            "disabled — only cloaked evictions have a seal to defer");
    }
    if (!cfg_.cloakingEnabled && cfg_.timingHardening) {
        throw std::invalid_argument(
            "SystemConfig: timingHardening configured with cloaking "
            "disabled — there are no cloak responses to equalize");
    }
    return cfg_;
}

System::System(const SystemConfig& config)
    : config_(config), machine_(machineConfig(config)),
      vmm_(machine_, config.guestFrames),
      sched_(machine_.cost()),
      kernel_(vmm_, sched_, programs_)
{
    vmm_.setShadowRetention(config.shadowRetention);
    vmm_.setVcpuCount(config.vcpus);
    // A distinct sub-seed keeps the spoofed-clock stream from aliasing
    // workload or attack randomness.
    vmm_.configureVirtualClock(config.timingHardening,
                               config.seed ^ 0x7c10c5eedull);
    sched_.configureCpus(config.vcpus);
    sched_.setSwitchHook([this](os::Thread& t) {
        vmm_.onContextSwitch(t.vcpu.cpu());
    });
    if (config.cloakingEnabled) {
        engine_ = std::make_unique<cloak::CloakEngine>(
            vmm_, config.seed ^ 0x05ead0u, config.metadataCacheEntries);
        engine_->setCleanOptimization(config.cleanOptimization);
        engine_->setVictimCacheCapacity(config.victimCacheEntries);
        engine_->setCryptoWorkers(
            static_cast<unsigned>(config.cryptoWorkers));
        engine_->setAsyncEvictDepth(config.asyncEvictDepth);
        engine_->setConstantCostMode(config.timingHardening);
    }
    kernel_.setCloakingAvailable(engine_ != nullptr);
    kernel_.setProcessHost(this);
}

System::~System()
{
    // A frozen thread is still live: end it before the scheduler goes.
    for (Pid pid : kernel_.pids())
        if (kernel_.isFrozen(pid))
            killFrozen(pid, "system destroyed");
    kernel_.setProcessHost(nullptr);
}

void
System::addProgram(const std::string& name, os::Program program)
{
    programs_.add(name, std::move(program));
}

Pid
System::launch(const std::string& program, std::vector<std::string> argv)
{
    osh_assert(programs_.find(program) != nullptr,
               "launch of unknown program '%s'", program.c_str());
    os::Process& proc =
        kernel_.createProcess(program, std::move(argv), 0);
    startProgram(proc);
    return proc.pid;
}

void
System::run()
{
    sched_.run();
    // Release the threads that finished this run (records and fiber
    // stacks), then the zombies no parent can wait for; their results
    // stay in results_.
    sched_.reapFinished();
    kernel_.reapOrphanZombies();
}

void
System::killFrozen(Pid pid, const std::string& reason)
{
    os::Process& proc = kernel_.process(pid);
    proc.killRequested = true;
    proc.killReason = reason;
    kernel_.thaw(pid);
    run();
}

ExitResult
System::runProgram(const std::string& program,
                   std::vector<std::string> argv)
{
    Pid pid = launch(program, std::move(argv));
    run();
    const ExitResult* r = resultOf(pid);
    osh_assert(r != nullptr, "program produced no result");
    return *r;
}

const ExitResult*
System::resultOf(Pid pid) const
{
    auto it = results_.find(pid);
    return it == results_.end() ? nullptr : &it->second;
}

void
System::startProgram(os::Process& proc)
{
    startThread(proc, StartInfo{});
}

void
System::startForkChild(os::Process& child, os::ForkBody body,
                       std::uint64_t cloak_token)
{
    osh_assert(!engine_ || !child.cloaked || cloak_token != 0,
               "cloaked fork without a shim token");
    // The address space was cloned.
    startThread(child, StartInfo{std::move(body), cloak_token, false});
}

void
System::startRestoredProcess(os::Process& proc)
{
    osh_assert(engine_ != nullptr && proc.cloaked &&
                   proc.domain != systemDomain,
               "restored start without an imported domain");
    // The migrate layer rebuilt the address space.
    startThread(proc, StartInfo{nullptr, 0, false});
}

void
System::startThread(os::Process& proc, StartInfo info)
{
    vmm::Context ctx;
    ctx.asid = proc.as.asid();
    ctx.view = systemDomain;
    ctx.kernelMode = false;
    Pid pid = proc.pid;
    sched_.createThread(pid, vmm_, ctx,
                        [this, pid, info = std::move(info)](
                            os::Thread& t) mutable {
                            threadBody(t, pid, std::move(info));
                        });
}

void
System::threadBody(os::Thread& thread, Pid pid, StartInfo info)
{
    kernel_.bindThread(pid, thread);
    os::Env env(kernel_, thread);

    if (config_.preemptOpsPerTick > 0) {
        thread.vcpu.setPreemptHook(
            [this, &thread, &env] {
                os::Process* p = kernel_.findProcess(thread.pid);
                if (engine_ && p != nullptr && p->cloaked &&
                    p->domain != systemDomain) {
                    cloak::SecureTransfer::aroundInterrupt(
                        *engine_, p->domain, env,
                        [this, &thread] { kernel_.timerTick(thread); });
                } else {
                    kernel_.timerTick(thread);
                }
            },
            config_.preemptOpsPerTick);
    }

    int status = 0;
    bool killed = false;
    std::string kill_reason;
    std::unique_ptr<cloak::Shim> shim;

    bool done = false;
    while (!done) {
        try {
            os::Process& proc = kernel_.process(pid);
            const os::Program* prog = programs_.find(proc.programName);
            osh_assert(prog != nullptr, "process runs unknown program");
            if (info.needsImageSetup)
                kernel_.setupProcessImage(proc, *prog);

            if (engine_ && proc.cloaked)
                shim = cloak::Shim::attach(*engine_, env,
                                           info.cloakForkToken);

            status = info.forkBody ? info.forkBody(env) : prog->main(env);
            done = true;
        } catch (os::ExecRequested&) {
            // The shim tore the old domain down before trapping exec;
            // loop around and start the new image, which sysExec built.
            shim.reset();
            info = StartInfo{nullptr, 0, false};
            continue;
        } catch (os::ThreadExit& e) {
            status = e.status;
            done = true;
        } catch (vmm::ProcessKilled& e) {
            status = -1;
            killed = true;
            kill_reason = e.reason;
            done = true;
        }
    }

    // Cloak teardown must precede frame release: it scrubs any
    // plaintext still resident in this process's frames.
    shim.reset();
    os::Process& proc = kernel_.process(pid);
    if (engine_) {
        engine_->teardownDomain(proc.domain);
        proc.domain = systemDomain;
        thread.vcpu.context().view = systemDomain;
    }
    thread.vcpu.setPreemptHook(nullptr, 0);

    std::string program_name = proc.programName;
    kernel_.finalizeExit(proc, status);

    ExitResult result;
    result.pid = pid;
    result.status = status;
    result.killed = killed;
    result.killReason = kill_reason;
    result.programName = program_name;
    results_[pid] = result;
}

} // namespace osh::system
