#include "attack/director.hh"

#include "base/rng.hh"
#include "cloak/engine.hh"
#include "os/kernel.hh"
#include "os/layout.hh"
#include "os/process.hh"
#include "os/swap.hh"
#include "os/syscalls.hh"
#include "os/thread.hh"
#include "trace/trace.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace osh::attack
{

namespace
{

/** Slots of a replay key: (asid << 40) | pageNumber(va_page). */
constexpr std::uint64_t replayPageMask = (std::uint64_t{1} << 40) - 1;

/** Most freed-slot copies the resurrection attack keeps around. */
constexpr std::size_t graveyardCapacity = 64;

// Timing-oracle geometry — must match wl.victim.timing (workloads.cc):
// a 20-page arena whose top page (A) is dirty-encoded (bit=1 write,
// bit=0 read), next page down (B) is always-clean and metadata-encoded
// through the 16 noise pages below it.
constexpr std::size_t timingArenaPages = 20;
constexpr std::size_t timingNoisePages = 16;

/**
 * Dirty-vs-clean threshold for the victim-cache and clean-page probes.
 * Inside the probe window a dirty page costs a full seal —
 * aesPerByte*4096 + shaPerByte*(4096+40) + cloakFaultFixed = 91,012
 * cycles — while the clean re-encrypt path costs 49,652 and a
 * victim-cache restore only ~2,000 (plus a constant ~1.3k of VM-exit /
 * shadow-fill overhead either way). 70,000 splits the clusters with a
 * wide margin.
 */
constexpr Cycles timingSealThreshold = 70'000;

/**
 * Metadata hit-vs-miss threshold. The probe re-seals the always-clean
 * signal page B for a constant base cost (a victim-cache restore plus
 * VM-exit/shadow overhead, ~2,985 cycles); the engine's metadata
 * lookup adds metadataHit (40) or metadataMiss (900) on top, so the
 * observed clusters are exactly 3,025 vs 3,885 and their midpoint
 * separates them.
 */
constexpr Cycles timingMetadataThreshold = 3'455;

/**
 * Async drain-stall threshold. Force-evicting page A parks a sealed
 * copy on an async lane whose occupancy is seal cost + diskAccess
 * (300,000) + diskPerByte*4096; the timed drain barrier stalls for the
 * remaining occupancy, so a dirty seal (~397k total) and a clean one
 * (~310-355k) straddle 370,000.
 */
constexpr Cycles timingDrainThreshold = 370'000;

} // namespace

AttackDirector::AttackDirector(system::System& sys,
                               const DirectorConfig& config)
    : sys_(sys), config_(config), kernel_(sys.kernel()),
      rng_(config.seed ^
           (0x9e3779b97f4a7c15ull *
            (static_cast<std::uint64_t>(config.point) + 1)))
{
    scribbleAt_ = 2 + nextRand() % 4;
    kernel_.setAttackHooks(this);
    sys_.vmm().setGuestOs(this);
}

AttackDirector::~AttackDirector()
{
    sys_.vmm().setGuestOs(&kernel_);
    kernel_.setAttackHooks(nullptr);
}

std::uint64_t
AttackDirector::nextRand()
{
    return splitmix64(rng_);
}

void
AttackDirector::fired()
{
    ++firings_;
    OSH_TRACE_INSTANT(&sys_.tracer(), trace::Category::Attack,
                      attackPointName(config_.point));
}

bool
AttackDirector::cloakedSwapPage(os::Kernel& kernel,
                                std::uint64_t replay_key) const
{
    // Only target cloaked pages: corrupting an application's
    // *unprotected* swap traffic proves nothing about Overshadow (the
    // threat model concedes it) and makes victims fail unclassifiably.
    Asid asid = static_cast<Asid>(replay_key >> 40);
    GuestVA va_page = (replay_key & replayPageMask) * pageSize;
    os::Process* p = kernel.findProcess(static_cast<Pid>(asid));
    if (p == nullptr || !p->cloaked)
        return false;
    const os::Vma* vma =
        const_cast<const os::AddressSpace&>(p->as).findVma(va_page);
    return vma != nullptr && vma->cloaked;
}

std::vector<GuestVA>
AttackDirector::cloakedPresentPages(os::Kernel& kernel) const
{
    std::vector<GuestVA> vas;
    os::Process& p = kernel.currentProcess();
    if (!p.cloaked)
        return vas;
    const os::AddressSpace& as = p.as;
    for (const auto& [va, pte] : as.ptes()) {
        if (!pte.present || va < os::mmapBase)
            continue;
        const os::Vma* vma = as.findVma(va);
        if (vma == nullptr || !vma->cloaked)
            continue;
        vas.push_back(va);
    }
    // ptes() iterates an unordered_map; sort for determinism.
    std::sort(vas.begin(), vas.end());
    return vas;
}

// ---------------------------------------------------------------------------
// Syscall-boundary attacks
// ---------------------------------------------------------------------------

void
AttackDirector::onSyscallEntry(os::Kernel& kernel, os::Thread& t)
{
    ++syscallEntries_;
    switch (config_.point) {
      case AttackPoint::SyscallSnoop: {
        // Peek at a few cloaked pages through the kernel view on every
        // trap. The engine seals them first, so this records only
        // ciphertext — the leak oracle proves it.
        std::vector<GuestVA> vas = cloakedPresentPages(kernel);
        if (vas.empty())
            return;
        std::size_t peeks = std::min<std::size_t>(4, vas.size());
        for (std::size_t i = 0; i < peeks; ++i) {
            GuestVA va = vas[nextRand() % vas.size()];
            std::vector<std::uint8_t> peek(64);
            t.vcpu.readBytes(va, peek);
            snoops_.push_back(std::move(peek));
        }
        fired();
        return;
      }

      case AttackPoint::SyscallScribble: {
        // At one seeded trap, overwrite every present cloaked page.
        // This always hits the shim's CTC page, so the secure control
        // transfer's hash check catches it on syscall exit at the
        // latest.
        if (scribbled_ || syscallEntries_ < scribbleAt_)
            return;
        std::vector<GuestVA> vas = cloakedPresentPages(kernel);
        if (vas.empty())
            return;
        std::array<std::uint8_t, 32> junk;
        junk.fill(0x66);
        for (GuestVA va : vas)
            t.vcpu.writeBytes(va, junk);
        scribbled_ = true;
        fired();
        return;
      }

      case AttackPoint::TrapFrameProbe:
        // Record the register file the kernel sees; the secure control
        // transfer scrubbed it, and the oracle checks nothing cloaked
        // survived.
        trapFrames_.push_back(t.vcpu.regs());
        fired();
        return;

      case AttackPoint::ShadowRemap:
      case AttackPoint::ShadowDoubleMap:
        if (!lie_.active)
            armShadowLie(kernel);
        return;

      case AttackPoint::TimingVictimProbe:
      case AttackPoint::TimingCleanProbe:
      case AttackPoint::TimingAsyncDrain:
      case AttackPoint::TimingMetadataProbe:
        timingProbe(kernel, t);
        return;

      default:
        return;
    }
}

// ---------------------------------------------------------------------------
// Timing-oracle probes
// ---------------------------------------------------------------------------

bool
AttackDirector::locateTimingArena(os::Kernel& kernel, GuestVA& top)
{
    std::vector<GuestVA> vas = cloakedPresentPages(kernel);
    if (vas.size() < timingArenaPages)
        return false;
    // The timing victim's signal arena is the top timingArenaPages
    // contiguous cloaked pages. Victims with a different memory shape
    // simply never match, so the probe stays quiet against them
    // (0 firings -> Harmless).
    std::size_t n = vas.size();
    for (std::size_t i = n - timingArenaPages + 1; i < n; ++i) {
        if (vas[i] != vas[i - 1] + pageSize)
            return false;
    }
    top = vas[n - 1];
    return true;
}

void
AttackDirector::recordProbe(Cycles delta, bool bit)
{
    // OSH_TIMING_DEBUG dumps raw probe deltas to stderr — how the
    // classification thresholds above were calibrated.
    if (std::getenv("OSH_TIMING_DEBUG") != nullptr)
        std::fprintf(stderr, "probe delta=%llu bit=%d\n",
                     (unsigned long long)delta, bit ? 1 : 0);
    recoveredBits_.push_back(bit ? 1 : 0);
    fired();
}

void
AttackDirector::timingProbe(os::Kernel& kernel, os::Thread& t)
{
    // One probe per victim round, synchronous with the secret bit the
    // round encodes: the victim yields exactly once per bit.
    if (static_cast<os::Sys>(t.vcpu.regs().gpr[0]) != os::Sys::Yield)
        return;
    os::Process& proc = kernel.currentProcess();
    if (!proc.cloaked)
        return;
    GuestVA top = 0;
    if (!locateTimingArena(kernel, top))
        return;
    GuestVA page_a = top;                 // Dirty-encoded signal page.
    GuestVA page_b = top - pageSize;      // Metadata-encoded signal page.
    vmm::Vmm& vmm = kernel.vmm();
    std::array<std::uint8_t, 64> window;

    switch (config_.point) {
      case AttackPoint::TimingVictimProbe:
      case AttackPoint::TimingCleanProbe: {
        // Read page A through the kernel view and time the seal the
        // engine performs before handing over the frame: a page the
        // victim wrote this round pays the full dirty seal, one it
        // only read pays the clean re-encrypt (or, with the victim
        // cache enabled, almost nothing).
        Cycles t0 = vmm.readTsc(0);
        t.vcpu.readBytes(page_a, window);
        Cycles t1 = vmm.readTsc(0);
        recordProbe(t1 - t0, t1 - t0 > timingSealThreshold);
        return;
      }

      case AttackPoint::TimingMetadataProbe: {
        // Time the re-seal of the always-clean page B: its constant
        // cost carries the engine's metadata lookup on top, hit or
        // miss depending on whether the victim's noise touches evicted
        // B from the metadata LRU this round.
        Cycles t0 = vmm.readTsc(0);
        t.vcpu.readBytes(page_b, window);
        Cycles t1 = vmm.readTsc(0);
        recordProbe(t1 - t0, t1 - t0 > timingMetadataThreshold);
        // Outside the timed window, drop the victim's cached noise
        // translations so next round's noise touches re-walk into the
        // cloak engine (and its metadata cache) again. Cost is the
        // same for either bit value, so this adds no signal.
        for (std::size_t i = 0; i < timingNoisePages; ++i) {
            vmm.invalidateVa(proc.as.asid(),
                             page_b - pageSize * (timingNoisePages - i));
        }
        return;
      }

      case AttackPoint::TimingAsyncDrain: {
        // Park a sealed copy of page A on an async eviction lane, then
        // time the drain barrier: the lane's occupancy embeds the seal
        // cost, so a dirty page stalls the drain measurably longer
        // than a clean one.
        if (!kernel.forceSwapOut(proc.pid, page_a))
            return;
        Cycles t0 = vmm.readTsc(0);
        vmm.drainAsyncEvictions();
        Cycles t1 = vmm.readTsc(0);
        recordProbe(t1 - t0, t1 - t0 > timingDrainThreshold);
        return;
      }

      default:
        return;
    }
}

void
AttackDirector::onReadReturn(os::Kernel& kernel, os::Thread& t,
                             GuestVA buf, std::uint64_t len)
{
    if (config_.point != AttackPoint::ReadCorrupt)
        return;
    std::array<std::uint8_t, 16> junk;
    junk.fill(0xcc);
    std::size_t m = std::min<std::size_t>(junk.size(), len);
    kernel.copyToUser(t, buf,
                      std::span<const std::uint8_t>(junk.data(), m));
    fired();
}

// ---------------------------------------------------------------------------
// Syscall-ring attacks
// ---------------------------------------------------------------------------

void
AttackDirector::onBatchSubmit(os::Kernel& kernel, os::Thread& t,
                              GuestVA sub_va, std::uint64_t count)
{
    if (config_.point != AttackPoint::RingTamper)
        return;
    // The submission ring lives in uncloaked memory the kernel can
    // write. Scribble one seeded descriptor in the window between the
    // caller's serialization and the kernel's single copy-out. The
    // shim's private echo token cannot survive the overwrite, so the
    // completion check kills the process. Only meaningful against
    // cloaked callers (the threat model concedes unprotected state).
    if (!kernel.currentProcess().cloaked)
        return;
    std::uint64_t slot = nextRand() % count;
    std::array<std::uint8_t, os::batchDescBytes> junk;
    for (auto& b : junk)
        b = static_cast<std::uint8_t>(nextRand());
    kernel.copyToUser(t, sub_va + slot * os::batchDescBytes, junk);
    fired();
}

void
AttackDirector::onBatchComplete(os::Kernel& kernel, os::Thread& t,
                                GuestVA comp_va, std::uint64_t count)
{
    if (config_.point != AttackPoint::RingCompForge)
        return;
    // Forge one completion after the kernel wrote the ring and before
    // the caller reads it: a plausible success result with a guessed
    // echo token. The shim compares against its private nonce stream
    // and refuses to act on the forgery.
    if (!kernel.currentProcess().cloaked)
        return;
    std::uint64_t slot = nextRand() % count;
    // A braced initialiser draws in order: result, then echo token.
    os::BatchComp forged{nextRand() % 4096, nextRand()};
    std::array<std::uint8_t, os::batchCompBytes> raw;
    os::encodeComps(std::span(&forged, 1), raw);
    kernel.copyToUser(t, comp_va + slot * os::batchCompBytes, raw);
    fired();
}

// ---------------------------------------------------------------------------
// Swap attacks
// ---------------------------------------------------------------------------

void
AttackDirector::onSwapOut(os::Kernel& kernel, os::SwapSlot slot,
                          std::uint64_t replay_key)
{
    switch (config_.point) {
      case AttackPoint::SwapTamperByte:
        if (!cloakedSwapPage(kernel, replay_key))
            return;
        kernel.swap().rawSlot(slot)[0] ^= 0xff;
        fired();
        return;

      case AttackPoint::SwapTamperPage: {
        if (!cloakedSwapPage(kernel, replay_key))
            return;
        auto& raw = kernel.swap().rawSlot(slot);
        std::uint64_t flips = 2 + nextRand() % 7;
        for (std::uint64_t i = 0; i < flips; ++i) {
            std::size_t off = nextRand() % pageSize;
            raw[off] ^= static_cast<std::uint8_t>(1u << (nextRand() % 8));
        }
        fired();
        return;
      }

      case AttackPoint::SwapReplay:
        // Remember the first version of every cloaked page swapped
        // out; substitution happens at swap-in (observation alone is
        // not a firing).
        if (!cloakedSwapPage(kernel, replay_key))
            return;
        firstSwapVersions_.emplace(replay_key,
                                   kernel.swap().rawSlot(slot));
        return;

      default:
        return;
    }
}

void
AttackDirector::onSwapIn(os::Kernel& kernel, os::SwapSlot,
                         std::uint64_t replay_key,
                         std::span<std::uint8_t> page)
{
    switch (config_.point) {
      case AttackPoint::SwapReplay: {
        auto it = firstSwapVersions_.find(replay_key);
        if (it == firstSwapVersions_.end() ||
            std::memcmp(it->second.data(), page.data(), page.size()) ==
                0) {
            return;
        }
        std::memcpy(page.data(), it->second.data(), page.size());
        fired();
        return;
      }

      case AttackPoint::SwapResurrect: {
        if (graveyard_.empty() || !cloakedSwapPage(kernel, replay_key))
            return;
        const auto& ghost = graveyard_[nextRand() % graveyard_.size()];
        if (std::memcmp(ghost.data(), page.data(), page.size()) == 0)
            return;
        std::memcpy(page.data(), ghost.data(), page.size());
        fired();
        return;
      }

      default:
        return;
    }
}

void
AttackDirector::onSwapRelease(os::Kernel& kernel, os::SwapSlot slot)
{
    if (config_.point != AttackPoint::SwapResurrect)
        return;
    // Copy the slot before the device scrubs it — the data a sloppy
    // (or hostile) kernel could keep serving after the free.
    if (graveyard_.size() < graveyardCapacity)
        graveyard_.push_back(kernel.swap().rawSlot(slot));
}

// ---------------------------------------------------------------------------
// Sealed-metadata attacks (fsync / exec boundaries)
// ---------------------------------------------------------------------------

void
AttackDirector::sealBoundary(os::Kernel&, bool exec_boundary)
{
    cloak::CloakEngine* engine = sys_.cloak();
    if (engine == nullptr)
        return;
    auto& store = engine->sealedStore();
    switch (config_.point) {
      case AttackPoint::SealCorrupt:
        if (!exec_boundary)
            return;
        for (auto& [key, bundle] : store) {
            if (bundle.empty() || corruptedBundles_.contains(key))
                continue;
            bundle[bundle.size() / 3] ^= 0x40;
            corruptedBundles_.insert(key);
            fired();
        }
        return;

      case AttackPoint::SealTruncate:
        if (!exec_boundary)
            return;
        for (auto& [key, bundle] : store) {
            if (bundle.size() < 16 || truncatedBundles_.contains(key))
                continue;
            bundle.resize(bundle.size() / 2);
            truncatedBundles_.insert(key);
            fired();
        }
        return;

      case AttackPoint::SealRollback:
        // First sight of a bundle: save it (observation). At exec, when
        // the stored bundle has moved on, put the stale one back (any
        // earlier, the owner's next seal would overwrite it unread).
        for (auto& [key, bundle] : store) {
            auto it = savedBundles_.find(key);
            if (it == savedBundles_.end()) {
                savedBundles_[key] = bundle;
            } else if (exec_boundary && bundle != it->second &&
                       !rolledBack_.contains(key)) {
                bundle = it->second;
                rolledBack_.insert(key);
                fired();
            }
        }
        return;

      default:
        return;
    }
}

void
AttackDirector::onFsync(os::Kernel& kernel, os::Thread&, os::InodeId)
{
    sealBoundary(kernel, false);
}

void
AttackDirector::onExec(os::Kernel& kernel, os::Thread&,
                       const std::string&)
{
    sealBoundary(kernel, true);
}

// ---------------------------------------------------------------------------
// Hostile shadow-walk proxy
// ---------------------------------------------------------------------------

void
AttackDirector::armShadowLie(os::Kernel& kernel)
{
    std::vector<GuestVA> vas = cloakedPresentPages(kernel);
    if (vas.size() < 2)
        return;
    std::size_t ia = nextRand() % vas.size();
    std::size_t ib = (ia + 1 + nextRand() % (vas.size() - 1)) % vas.size();
    lie_.active = true;
    lie_.asid = kernel.currentProcess().as.asid();
    lie_.vaA = vas[ia];
    lie_.vaB = vas[ib];
    // Drop the cached translations so the next access re-walks the
    // (now lying) guest page tables.
    kernel.vmm().invalidateVa(lie_.asid, lie_.vaA);
    if (config_.point == AttackPoint::ShadowDoubleMap)
        kernel.vmm().invalidateVa(lie_.asid, lie_.vaB);
}

vmm::GuestPte
AttackDirector::translateGuest(Asid asid, GuestVA va)
{
    vmm::GuestPte truth = kernel_.translateGuest(asid, va);
    if (!lie_.active || asid != lie_.asid)
        return truth;
    GuestVA page = pageBase(va);
    GuestVA target;
    if (page == lie_.vaA) {
        target = lie_.vaB;
    } else if (config_.point == AttackPoint::ShadowDoubleMap &&
               page == lie_.vaB) {
        target = lie_.vaA;
    } else {
        return truth;
    }
    vmm::GuestPte fake = kernel_.translateGuest(asid, target);
    // Only lie when both translations are live: returning a non-present
    // fake while the truth is present would livelock the fault path.
    if (!fake.present || !truth.present)
        return truth;
    fired();
    return fake;
}

void
AttackDirector::handleGuestPageFault(vmm::Vcpu& vcpu, GuestVA va,
                                     vmm::AccessType access)
{
    kernel_.handleGuestPageFault(vcpu, va, access);
}

void
AttackDirector::notifyWrite(Asid asid, GuestVA va_page)
{
    kernel_.notifyWrite(asid, va_page);
}

} // namespace osh::attack
