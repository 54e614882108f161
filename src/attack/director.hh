/**
 * @file
 * AttackDirector: the seeded hostile kernel.
 *
 * The director is the campaign's seeded attacker: one object
 * implementing both hostile-kernel interfaces:
 *
 *   - os::AttackHooks — called from inside the guest kernel at every
 *     OS touchpoint (syscall entry, read return, swap out/in/release,
 *     fsync, exec);
 *   - vmm::GuestOsHooks — a proxy the director installs *in front of*
 *     the real kernel's hooks, so it can lie to the VMM's shadow
 *     walker about guest page tables (hostile remap / double-map).
 *
 * Construction installs the director on a System (kernel attack hooks
 * + VMM guest-OS proxy); destruction restores the original wiring, so
 * a director must be destroyed before its System (declare it after).
 *
 * Everything the director does is driven by one splitmix64 stream
 * seeded from (attack seed, attack point), so a campaign cell is
 * exactly reproducible. The director also records what the "kernel"
 * observed — snooped buffers, trap frames, freed-slot copies, saved
 * bundles — which the campaign's leak oracle scans for plaintext.
 */

#ifndef OSH_ATTACK_DIRECTOR_HH
#define OSH_ATTACK_DIRECTOR_HH

#include "attack/points.hh"
#include "os/attack_hooks.hh"
#include "system/system.hh"
#include "vmm/hooks.hh"
#include "vmm/registers.hh"

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

namespace osh::attack
{

/** Static configuration of one director. */
struct DirectorConfig
{
    AttackPoint point = AttackPoint::Baseline;

    /** Seed of the director's private randomness stream. */
    std::uint64_t seed = 1;
};

/** The hostile kernel. See the file comment. */
class AttackDirector final : public os::AttackHooks,
                             public vmm::GuestOsHooks
{
  public:
    AttackDirector(system::System& sys, const DirectorConfig& config);
    ~AttackDirector() override;

    AttackDirector(const AttackDirector&) = delete;
    AttackDirector& operator=(const AttackDirector&) = delete;

    /** Times the configured attack actually mutated/observed state. */
    std::uint64_t firings() const { return firings_; }

    // Kernel-observed state (leak-oracle inputs) ------------------------
    const std::vector<std::vector<std::uint8_t>>& snoops() const
    {
        return snoops_;
    }
    const std::vector<vmm::RegisterFile>& trapFrames() const
    {
        return trapFrames_;
    }
    const std::vector<std::array<std::uint8_t, pageSize>>&
    graveyard() const
    {
        return graveyard_;
    }
    const std::map<std::uint64_t,
                   std::array<std::uint8_t, pageSize>>&
    firstSwapVersions() const
    {
        return firstSwapVersions_;
    }
    const std::map<std::uint64_t, std::vector<std::uint8_t>>&
    savedBundles() const
    {
        return savedBundles_;
    }

    // Timing-oracle recordings (timing points only) ---------------------
    /** Bits the timing oracle recovered (thresholded deltas). */
    const std::vector<std::uint8_t>& recoveredBits() const
    {
        return recoveredBits_;
    }

    // os::AttackHooks ---------------------------------------------------
    void onSyscallEntry(os::Kernel& kernel, os::Thread& t) override;
    void onReadReturn(os::Kernel& kernel, os::Thread& t, GuestVA buf,
                      std::uint64_t len) override;
    void onSwapOut(os::Kernel& kernel, os::SwapSlot slot,
                   std::uint64_t replay_key) override;
    void onSwapIn(os::Kernel& kernel, os::SwapSlot slot,
                  std::uint64_t replay_key,
                  std::span<std::uint8_t> page) override;
    void onSwapRelease(os::Kernel& kernel, os::SwapSlot slot) override;
    void onBatchSubmit(os::Kernel& kernel, os::Thread& t,
                       GuestVA sub_va, std::uint64_t count) override;
    void onBatchComplete(os::Kernel& kernel, os::Thread& t,
                         GuestVA comp_va, std::uint64_t count) override;
    void onFsync(os::Kernel& kernel, os::Thread& t,
                 os::InodeId inode) override;
    void onExec(os::Kernel& kernel, os::Thread& t,
                const std::string& program) override;

    // vmm::GuestOsHooks (hostile proxy) ---------------------------------
    vmm::GuestPte translateGuest(Asid asid, GuestVA va) override;
    void handleGuestPageFault(vmm::Vcpu& vcpu, GuestVA va,
                              vmm::AccessType access) override;
    void notifyWrite(Asid asid, GuestVA va_page) override;

  private:
    std::uint64_t nextRand();
    void fired();

    /** Does @p replay_key name a page of a cloaked VMA? */
    bool cloakedSwapPage(os::Kernel& kernel,
                         std::uint64_t replay_key) const;

    /** Present cloaked mmap-arena pages of the current process. */
    std::vector<GuestVA> cloakedPresentPages(os::Kernel& kernel) const;

    /** Sealed-bundle attacks; @p exec_boundary gates corrupt/truncate. */
    void sealBoundary(os::Kernel& kernel, bool exec_boundary);

    /** Arm the shadow-table lie once two target pages exist. */
    void armShadowLie(os::Kernel& kernel);

    /**
     * Timing-oracle probe, run at the victim's Yield traps. Times one
     * kernel-side operation against the cloak engine's deterministic
     * cost model through the guest-visible clock (Vmm::readTsc) and
     * thresholds the delta into one recovered secret bit. Never touches
     * victim *contents* — the only channel is time.
     */
    void timingProbe(os::Kernel& kernel, os::Thread& t);

    /** Find the timing victim's signal arena (top 20 contiguous pages). */
    bool locateTimingArena(os::Kernel& kernel, GuestVA& top);

    /** Record one probe delta + thresholded bit; counts as a firing. */
    void recordProbe(Cycles delta, bool bit);

    system::System& sys_;
    DirectorConfig config_;
    os::Kernel& kernel_;
    std::uint64_t rng_;
    std::uint64_t firings_ = 0;
    std::uint64_t syscallEntries_ = 0;
    std::uint64_t scribbleAt_ = 0;
    bool scribbled_ = false;

    // Recordings (kernel-visible observations).
    std::vector<std::vector<std::uint8_t>> snoops_;
    std::vector<vmm::RegisterFile> trapFrames_;
    std::vector<std::array<std::uint8_t, pageSize>> graveyard_;
    std::map<std::uint64_t, std::array<std::uint8_t, pageSize>>
        firstSwapVersions_;
    std::map<std::uint64_t, std::vector<std::uint8_t>> savedBundles_;
    std::set<std::uint64_t> corruptedBundles_;
    std::set<std::uint64_t> truncatedBundles_;
    std::set<std::uint64_t> rolledBack_;

    // Timing-oracle recordings.
    std::vector<std::uint8_t> recoveredBits_;

    /** Shadow-walk lie state (remap / double-map). */
    struct ShadowLie
    {
        bool active = false;
        Asid asid = 0;
        GuestVA vaA = 0;
        GuestVA vaB = 0;
    };
    ShadowLie lie_;
};

} // namespace osh::attack

#endif // OSH_ATTACK_DIRECTOR_HH
