/**
 * @file
 * Multi-shadow page tables with ASID-tagged retention.
 *
 * A classical VMM keeps one shadow page table per guest address space,
 * caching the composition guest-virtual -> guest-physical -> machine.
 * Overshadow's multi-shadowing keeps one shadow per (address space,
 * view) pair so the same guest virtual address can resolve differently
 * — plaintext for the owning cloaked application, ciphertext for
 * everything else. This module manages the shadows plus the reverse
 * index needed to invalidate every mapping of a machine frame when the
 * cloak engine flips its state.
 *
 * Retention: a cloaking-state flip does not change the translation of
 * a page, only who may currently use it. suspendMpa() therefore keeps
 * the affected entries resident in a *suspended* state (invisible to
 * lookup) instead of erasing them; when the same context next resolves
 * the same page to the same frame, reactivate() restores the entry for
 * a fraction of a full shadow fill. Entries are erased outright only
 * when the translation itself dies — guest PTE change (invalidateVa),
 * address-space teardown (invalidateAsid), or frame reuse
 * (invalidateMpa) — so a process resuming its own view after a switch
 * never inherits stale mappings.
 *
 * Entries live in a TranslationIndex, whose chains by (asid, va page),
 * by frame and by address space let every operation touch only the
 * entries it matches; the manager adds each slot's suspended flag.
 */

#ifndef OSH_VMM_SHADOW_HH
#define OSH_VMM_SHADOW_HH

#include "base/stats.hh"
#include "base/types.hh"
#include "vmm/context.hh"
#include "vmm/translation_index.hh"

#include <cstdint>
#include <optional>
#include <vector>

namespace osh::vmm
{

/** All shadow page tables, keyed by execution context. */
class ShadowManager
{
  public:
    ShadowManager();

    /** Look up a cached translation; nullopt on shadow miss or when the
     *  entry is suspended (a cloak transition parked it). */
    std::optional<ShadowEntry> lookup(const Context& ctx,
                                      GuestVA va_page) const;

    /** Install (or replace) a shadow entry. */
    void install(const Context& ctx, GuestVA va_page,
                 const ShadowEntry& entry);

    /**
     * Retention fast path: if a *suspended* entry exists for
     * (ctx, va_page) and still maps @p entry.mpa, reactivate it with
     * the new permissions and return true. The caller then charges the
     * (cheap) revalidation cost instead of a full shadow fill. Returns
     * false when there is nothing to reactivate.
     */
    bool reactivate(const Context& ctx, GuestVA va_page,
                    const ShadowEntry& entry);

    /** Drop one VA translation in every view of one address space. */
    void invalidateVa(Asid asid, GuestVA va_page);

    /** Drop all translations of one address space (all views). */
    void invalidateAsid(Asid asid);

    /**
     * Drop every shadow entry, in any context, that maps the given
     * machine frame. For frame reuse / scrubbing: the translations are
     * genuinely dead, so nothing is retained.
     */
    void invalidateMpa(Mpa frame_base);

    /**
     * Suspend every shadow entry mapping the given machine frame: the
     * frame changed cloaking state, so no context may keep *using* its
     * mapping, but the translations stay resident for reactivate().
     */
    void suspendMpa(Mpa frame_base);

    /** Drop everything (active and suspended). */
    void invalidateAll();

    /** Number of live (active) shadow entries (for tests / stats). */
    std::size_t entryCount() const
    {
        return index_.size() - suspendedSlots_;
    }

    /** Number of suspended (retained) entries. */
    std::size_t suspendedCount() const { return suspendedSlots_; }

    /** Active entries belonging to one address space (tests). */
    std::size_t entryCount(Asid asid) const;

    /**
     * High-water mark of resident slots over the manager's lifetime —
     * the shadow-page-table memory a real VMM would have had to hold.
     * The scale bench charts this against tenant count.
     */
    std::size_t peakSlotCount() const { return peakSlots_; }

    StatGroup& stats() { return stats_; }

  private:
    static constexpr std::uint32_t none = TranslationIndex::none;
    using Chain = TranslationIndex::Chain;

    /** Unsuspend a resident slot (a no-op if it is active). */
    void unsuspend(std::uint32_t slot);
    /** Unsuspend a resident slot and free it. */
    void remove(std::uint32_t slot);

    TranslationIndex index_;
    /** Per slot: parked by suspendMpa(), invisible to lookup(). */
    std::vector<bool> suspended_;
    std::size_t suspendedSlots_ = 0;
    /** Lifetime high-water mark of the resident count. */
    std::size_t peakSlots_ = 0;
    StatGroup stats_;
};

} // namespace osh::vmm

#endif // OSH_VMM_SHADOW_HH
