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
 */

#ifndef OSH_VMM_SHADOW_HH
#define OSH_VMM_SHADOW_HH

#include "base/stats.hh"
#include "base/types.hh"
#include "vmm/context.hh"

#include <optional>
#include <unordered_map>
#include <vector>

namespace osh::vmm
{

/** One cached translation in a shadow page table. */
struct ShadowEntry
{
    Mpa mpa = badAddr;       ///< Machine frame base.
    bool canRead = false;
    bool canWrite = false;
};

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
    std::size_t entryCount() const;

    /** Number of suspended (retained) entries. */
    std::size_t suspendedCount() const;

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
    /** A shadow slot: the translation plus its retention state. */
    struct Slot
    {
        ShadowEntry entry;
        bool suspended = false;
    };

    using PageMap = std::unordered_map<GuestVA, Slot>;

    struct Mapping
    {
        Context ctx;
        GuestVA vaPage;
    };

    void dropFromReverse(Mpa frame_base, const Context& ctx,
                         GuestVA va_page);

    std::unordered_map<Context, PageMap> shadows_;
    /** Reverse index: machine frame -> all slots (active or suspended)
     *  mapping it. */
    std::unordered_map<Mpa, std::vector<Mapping>> reverse_;
    /** Resident slot count and its lifetime high-water mark. */
    std::size_t liveSlots_ = 0;
    std::size_t peakSlots_ = 0;
    StatGroup stats_;
};

} // namespace osh::vmm

#endif // OSH_VMM_SHADOW_HH
