/**
 * @file
 * A small software TLB model.
 *
 * Caches (context, va page) -> shadow entry so the common case of a
 * repeated access charges only CostParams::memAccess. Capacity-bounded
 * with FIFO replacement. Invalidation is targeted: drops by VA or ASID
 * for guest events, and by machine frame when a frame changes cloaking
 * state (modelling a TLB shootdown of just that frame's mappings).
 */

#ifndef OSH_VMM_TLB_HH
#define OSH_VMM_TLB_HH

#include "base/stats.hh"
#include "base/types.hh"
#include "vmm/context.hh"
#include "vmm/shadow.hh"

#include <deque>
#include <optional>
#include <unordered_map>

namespace osh::vmm
{

/** Capacity-bounded translation cache. */
class Tlb
{
  public:
    /**
     * @param capacity Entries the cache holds.
     * @param name Stat-group name; per-vCPU instances get distinct
     *   names ("tlb", "tlb1", ...) so their counters stay separable.
     */
    explicit Tlb(std::size_t capacity = 256, const char* name = "tlb");

    std::optional<ShadowEntry> lookup(const Context& ctx, GuestVA va_page);

    void insert(const Context& ctx, GuestVA va_page,
                const ShadowEntry& entry);

    void invalidateVa(Asid asid, GuestVA va_page);
    void invalidateAsid(Asid asid);

    /** Targeted shootdown of every entry mapping a machine frame. */
    void invalidateMpa(Mpa frame_base);

    void flushAll();

    std::size_t size() const { return entries_.size(); }

    /**
     * Length of the replacement queue, including stale occurrences left
     * behind by targeted invalidations (bounded by compaction; exposed
     * for the regression tests).
     */
    std::size_t queueLength() const { return fifo_.size(); }

    StatGroup& stats() { return stats_; }

  private:
    struct Key
    {
        Context ctx;
        GuestVA vaPage;

        bool operator==(const Key&) const = default;
    };

    struct KeyHash
    {
        std::size_t
        operator()(const Key& k) const noexcept
        {
            return std::hash<Context>{}(k.ctx) ^
                   std::hash<GuestVA>{}(k.vaPage << 1);
        }
    };

    void evictOne();
    void compactFifo();

    std::size_t capacity_;
    std::unordered_map<Key, ShadowEntry, KeyHash> entries_;
    std::deque<Key> fifo_;
    /**
     * Occurrences of each key in fifo_. Invalidations only erase
     * entries_; a later re-insert queues the key again, so the queue can
     * briefly hold duplicates. Eviction skips any occurrence that is not
     * the key's newest (count > 0 after the pop), which keeps stale
     * duplicates from evicting a live entry.
     */
    std::unordered_map<Key, std::uint32_t, KeyHash> queued_;
    StatGroup stats_;
};

} // namespace osh::vmm

#endif // OSH_VMM_TLB_HH
