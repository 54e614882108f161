/**
 * @file
 * A small software TLB model.
 *
 * Caches (context, va page) -> shadow entry so the common case of a
 * repeated access charges only CostParams::memAccess. Capacity-bounded
 * with FIFO replacement. Invalidation is targeted: drops by VA or ASID
 * for guest events, and by machine frame when a frame changes cloaking
 * state (modelling a TLB shootdown of just that frame's mappings).
 *
 * Entries live in a TranslationIndex of capacity slots, whose chains
 * let lookup and every invalidation touch only the entries they match;
 * the TLB adds the FIFO list of its slots in insertion order.
 */

#ifndef OSH_VMM_TLB_HH
#define OSH_VMM_TLB_HH

#include "base/stats.hh"
#include "base/types.hh"
#include "vmm/context.hh"
#include "vmm/translation_index.hh"

#include <cstdint>
#include <optional>
#include <vector>

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

    std::size_t size() const { return index_.size(); }

    StatGroup& stats() { return stats_; }

  private:
    static constexpr std::uint32_t none = TranslationIndex::none;
    using Chain = TranslationIndex::Chain;

    /** Unlink a resident slot from the FIFO and the index. */
    void remove(std::uint32_t slot);

    std::size_t capacity_;
    TranslationIndex index_;
    /** Per slot: its neighbours in insertion order. */
    std::vector<TranslationIndex::Link> fifo_;
    std::uint32_t fifoHead_ = none; ///< Oldest resident entry.
    std::uint32_t fifoTail_ = none; ///< Newest resident entry.
    StatGroup stats_;
};

} // namespace osh::vmm

#endif // OSH_VMM_TLB_HH
