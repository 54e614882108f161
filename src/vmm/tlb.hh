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
 * Entries live in a fixed array of capacity slots. Each slot is on
 * three intrusive lists: the FIFO (insertion order), the chain of
 * entries sharing its (asid, va page), and the chain of entries mapping
 * its frame. Two HeadTables find a chain's head, so lookup,
 * invalidateVa and invalidateMpa touch only the entries they match.
 */

#ifndef OSH_VMM_TLB_HH
#define OSH_VMM_TLB_HH

#include "base/stats.hh"
#include "base/types.hh"
#include "vmm/context.hh"
#include "vmm/head_table.hh"
#include "vmm/shadow.hh"

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

    std::size_t size() const { return size_; }

    StatGroup& stats() { return stats_; }

  private:
    static constexpr std::uint32_t none = HeadTable::none;
    using Link = HeadTable::Link;

    struct Slot
    {
        Context ctx;
        GuestVA vaPage = 0;
        ShadowEntry entry;
        Link fifo;  ///< Insertion order; the free list when unused.
        Link va;    ///< Entries of the same (asid, va page).
        Link frame; ///< Entries mapping the same machine frame.
    };

    /** Which chain a head table indexes. */
    enum class Chain { Va, Frame };

    /** Chain key of a slot: its va page, or its frame base. */
    std::uint64_t keyOf(Chain c, std::uint32_t slot) const;
    bool matches(Chain c, std::uint32_t slot, Asid asid,
                 std::uint64_t key) const;
    Link& link(Chain c, std::uint32_t slot);
    HeadTable&
    table(Chain c)
    {
        return c == Chain::Va ? vaHeads_ : frameHeads_;
    }
    const HeadTable&
    table(Chain c) const
    {
        return c == Chain::Va ? vaHeads_ : frameHeads_;
    }

    /** Head-table hash of a key (the asid is ignored for Chain::Frame). */
    static std::uint64_t hashOf(Chain c, Asid asid, std::uint64_t key);
    /** Cell holding the head of (asid, key)'s chain, or the empty cell
     *  where it would go. */
    std::uint32_t probe(Chain c, Asid asid, std::uint64_t key) const;
    void pushChain(Chain c, std::uint32_t slot);
    void unlinkChain(Chain c, std::uint32_t slot);

    /** Slot of (ctx, va_page), or none. */
    std::uint32_t find(const Context& ctx, GuestVA va_page) const;
    /** Unlink a resident slot from every list and free it. */
    void remove(std::uint32_t slot);
    /** Empty every table and put every slot on the free list. */
    void reset();

    std::size_t capacity_;
    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::uint32_t fifoHead_ = none; ///< Oldest resident entry.
    std::uint32_t fifoTail_ = none; ///< Newest resident entry.
    std::uint32_t freeHead_ = none;
    HeadTable vaHeads_;
    HeadTable frameHeads_;
    StatGroup stats_;
};

} // namespace osh::vmm

#endif // OSH_VMM_TLB_HH
