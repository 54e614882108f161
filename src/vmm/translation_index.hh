/**
 * @file
 * The slot index behind the TLB and the shadow page tables.
 *
 * Both cache (context, va page) -> shadow entry, and both must drop
 * every mapping of one va page in all views of an address space (a
 * guest PTE change), of one machine frame (a cloaking flip) and of one
 * address space (teardown). A TranslationIndex keeps the entries in
 * one slot array that grows to the peak resident count and is then
 * reused through a free list. Each resident slot is on three intrusive
 * chains: entries of its (asid, va page), entries mapping its frame
 * (keyed by pageBase(mpa)) and entries of its asid. An open-addressed
 * table per chain kind finds a chain's head: a cell holds a slot index
 * and the key is read from that slot, probing is linear, and deletion
 * shifts later cells back rather than leaving tombstones. Every
 * operation touches only the entries it matches, and none allocates
 * once the array has grown.
 *
 * Owners keep their own per-slot state (the TLB's FIFO order, the
 * shadows' suspended flag) in arrays indexed by slot number.
 */

#ifndef OSH_VMM_TRANSLATION_INDEX_HH
#define OSH_VMM_TRANSLATION_INDEX_HH

#include "base/types.hh"
#include "vmm/context.hh"

#include <cstdint>
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

/** Translation slots on three chain kinds; see the file comment. */
class TranslationIndex
{
  public:
    /** No slot: the end of every chain and an empty head cell. */
    static constexpr std::uint32_t none = ~std::uint32_t{0};

    /** A slot's neighbours on one list. */
    struct Link
    {
        std::uint32_t prev = none;
        std::uint32_t next = none;
    };

    /**
     * The chain kinds, by key: Va by (asid, va page), Frame by frame
     * base (the asid is unused), AddrSpace by asid (the key is unused).
     */
    enum Chain { Va, Frame, AddrSpace, chainCount };

    struct Slot
    {
        Context ctx;
        GuestVA vaPage = 0;
        ShadowEntry entry;
        /** Per chain kind; Va's next is the free list when unused. */
        Link links[chainCount];
    };

    /** @param slots Slots to allocate up front (the array grows past
     *    them on demand). */
    explicit TranslationIndex(std::size_t slots = 0);

    /** Slot of (ctx, va_page), or none. */
    std::uint32_t find(const Context& ctx, GuestVA va_page) const;

    /** Add (ctx, va_page) -> @p entry, which must not be resident, on
     *  every chain; returns its slot. */
    std::uint32_t insert(const Context& ctx, GuestVA va_page,
                         const ShadowEntry& entry);

    /** Replace a resident slot's entry, moving it to the new frame's
     *  chain if the frame changed. */
    void update(std::uint32_t slot, const ShadowEntry& entry);

    /** Unlink a resident slot from every chain and free it. */
    void remove(std::uint32_t slot);

    /** Free every slot, keeping the array and table sizes. */
    void clear();

    /**
     * Call @p f(slot) on each slot of one chain (keys as for Chain)
     * and return how many there were. @p f may remove the slot it is
     * given.
     */
    template <class F>
    std::size_t
    forEach(Chain c, Asid asid, std::uint64_t key, F f) const
    {
        std::size_t n = 0;
        for (std::uint32_t s = head(c, asid, key); s != none; ++n) {
            std::uint32_t next = slots_[s].links[c].next;
            f(s);
            s = next;
        }
        return n;
    }

    const Slot& operator[](std::uint32_t slot) const { return slots_[slot]; }

    /** Resident slots. */
    std::size_t size() const { return size_; }

    /** Slots allocated; every slot number is below this. */
    std::size_t slotCount() const { return slots_.size(); }

  private:
    /** Chain key of a slot. */
    std::uint64_t keyOf(Chain c, std::uint32_t slot) const;
    /** Head-table hash of a key; its high half picks the home cell. */
    static std::uint64_t hashOf(Chain c, Asid asid, std::uint64_t key);
    std::uint32_t home(std::uint64_t hash) const;
    /** Cell holding the head of (asid, key)'s chain c, or the empty
     *  cell where it would go. */
    std::uint32_t probe(Chain c, Asid asid, std::uint64_t key) const;
    /** First slot of a chain, or none. */
    std::uint32_t head(Chain c, Asid asid, std::uint64_t key) const;
    void pushChain(Chain c, std::uint32_t slot);
    void unlinkChain(Chain c, std::uint32_t slot);
    /** Empty every head cell and size the tables to @p cells, a power
     *  of two. */
    void resetHeads(std::size_t cells);
    /** Double the head tables, re-homing every chain head. */
    void growHeads();

    std::vector<Slot> slots_;
    std::uint32_t freeHead_ = none;
    std::size_t size_ = 0;
    /** Per chain kind, one cell per table slot; all the same size. */
    std::vector<std::uint32_t> heads_[chainCount];
    std::uint32_t mask_ = 0;
};

} // namespace osh::vmm

#endif // OSH_VMM_TRANSLATION_INDEX_HH
