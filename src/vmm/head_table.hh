/**
 * @file
 * Open-addressed table of intrusive-chain heads.
 *
 * The TLB and the shadow manager keep their entries in a slot array,
 * with each slot on intrusive chains of entries that share a key (a
 * va page, a machine frame, an address space). A HeadTable finds the
 * head of a key's chain. A cell holds a slot index and the key is read
 * from that slot, so a cell is four bytes; probing is linear, and
 * deletion shifts later cells back rather than leaving tombstones.
 *
 * The owner supplies the key logic: a 64-bit hash (the high half picks
 * the home cell) and a predicate that tells whether a slot heads the
 * chain being looked for.
 */

#ifndef OSH_VMM_HEAD_TABLE_HH
#define OSH_VMM_HEAD_TABLE_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace osh::vmm
{

/** Chain heads behind linear probing; see the file comment. */
class HeadTable
{
  public:
    /** An empty cell, and the end of every chain. */
    static constexpr std::uint32_t none = ~std::uint32_t{0};

    /** A slot's neighbours on one chain. */
    struct Link
    {
        std::uint32_t prev = none;
        std::uint32_t next = none;
    };

    /** Empty every cell and resize to @p cells (a power of two). */
    void
    reset(std::size_t cells)
    {
        cells_.assign(cells, none);
        mask_ = static_cast<std::uint32_t>(cells - 1);
    }

    std::size_t cellCount() const { return cells_.size(); }

    std::uint32_t& operator[](std::uint32_t cell) { return cells_[cell]; }
    std::uint32_t operator[](std::uint32_t cell) const { return cells_[cell]; }

    /** Cell of the chain head @p heads accepts, or the empty cell
     *  where that head would go. */
    template <class Heads>
    std::uint32_t
    probe(std::uint64_t hash, Heads heads) const
    {
        std::uint32_t i = home(hash);
        while (cells_[i] != none && !heads(cells_[i]))
            i = (i + 1) & mask_;
        return i;
    }

    /**
     * Empty @p cell. Later cells of its probe run shift back into the
     * hole unless that would move one before its home cell;
     * @p hash_of gives the hash of the chain a slot heads.
     */
    template <class HashOf>
    void
    erase(std::uint32_t cell, HashOf hash_of)
    {
        std::uint32_t hole = cell;
        for (std::uint32_t j = (hole + 1) & mask_; cells_[j] != none;
             j = (j + 1) & mask_) {
            std::uint32_t h = home(hash_of(cells_[j]));
            if (((j - h) & mask_) >= ((j - hole) & mask_)) {
                cells_[hole] = cells_[j];
                hole = j;
            }
        }
        cells_[hole] = none;
    }

    /** Resize to @p cells (a power of two), keeping every head. */
    template <class HashOf>
    void
    rehash(std::size_t cells, HashOf hash_of)
    {
        std::vector<std::uint32_t> old = std::move(cells_);
        reset(cells);
        for (std::uint32_t head : old) {
            if (head == none)
                continue;
            std::uint32_t i = home(hash_of(head));
            while (cells_[i] != none)
                i = (i + 1) & mask_;
            cells_[i] = head;
        }
    }

  private:
    std::uint32_t
    home(std::uint64_t hash) const
    {
        return static_cast<std::uint32_t>(hash >> 32) & mask_;
    }

    std::vector<std::uint32_t> cells_;
    std::uint32_t mask_ = 0;
};

} // namespace osh::vmm

#endif // OSH_VMM_HEAD_TABLE_HH
