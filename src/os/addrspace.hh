/**
 * @file
 * Per-process address spaces: VMAs plus the guest page table.
 *
 * The guest kernel manages mappings exactly as a commodity OS does: a
 * list of virtual memory areas describing what *should* be mapped, and a
 * page table populated lazily on demand faults. The VMM walks this page
 * table (through GuestOsHooks::translateGuest) when filling shadows.
 *
 * This class is pure bookkeeping; the Kernel performs all frame
 * allocation, copying and I/O.
 */

#ifndef OSH_OS_ADDRSPACE_HH
#define OSH_OS_ADDRSPACE_HH

#include "base/types.hh"
#include "os/layout.hh"
#include "os/swap.hh"
#include "os/vfs.hh"

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>

namespace osh::os
{

/** A guest page-table entry. */
struct Pte
{
    Gpa gpa = badAddr;
    bool present = false;
    bool writable = false;
    bool user = true;
    bool cow = false;
    bool swapped = false;
    SwapSlot slot = 0;
};

/** Kind of memory a VMA describes. */
enum class VmaType : std::uint8_t { Anon, File };

/** One virtual memory area: [start, end). */
struct Vma
{
    GuestVA start = 0;
    GuestVA end = 0;
    VmaType type = VmaType::Anon;
    std::uint64_t prot = protRead | protWrite;
    bool shared = false;

    /**
     * Resource-management hint that this range holds cloaked data (set
     * via the mapCloaked mmap flag). Never trusted for protection; it
     * only tells the kernel to copy eagerly instead of COW on fork.
     */
    bool cloaked = false;

    // File mappings.
    InodeId inode = 0;
    std::uint64_t fileOffset = 0;   ///< Page aligned.

    std::uint64_t pages() const { return (end - start) / pageSize; }
    bool contains(GuestVA va) const { return va >= start && va < end; }
};

/** VMAs + page table of one process. */
class AddressSpace
{
  public:
    explicit AddressSpace(Asid asid);

    Asid asid() const { return asid_; }

    /** Insert a VMA at a fixed range; fails (false) on overlap. */
    bool addVma(const Vma& vma);

    /**
     * Allocate @p pages pages in an arena (mmapBase or fileMapBase
     * depending on @p type) and insert the VMA. Returns the start VA,
     * or 0 if the allocation would run past the arena's end
     * (fileMapBase for anonymous memory, shimCloakedBase for files).
     */
    GuestVA allocVma(Vma vma, std::uint64_t pages);

    /** The VMA covering @p va, or nullptr. */
    Vma* findVma(GuestVA va);
    const Vma* findVma(GuestVA va) const;

    /**
     * Remove the VMA starting exactly at @p start; returns the removed
     * VMA. Page-table entries in the range are returned through
     * @p dropped so the kernel can release frames/slots.
     */
    std::optional<Vma> removeVma(GuestVA start, std::vector<Pte>& dropped,
                                 std::vector<GuestVA>& dropped_vas);

    /** Page-table entry for a page (creates an empty one). */
    Pte& pte(GuestVA va_page);

    /** Look up without creating. */
    const Pte* findPte(GuestVA va_page) const;
    Pte* findPte(GuestVA va_page);

    const std::map<GuestVA, Vma>& vmas() const { return vmas_; }
    std::map<GuestVA, Vma>& vmas() { return vmas_; }

    const std::unordered_map<GuestVA, Pte>& ptes() const { return ptes_; }
    std::unordered_map<GuestVA, Pte>& ptes() { return ptes_; }

    /** Number of resident (present) pages. */
    std::uint64_t residentPages() const;

    /** Copy the arena allocation cursors (fork clones the layout). */
    void
    adoptCursors(const AddressSpace& other)
    {
        mmapCursor_ = other.mmapCursor_;
        fileMapCursor_ = other.fileMapCursor_;
    }

    // Arena cursors, individually (checkpoint/restore serializes them:
    // future mmaps of a restored process must not collide with
    // rehydrated mappings).
    GuestVA mmapCursor() const { return mmapCursor_; }
    GuestVA fileMapCursor() const { return fileMapCursor_; }
    void setMmapCursor(GuestVA va) { mmapCursor_ = va; }
    void setFileMapCursor(GuestVA va) { fileMapCursor_ = va; }

  private:
    Asid asid_;
    std::map<GuestVA, Vma> vmas_;           ///< Keyed by start VA.
    std::unordered_map<GuestVA, Pte> ptes_; ///< Keyed by page VA.
    GuestVA mmapCursor_ = mmapBase;
    GuestVA fileMapCursor_ = fileMapBase;
};

} // namespace osh::os

#endif // OSH_OS_ADDRSPACE_HH
