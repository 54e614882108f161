/**
 * @file
 * Machine physical memory.
 *
 * 4 KiB frames addressed by machine physical address (MPA), held in
 * one lazily committed anonymous host mapping: the host backs a frame
 * when it is first written, so only frames the guest touches are
 * resident, and untouched frames read as zero. Host memory scales with
 * the guest's working set, not the configured frame count — the same
 * demand backing the VMM's pmap models for guest physical memory.
 *
 * Only the VMM hands out frames; the guest OS sees guest physical
 * addresses which the VMM's pmap translates to MPAs. Accesses are bounds
 * checked — an out-of-range MPA is a simulator bug (panic), because all
 * guest-originated addresses are validated earlier in the walk.
 */

#ifndef OSH_SIM_MEMORY_HH
#define OSH_SIM_MEMORY_HH

#include "base/types.hh"

#include <cstdint>
#include <span>

namespace osh::sim
{

/** Simulated machine memory over a lazily committed host mapping. */
class MachineMemory
{
  public:
    /** @param num_frames Number of 4 KiB machine frames. */
    explicit MachineMemory(std::uint64_t num_frames);
    ~MachineMemory();

    MachineMemory(const MachineMemory&) = delete;
    MachineMemory& operator=(const MachineMemory&) = delete;

    std::uint64_t numFrames() const { return numFrames_; }
    std::uint64_t sizeBytes() const { return numFrames_ * pageSize; }

    /** Read bytes at an MPA. The range must lie inside memory. */
    void read(Mpa addr, std::span<std::uint8_t> out) const;

    /** Write bytes at an MPA. The range must lie inside memory. */
    void write(Mpa addr, std::span<const std::uint8_t> data);

    /** Fixed-width accessors. */
    std::uint8_t read8(Mpa addr) const;
    std::uint16_t read16(Mpa addr) const;
    std::uint32_t read32(Mpa addr) const;
    std::uint64_t read64(Mpa addr) const;
    void write8(Mpa addr, std::uint8_t v);
    void write16(Mpa addr, std::uint16_t v);
    void write32(Mpa addr, std::uint32_t v);
    void write64(Mpa addr, std::uint64_t v);

    /**
     * Direct mutable view of one whole frame. Used by the VMM/cloak
     * engine to encrypt or hash a page in place; never handed to guest
     * code.
     */
    std::span<std::uint8_t> framePlain(Mpa frame_base);
    std::span<const std::uint8_t> framePlain(Mpa frame_base) const;

    /** Zero a whole frame. */
    void zeroFrame(Mpa frame_base);

  private:
    void check(Mpa addr, std::uint64_t len) const;

    std::uint64_t numFrames_;
    std::uint8_t* data_ = nullptr; ///< numFrames_ * pageSize bytes.
};

} // namespace osh::sim

#endif // OSH_SIM_MEMORY_HH
