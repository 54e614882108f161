/**
 * @file
 * Swap device.
 *
 * A slot-granular backing store for paged-out anonymous memory. The
 * kernel copies page *contents* here — for cloaked pages that content is
 * ciphertext, because the copy reads the frame through the kernel's
 * system view. The device also exposes the raw slot bytes so tests can
 * play a malicious disk (tampering / replaying swapped pages).
 */

#ifndef OSH_OS_SWAP_HH
#define OSH_OS_SWAP_HH

#include "base/stats.hh"
#include "base/types.hh"
#include "sim/cost_model.hh"
#include "trace/trace.hh"

#include <array>
#include <span>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace osh::os
{

/** Swap slot identifier. */
using SwapSlot = std::uint64_t;

/** Slot-granular page store with disk-like costs. */
class SwapDevice
{
  public:
    /**
     * @param cost Cost model charged for every slot I/O.
     * @param max_slots Device capacity.
     */
    SwapDevice(sim::CostModel& cost, std::uint64_t max_slots = 65536);

    /** Reserve a slot; nullopt when the device is full. */
    std::optional<SwapSlot> allocate();

    /**
     * Release a slot. The slot is scrubbed (zeroed) so a later owner of
     * the same slot can never observe the previous occupant's bytes —
     * freed-slot resurrection then requires an actively hostile disk
     * that kept its own copy, which the attack campaign models. The
     * scrub is bookkeeping, not modelled I/O: no cycles are charged.
     */
    void release(SwapSlot slot);

    /** Write one page into a slot (charges disk costs). */
    void writeSlot(SwapSlot slot, std::span<const std::uint8_t> page);

    /**
     * Write one page into a slot whose disk cost was already accounted
     * elsewhere (the asynchronous eviction lane models the I/O as
     * background work): counts the swap_out event, charges no cycles.
     */
    void writeSlotPrepaid(SwapSlot slot,
                          std::span<const std::uint8_t> page);

    /** Read one page back (charges disk costs). */
    void readSlot(SwapSlot slot, std::span<std::uint8_t> page);

    /** Raw slot bytes — used by tests to model a malicious disk. */
    std::array<std::uint8_t, pageSize>& rawSlot(SwapSlot slot);

    std::uint64_t slotsInUse() const { return inUse_; }

    // Device inspection (leak oracle) --------------------------------------

    /** Slots ever backed, in use or free. */
    std::uint64_t slotsBacked() const { return slots_.size(); }
    /** Bytes of any backed slot, free ones included (oracle scans). */
    std::span<const std::uint8_t> slotBytes(SwapSlot slot) const;

    /** Attach the machine tracer (the owning kernel wires this). */
    void setTracer(trace::Tracer* tracer) { tracer_ = tracer; }

    StatGroup& stats() { return stats_; }

  private:
    using Page = std::array<std::uint8_t, pageSize>;

    sim::CostModel& cost_;
    trace::Tracer* tracer_ = nullptr;
    std::uint64_t maxSlots_;
    /** One page per slot ever backed, allocated when the slot is first
     *  handed out and never moved: growing the device copies only the
     *  pointers, and rawSlot references stay valid. */
    std::vector<std::unique_ptr<Page>> slots_;
    std::vector<bool> used_;
    std::vector<SwapSlot> freeList_;
    std::uint64_t inUse_ = 0;
    StatGroup stats_;
};

} // namespace osh::os

#endif // OSH_OS_SWAP_HH
