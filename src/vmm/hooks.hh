/**
 * @file
 * Interfaces the VMM exposes to the layers above it.
 *
 * The VMM itself knows nothing about the guest OS's page tables or the
 * cloak engine's page states; it calls through these interfaces during
 * shadow resolution. src/os implements GuestOsHooks; src/cloak
 * implements CloakBackend. A built-in passthrough backend (no cloaking)
 * serves as the native baseline.
 */

#ifndef OSH_VMM_HOOKS_HH
#define OSH_VMM_HOOKS_HH

#include "base/types.hh"
#include "vmm/context.hh"

#include <cstdint>
#include <span>

namespace osh::vmm
{

class Vcpu;

/**
 * Where an asynchronous eviction lands when it retires: the guest
 * kernel writes the sealed page into its swap slot and runs its
 * swap-out observation points.
 */
class EvictionSink
{
  public:
    virtual ~EvictionSink() = default;

    /** @p slot and @p replay_key are the values the eviction was
     *  queued with; @p sealed is the page's ciphertext. */
    virtual void commitEviction(std::uint64_t slot,
                                std::uint64_t replay_key,
                                std::span<const std::uint8_t> sealed) = 0;
};

/**
 * Hypercall numbers. Cloaked applications (their shim, really) talk to
 * the VMM directly through these; the guest kernel never sees them.
 * Numbers 1, 4, 6 and 8 are retired (-1): see CloakEngine::hypercall.
 */
enum class Hypercall : std::uint64_t
{
    CloakRegisterRegion = 2, ///< Attach a VA range to a cloaked resource.
    CloakUnregisterRegion = 3,
    CloakSealMetadata = 5,   ///< Persist a resource's metadata (files).
    CloakPrepareFork = 7,    ///< Parent authorizes a fork attach.
    CloakAttachFile = 9,     ///< Attach/create a protected file resource.
    CloakDiscardFile = 10,   ///< Owner resets a file (truncate/unlink).
    CloakTeardownDomain = 11,///< Destroy a domain and its resources.
    CloakSnapshotFork = 12,  ///< Capture post-fork metadata for a child.
    CloakIntrospect = 13,    ///< Query timing-hardening state (selector ABI).
};

/** CloakIntrospect selectors (hypercall arg 0). */
constexpr std::uint64_t introspectTimingHardening = 0;
constexpr std::uint64_t introspectVictimCacheCapacity = 1;
constexpr std::uint64_t introspectAsyncEvictDepth = 2;

/**
 * Interface to whatever decides how a guest page is presented to a
 * context. The Overshadow cloak engine implements this; the baseline is
 * a passthrough that simply consults the pmap.
 */
class CloakBackend
{
  public:
    virtual ~CloakBackend() = default;

    /**
     * Resolve a guest PTE into a machine mapping for the given context,
     * performing any cloaking transition (encrypt / decrypt+verify) the
     * access implies. Must return a mapping that permits @p access, or
     * throw ProcessKilled on an integrity violation.
     */
    virtual ResolvedPage resolvePage(const Context& ctx, GuestVA va_page,
                                     const GuestPte& pte,
                                     AccessType access) = 0;

    /** Handle a hypercall from a (cloaked) application. */
    virtual std::int64_t hypercall(Vcpu& vcpu, Hypercall num,
                                   std::span<const std::uint64_t> args) = 0;

    /**
     * Asynchronous eviction: seal the cloaked plaintext in @p gpa into
     * a backend staging buffer and hand the frame back immediately,
     * deferring @p sink's commitEviction(slot, replay_key, ciphertext)
     * until the queue drains. Returns false when the backend cannot
     * defer this frame (async disabled, queue unsupported, or the
     * frame holds no cloaked plaintext); the caller must then run its
     * synchronous path. The default backend never defers.
     */
    virtual bool
    evictPageAsync(Gpa gpa, EvictionSink& sink, std::uint64_t slot,
                   std::uint64_t replay_key)
    {
        (void)gpa;
        (void)sink;
        (void)slot;
        (void)replay_key;
        return false;
    }

    /**
     * Drain barrier: retire every queued asynchronous eviction (oldest
     * first), invoking each deferred commit. Callers place this before
     * any observation point that must see only fully-sealed state —
     * swap-in, fsync, checkpoint, trap entry. No-op by default.
     */
    virtual void drainAsyncEvictions() {}

    /** Asynchronous evictions still in flight (0 when unsupported). */
    virtual std::size_t asyncPendingEvictions() const { return 0; }
};

/**
 * Interface to the guest OS: translate guest virtual addresses through
 * the guest's own page tables, and take guest page faults.
 */
class GuestOsHooks
{
  public:
    virtual ~GuestOsHooks() = default;

    /**
     * Walk the guest page tables of @p asid. Returns a non-present PTE
     * if unmapped. Never blocks.
     */
    virtual GuestPte translateGuest(Asid asid, GuestVA va) = 0;

    /**
     * Deliver a guest page fault. Runs guest kernel code: may allocate
     * frames, perform COW, swap in pages, or kill the faulting process
     * (by throwing ProcessKilled). On return the VMM retries the walk.
     *
     * @param vcpu The faulting virtual CPU.
     * @param va Faulting address.
     * @param access The access that faulted.
     */
    virtual void handleGuestPageFault(Vcpu& vcpu, GuestVA va,
                                      AccessType access) = 0;

    /**
     * The MMU resolved a *write* mapping for (asid, va): the hardware
     * dirty bit. The OS uses this to track which file pages need
     * writeback.
     */
    virtual void notifyWrite(Asid asid, GuestVA va_page) { (void)asid;
                                                           (void)va_page; }
};

} // namespace osh::vmm

#endif // OSH_VMM_HOOKS_HH
