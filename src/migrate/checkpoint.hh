/**
 * @file
 * Checkpoint and restore of cloaked processes.
 *
 * checkpoint() serializes the full protected state of one quiesced
 * cloaked process — address-space layout, per-page protection metadata
 * (IVs, hashes, versions), every resident or swapped page image
 * (ciphertext: the domain is sealed first), the CTC binding and the
 * rollback floors its identity owns (sealed bundles stay on the disk)
 * — into a chain-MAC'd image (see image.hh). The image never contains
 * plaintext of cloaked pages or any key material: it is safe to hand
 * to the untrusted transport.
 *
 * restore() rehydrates the image on a *fresh* machine. Pages are
 * materialized as swap-resident, so the target's ordinary demand-paging
 * path — swap-in, then cloak decrypt+verify against the imported
 * metadata — performs the actual rehydration on first touch. Any
 * tampering with the image that survives the chain MAC (it cannot) or
 * with page bytes in transit is therefore caught by the same integrity
 * machinery that defeats a hostile kernel.
 *
 * Host-side lambda stacks are not serializable, so resumption is
 * cooperative: the victim program re-enters main() on the target,
 * discovers its still-cloaked arena (VmaQuery), and fast-forwards from
 * the progress state it keeps inside cloaked memory. Freezes only ever
 * land on trap boundaries, so that state is always consistent.
 */

#ifndef OSH_MIGRATE_CHECKPOINT_HH
#define OSH_MIGRATE_CHECKPOINT_HH

#include "migrate/image.hh"
#include "system/system.hh"

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

namespace osh::migrate
{

/** Knobs for one checkpoint. */
struct CheckpointOptions
{
    /** Migration nonce (chain-key derivation; one per migration). */
    std::uint64_t nonce = 1;

    /** Image version the ticket pins (bump per checkpoint of a victim;
     *  the target refuses any other version = rollback detection). */
    std::uint64_t imageVersion = 1;

    /**
     * When set, only these page VAs get PageData records (live
     * migration's stop-and-copy: everything else was pre-copied and is
     * supplied to restore() as staged pages). nullptr = all pages.
     */
    const std::set<GuestVA>* pageFilter = nullptr;
};

/** A produced checkpoint: image bytes plus the out-of-band ticket. */
struct CheckpointResult
{
    std::vector<std::uint8_t> image;
    Ticket ticket;
    std::uint64_t pagesCaptured = 0;  ///< PageData records written.
    std::uint64_t pagesSealed = 0;    ///< Plaintext pages encrypted first.
};

/** Pages streamed ahead of the image by live pre-copy rounds. */
using StagedPages = std::map<GuestVA, std::array<std::uint8_t, pageSize>>;

/** Result of a successful restore. */
struct RestoreResult
{
    Pid pid = 0;                       ///< Pid minted on the target.
    std::uint64_t pagesMaterialized = 0;
};

/**
 * Serialize the protected state of @p pid. The process must be
 * quiesced: frozen at a trap boundary (Kernel::requestFreeze) or not
 * yet run since its own restore. Fails with UnsupportedState for
 * processes that cannot be checkpointed (open descriptors, file
 * mappings or resources, live children) and NoCloaking on a
 * native-baseline system.
 */
Expected<CheckpointResult, MigrateError>
checkpoint(system::System& sys, Pid pid,
           const CheckpointOptions& options = {});

/**
 * Read the current bytes of one page of @p pid (frame if present, swap
 * slot if swapped-out). False when the page was never materialized.
 * Used by live pre-copy rounds to stream dirty pages without building
 * a full image.
 */
bool capturePage(system::System& sys, Pid pid, GuestVA va_page,
                 std::array<std::uint8_t, pageSize>& out);

/**
 * Rehydrate a checkpoint on @p sys (a fresh machine). Verifies the
 * chain MAC, the manifest against the @p ticket (identity + image
 * version), and the program registration; creates the process, imports
 * the protection domain and starts its thread (run sys.run() to
 * resume). @p staged supplies pages already streamed by live pre-copy
 * rounds; PageData records in the image override staged entries.
 */
Expected<RestoreResult, MigrateError>
restore(system::System& sys, std::span<const std::uint8_t> image,
        const Ticket& ticket, const StagedPages* staged = nullptr);

} // namespace osh::migrate

#endif // OSH_MIGRATE_CHECKPOINT_HH
