/**
 * @file
 * Live (pre-copy) migration of a cloaked process between machines.
 *
 * The source keeps running while dirty cloaked pages stream to the
 * target in rounds: each round briefly quiesces the victim at a trap
 * boundary, seals any resident plaintext, diffs per-page metadata
 * versions against what was already sent, and streams the dirty set as
 * a chain-MAC'd segment keyed per round (an old round's segment
 * replayed later fails its MAC — the stream cannot be replayed or
 * reordered by the untrusted transport). When the dirty set is small
 * enough (or rounds run out) the victim stops for good: a final
 * checkpoint image carries only the last dirty pages plus everything
 * pre-copy does not track (uncloaked pages, metadata, CTC, the
 * victim's own rollback floors), the source copy is abandoned, and the
 * target restores.
 * Downtime is the stop-and-copy capture plus the restore — not the
 * whole transfer.
 */

#ifndef OSH_MIGRATE_LIVE_HH
#define OSH_MIGRATE_LIVE_HH

#include "migrate/checkpoint.hh"

#include <cstdint>
#include <functional>
#include <vector>

namespace osh::migrate
{

/** Knobs for one live migration. */
struct LiveOptions
{
    /** Migration nonce (stream + image key derivation). */
    std::uint64_t nonce = 1;

    /** Syscall entries the victim runs between rounds. */
    std::uint64_t entriesPerRound = 8;

    /**
     * Transport hook: called with every streamed segment (and the
     * round that keyed it) before the target applies it. Attack
     * campaigns use it to tamper with or replay stream traffic.
     */
    std::function<void(std::uint64_t round,
                       std::vector<std::uint8_t>& segment)>
        interceptSegment;
};

/** Outcome of a completed live migration. */
struct LiveResult
{
    std::uint64_t rounds = 0;        ///< Pre-copy rounds run.
    std::uint64_t precopyPages = 0;  ///< Pages streamed before the stop.
    std::uint64_t stopCopyPages = 0; ///< Pages in the final image.
    std::uint64_t bytesStreamed = 0; ///< Segments + final image.
    Cycles downtimeCycles = 0;       ///< Stop-and-copy + restore cycles.
    Pid targetPid = 0;               ///< Pid minted on the target.
};

/**
 * Derive the chain-MAC key of pre-copy round @p round from the
 * migration @p base key. Both sides derive it independently; a segment
 * MAC'd under any other round's key is refused.
 */
crypto::Digest streamRoundKey(const crypto::Digest& base,
                              std::uint64_t round);

/**
 * Target side: verify one pre-copy segment under @p key and stage its
 * pages. Returns the page count, or the typed refusal (BadMac for
 * tampered/replayed traffic, Truncated/BadRecord for malformed).
 * Nothing is staged from a segment that fails verification.
 */
Expected<std::uint64_t, MigrateError>
applyStreamSegment(std::span<const std::uint8_t> segment,
                   const crypto::Digest& key, StagedPages& staged);

/**
 * Live-migrate @p pid from @p src to @p dst. On success the source
 * copy is dead (killed after the stop-and-copy) and the target holds
 * the restored process ready to run (dst.run()). On a typed failure
 * the victim still runs on the source — run src.run() to let it
 * finish there.
 */
Expected<LiveResult, MigrateError>
migrateLive(system::System& src, Pid pid, system::System& dst,
            const LiveOptions& options = {});

} // namespace osh::migrate

#endif // OSH_MIGRATE_LIVE_HH
