/**
 * @file
 * The registered hostile-kernel injection points.
 *
 * Each AttackPoint names one way a malicious commodity kernel can try
 * to break a cloaked application: tampering with swap traffic,
 * corrupting sealed metadata bundles at persistence boundaries,
 * snooping or scribbling user memory at syscall entry, probing trap
 * frames, lying to the VMM's shadow walker about guest page tables, or
 * molesting checkpoint images and live pre-copy streams in the
 * untrusted migration transport between two machines.
 * The AttackDirector implements the behavior; campaigns sweep the
 * whole enum against every victim workload.
 *
 * Points split into two classes the tests rely on:
 *
 *   - tampering points (isTamperPoint): if one fires, the run MUST end
 *     with the engine detecting it and killing the victim gracefully;
 *   - probe points: allowed to fire without detection, because the
 *     kernel only ever observes ciphertext/scrubbed state (the leak
 *     oracle checks that nothing cloaked was actually exposed), or —
 *     for ReadCorrupt — because unprotected file contents are outside
 *     Overshadow's guarantee entirely.
 */

#ifndef OSH_ATTACK_POINTS_HH
#define OSH_ATTACK_POINTS_HH

#include <cstdint>
#include <vector>

namespace osh::attack
{

/** One hostile-kernel behavior a campaign cell enables. */
enum class AttackPoint : std::uint8_t
{
    Baseline,        ///< No attack; validates oracle + determinism.
    SwapTamperByte,  ///< Flip byte 0 of every cloaked page swapped out.
    SwapTamperPage,  ///< Seeded multi-bit flips across the swapped page.
    SwapReplay,      ///< Substitute the first version seen per page.
    SwapResurrect,   ///< Serve stale freed-slot contents on swap-in.
    SealCorrupt,     ///< Flip a byte of a sealed bundle at exec.
    SealTruncate,    ///< Truncate a sealed bundle at exec.
    SealRollback,    ///< Save bundles at fsync, restore old ones at exec.
    SyscallSnoop,    ///< Read cloaked user pages at syscall entry.
    SyscallScribble, ///< Overwrite cloaked user pages at syscall entry.
    ReadCorrupt,     ///< Scribble over read() return buffers.
    TrapFrameProbe,  ///< Record register files at syscall entry.
    ShadowRemap,     ///< Lie to the shadow walker: va_a -> frame(va_b).
    ShadowDoubleMap, ///< Swap two VAs' translations (one frame, two VAs).
    MigImageTamper,  ///< Flip a seeded byte of a checkpoint image in flight.
    MigImageRollback,///< Re-present a stale checkpoint image to the target.
    MigStreamReplay, ///< Replay round 0's pre-copy segment in later rounds.
    MigManifestTrunc,///< Truncate the checkpoint image mid-transfer.
    RingTamper,      ///< Rewrite a submitted batch descriptor in the ring.
    RingCompForge,   ///< Forge batch completions (result + echo token).
    TimingVictimProbe,   ///< Time victim-cache hit vs full re-seal.
    TimingCleanProbe,    ///< Time clean-page re-encrypt vs dirty seal.
    TimingAsyncDrain,    ///< Time async-lane drain stalls.
    TimingMetadataProbe, ///< Time metadata cache hit vs miss.
    NumPoints,
};

/** Stable short name ("swap_tamper_byte", ...). */
const char* attackPointName(AttackPoint p);

/** Every point, Baseline first, in enum order. */
const std::vector<AttackPoint>& allAttackPoints();

/**
 * Tampering points must be Detected whenever they fire; probe points
 * may fire and stay Harmless (nothing cloaked is exposed).
 */
bool isTamperPoint(AttackPoint p);

/**
 * Migration points molest the checkpoint/live-migration transport
 * between two machines instead of one machine's kernel surfaces; the
 * campaign runs them through a dedicated two-System cell runner.
 */
bool isMigrationPoint(AttackPoint p);

/**
 * Timing points never touch victim state: they only observe the
 * virtualized TSC around probe accesses the kernel performs itself.
 * They are probe points (never Detected for firing), but the campaign
 * classifies a cell LEAK when the timing-recovered bit pattern matches
 * the timing victim's secret above chance.
 */
bool isTimingPoint(AttackPoint p);

} // namespace osh::attack

#endif // OSH_ATTACK_POINTS_HH
