/**
 * @file
 * Attack campaigns: sweep AttackPoint × victim workload × seed, run
 * each cell on a fresh System with an AttackDirector installed, and
 * classify the outcome.
 *
 * Verdicts:
 *
 *   - Detected: the cloak engine caught the attack — the victim was
 *     killed gracefully with a cloak-violation reason (never an
 *     osh_panic), or a protected-file open was refused after metadata
 *     tampering (victim exits workloads::victimStatusRefused with the
 *     rejection audited);
 *   - Harmless: the victim finished cleanly (exit 0). Probe attacks
 *     land here: they only ever observe ciphertext/scrubbed state;
 *   - Leak: the plaintext-sentinel oracle found cloaked bytes in
 *     kernel-visible state — machine frames after exit, swap slots,
 *     VFS disk images, sealed bundles, or anything the director's
 *     hostile kernel recorded (snoops, trap frames, freed slots).
 *     Always a defense failure;
 *   - Crash: anything else — the victim observed silent corruption of
 *     cloaked data, was killed for a non-cloak reason, or exited with
 *     an unexpected status. Always a harness/defense failure.
 *
 * A campaign is deterministic: same config, same verdict table, cell
 * for cell (the report's table() string is byte-identical).
 */

#ifndef OSH_ATTACK_CAMPAIGN_HH
#define OSH_ATTACK_CAMPAIGN_HH

#include "attack/points.hh"
#include "trace/metrics.hh"

#include <cstdint>
#include <string>
#include <vector>

namespace osh::system
{
class System;
}

namespace osh::attack
{

/** Outcome class of one campaign cell. */
enum class Verdict : std::uint8_t
{
    Harmless,
    Detected,
    Leak,
    Crash,
};

const char* verdictName(Verdict v);

/** One (seed, point, workload) run and its classification. */
struct CampaignCell
{
    std::uint64_t seed = 0;
    AttackPoint point = AttackPoint::Baseline;
    std::string workload;
    Verdict verdict = Verdict::Crash;
    std::string detail;            ///< Human-readable classification cause.
    std::uint64_t firings = 0;     ///< Director firings during the run.
    std::uint64_t auditEvents = 0; ///< Audit-ring size after the run.
    bool killed = false;           ///< Any process killed (gracefully).
    int status = 0;                ///< Init process exit status.
};

/** What to sweep. Defaults cover everything. */
struct CampaignConfig
{
    std::vector<std::uint64_t> seeds = {1, 2, 3};

    /** Empty means all attack points. */
    std::vector<AttackPoint> points;

    /** Empty means all victim workloads (workloads::victimNames()). */
    std::vector<std::string> workloads;

    /**
     * vCPUs per victim System. Verdicts and the table() string are
     * vCPU-count invariant — the SMP tests pin that down — so
     * campaigns may run multi-core to exercise per-vCPU world
     * switches without touching expectation files.
     */
    std::size_t vcpus = 1;

    /**
     * asyncEvictDepth for every victim System (0 = synchronous legacy
     * eviction). Like vcpus, verdicts and the table() string are
     * depth-invariant — the async pipeline defers only cycle charges,
     * never bytes — so the committed expectation tables hold at any
     * depth. The oracle additionally scans the engine's in-flight
     * staging buffers.
     */
    std::size_t asyncDepth = 0;

    /**
     * Timing-channel hardening for every victim System: virtualized
     * per-context clock (fuzz + offset) plus constant-cost cloak
     * responses. Defaults ON, so the full default sweep — including
     * the timing-oracle points against the timing victim — is clean.
     * Turning it off demonstrates the LEAK cells the hardening closes
     * (tools/attack_campaign --timing-hardening=0, and the dedicated
     * timing tests).
     */
    bool timingHardening = true;

    /** Throws std::invalid_argument on empty seeds or duplicates. */
    void validate() const;

    /** points / workloads with the empty-means-all defaults applied. */
    std::vector<AttackPoint> effectivePoints() const;
    std::vector<std::string> effectiveWorkloads() const;
};

/** Results of a whole campaign. */
struct CampaignReport
{
    std::vector<CampaignCell> cells;

    /** Aggregates (category trace::Category::Attack). */
    trace::MetricsRegistry metrics;

    std::size_t count(Verdict v) const;

    /** No Leak and no Crash cells. */
    bool clean() const
    {
        return count(Verdict::Leak) == 0 && count(Verdict::Crash) == 0;
    }

    /** Deterministic plain-text verdict table + totals line. */
    std::string table() const;
};

/** Run one cell: fresh System, director installed, victim run,
 *  oracle + classification. @p vcpus, @p async_depth and
 *  @p timing_hardening as in CampaignConfig. */
CampaignCell runCell(std::uint64_t seed, AttackPoint point,
                     const std::string& workload,
                     std::size_t vcpus = 1,
                     std::size_t async_depth = 0,
                     bool timing_hardening = true);

class AttackDirector;

/**
 * The leak oracle: scan every kernel-visible surface of @p sys (machine
 * frames, swap slots, VFS disk images, sealed bundles, plus everything
 * @p director recorded) for the little-endian byte image of
 * @p sentinel. Returns a description of the first hit, empty if clean.
 * Exposed so tests can prove the oracle actually finds planted bytes.
 */
std::string findSentinelLeak(system::System& sys,
                             const AttackDirector& director,
                             std::uint64_t sentinel);

/** Run the whole sweep. Throws std::invalid_argument on bad config. */
CampaignReport runCampaign(const CampaignConfig& config);

} // namespace osh::attack

#endif // OSH_ATTACK_CAMPAIGN_HH
