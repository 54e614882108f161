#include "attack/campaign.hh"

#include "attack/director.hh"
#include "base/rng.hh"
#include "cloak/engine.hh"
#include "migrate/checkpoint.hh"
#include "migrate/live.hh"
#include "os/kernel.hh"
#include "os/swap.hh"
#include "os/vfs.hh"
#include "system/system.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

#include <algorithm>
#include <iomanip>
#include <set>
#include <sstream>
#include <stdexcept>

namespace osh::attack
{

namespace
{

/** Little-endian byte image of the sentinel word. */
std::array<std::uint8_t, 8>
sentinelBytes(std::uint64_t sentinel)
{
    std::array<std::uint8_t, 8> out;
    for (std::size_t i = 0; i < 8; ++i)
        out[i] = static_cast<std::uint8_t>(sentinel >> (8 * i));
    return out;
}

bool
containsSentinel(std::span<const std::uint8_t> bytes,
                 const std::array<std::uint8_t, 8>& pattern)
{
    if (bytes.size() < pattern.size())
        return false;
    return std::search(bytes.begin(), bytes.end(), pattern.begin(),
                       pattern.end()) != bytes.end();
}

/** How a cell's processes ended, over one or more machines. */
struct KillScan
{
    bool killed = false;    ///< Any process was killed.
    bool violation = false; ///< One was killed for a cloak violation.
    bool other = false;     ///< One was killed for anything else.
    /** The last other kill's reason, else the first violation's. */
    std::string reason;
    int status = -1; ///< Exit status of the last process not killed.
};

/**
 * Fold @p sys's exit results into @p scan. A source copy abandoned
 * after a successful migration ("migrated away") is protocol, not
 * damage: it counts as killed but is not classified.
 */
void
scanKills(const system::System& sys, KillScan& scan)
{
    for (const auto& [pid, res] : sys.results()) {
        if (!res.killed) {
            scan.status = res.status;
            continue;
        }
        scan.killed = true;
        if (res.killReason == "migrated away")
            continue;
        if (res.killReason.rfind("cloak violation", 0) == 0) {
            scan.violation = true;
            if (scan.reason.empty())
                scan.reason = res.killReason;
        } else {
            scan.other = true;
            scan.reason = res.killReason;
        }
    }
}

} // namespace

/**
 * Runs post-exit on purpose: while the victim lives, its plaintext
 * legitimately sits in frames the MMU fences off; once it exits (or is
 * killed) nothing cloaked may remain visible anywhere.
 */
std::string
findSentinelLeak(system::System& sys, const AttackDirector& director,
                 std::uint64_t sentinel)
{
    const auto pattern = sentinelBytes(sentinel);

    sim::MachineMemory& mem = sys.machine().memory();
    for (std::uint64_t f = 0; f < mem.numFrames(); ++f) {
        if (containsSentinel(mem.framePlain(f * pageSize), pattern))
            return "machine frame " + std::to_string(f);
    }

    os::SwapDevice& swap = sys.kernel().swap();
    for (os::SwapSlot s = 0; s < swap.slotsBacked(); ++s) {
        if (containsSentinel(swap.slotBytes(s), pattern))
            return "swap slot " + std::to_string(s);
    }

    os::Vfs& vfs = sys.kernel().vfs();
    for (os::InodeId id : vfs.inodeIds()) {
        if (containsSentinel(vfs.inode(id).diskData, pattern))
            return "vfs inode " + std::to_string(id);
    }

    if (cloak::CloakEngine* engine = sys.cloak()) {
        for (const auto& [key, bundle] : engine->sealedStore()) {
            if (containsSentinel(bundle, pattern))
                return "sealed bundle " + std::to_string(key);
        }
        // In-flight async evictions: the staging buffers hold sealed
        // ciphertext on its way to swap — never plaintext.
        for (const auto& entry : engine->asyncPendingEntries()) {
            if (containsSentinel(entry.sealed, pattern))
                return "async eviction staging buffer";
        }
    }

    for (const auto& peek : director.snoops())
        if (containsSentinel(peek, pattern))
            return "snooped syscall buffer";
    for (const auto& ghost : director.graveyard())
        if (containsSentinel(ghost, pattern))
            return "freed swap slot copy";
    for (const auto& [key, page] : director.firstSwapVersions())
        if (containsSentinel(page, pattern))
            return "recorded swap version";
    for (const auto& [key, bundle] : director.savedBundles())
        if (containsSentinel(bundle, pattern))
            return "recorded sealed bundle";
    for (const vmm::RegisterFile& regs : director.trapFrames()) {
        for (std::uint64_t g : regs.gpr)
            if (g == sentinel)
                return "trap-frame register";
        if (regs.pc == sentinel || regs.sp == sentinel ||
            regs.flags == sentinel)
            return "trap-frame register";
    }
    return {};
}

const char*
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::Harmless: return "HARMLESS";
      case Verdict::Detected: return "DETECTED";
      case Verdict::Leak: return "LEAK";
      case Verdict::Crash: return "CRASH";
    }
    return "?";
}

void
CampaignConfig::validate() const
{
    if (seeds.empty())
        throw std::invalid_argument(
            "CampaignConfig: no seeds — a campaign needs at least one "
            "run per cell");
    if (std::set<std::uint64_t>(seeds.begin(), seeds.end()).size() !=
        seeds.size()) {
        throw std::invalid_argument(
            "CampaignConfig: duplicate seeds would rerun identical "
            "cells and skew the verdict counts");
    }
    std::set<std::string> wl(workloads.begin(), workloads.end());
    if (wl.size() != workloads.size())
        throw std::invalid_argument(
            "CampaignConfig: duplicate workloads");
    const auto& known = workloads::victimNames();
    for (const std::string& w : workloads) {
        if (std::find(known.begin(), known.end(), w) == known.end())
            throw std::invalid_argument(
                "CampaignConfig: unknown victim workload '" + w + "'");
    }
    std::set<AttackPoint> pts(points.begin(), points.end());
    if (pts.size() != points.size())
        throw std::invalid_argument("CampaignConfig: duplicate points");
    for (AttackPoint p : points) {
        if (p >= AttackPoint::NumPoints)
            throw std::invalid_argument(
                "CampaignConfig: attack point out of range");
    }
}

std::vector<AttackPoint>
CampaignConfig::effectivePoints() const
{
    return points.empty() ? allAttackPoints() : points;
}

std::vector<std::string>
CampaignConfig::effectiveWorkloads() const
{
    return workloads.empty() ? workloads::victimNames() : workloads;
}

std::size_t
CampaignReport::count(Verdict v) const
{
    return static_cast<std::size_t>(
        std::count_if(cells.begin(), cells.end(),
                      [v](const CampaignCell& c) {
                          return c.verdict == v;
                      }));
}

std::string
CampaignReport::table() const
{
    std::ostringstream out;
    out << std::left << std::setw(6) << "seed" << std::setw(19)
        << "point" << std::setw(20) << "workload" << std::setw(10)
        << "verdict" << std::right << std::setw(8) << "firings"
        << std::setw(8) << "audits" << std::setw(8) << "status"
        << "\n";
    out << std::string(79, '-') << "\n";
    for (const CampaignCell& c : cells) {
        out << std::left << std::setw(6) << c.seed << std::setw(19)
            << attackPointName(c.point) << std::setw(20) << c.workload
            << std::setw(10) << verdictName(c.verdict) << std::right
            << std::setw(8) << c.firings << std::setw(8)
            << c.auditEvents << std::setw(8) << c.status << "\n";
    }
    out << "totals: cells=" << cells.size()
        << " harmless=" << count(Verdict::Harmless)
        << " detected=" << count(Verdict::Detected)
        << " leak=" << count(Verdict::Leak)
        << " crash=" << count(Verdict::Crash) << "\n";
    return out.str();
}

namespace
{

/**
 * Chance recovery of the balanced 32-bit timing secret is 16/32; the
 * probability of >= 24/32 matches by luck is under 0.4%, so a cell
 * clearing this bar recovered real information through time.
 */
constexpr std::size_t timingLeakMatchBits = 24;

system::SystemConfig
victimSystemConfig(std::uint64_t seed, AttackPoint point,
                   const std::string& workload, std::size_t vcpus,
                   std::size_t async_depth, bool timing_hardening)
{
    // The paging victim must thrash: give it fewer frames than its
    // arena so every page cycles through the (hostile) swap device.
    bool paging = workload == "wl.victim.paging";
    auto b = system::SystemConfig::Builder{}
                 .seed(seed)
                 .guestFrames(paging ? 96 : 512)
                 .cloaking(true)
                 .vcpus(vcpus)
                 .asyncEvictDepth(async_depth);
    // Per-oracle environment pins, so each timing point exercises
    // exactly the cache it targets regardless of CLI knobs.
    if (point == AttackPoint::TimingCleanProbe)
        b.victimCacheEntries(0); // force the clean re-encrypt path
    if (point == AttackPoint::TimingMetadataProbe)
        b.metadataCacheEntries(12); // an LRU the noise set just evicts
    if (point == AttackPoint::TimingAsyncDrain)
        b.asyncEvictDepth(4); // the drain-stall oracle needs lanes
    // Hardening applies only to timing cells: every legacy cell keeps
    // the exact cost sequence its committed expectation row replays.
    b.timingHardening(timing_hardening && isTimingPoint(point));
    return b.build();
}

/**
 * Migration cells: two machines, an untrusted transport in between.
 * The "attack" is the transport molesting checkpoint images or
 * pre-copy stream segments; the defense is the chain-MAC'd image
 * format plus the ticket carried out-of-band over the trusted
 * VMM-to-VMM channel. A typed refusal (restore or stream apply) counts
 * as Detected; tampered state accepted by the target is a defense
 * failure. The leak oracle additionally scans every byte the transport
 * saw — images and segments are attacker-visible and must be
 * ciphertext-only.
 *
 * Only the compute and paging victims speak the cooperative-resume
 * protocol; for the others the transport never gets traffic to molest
 * and the victim just runs out its course on the source (Harmless).
 */
CampaignCell
runMigrationCell(std::uint64_t seed, AttackPoint point,
                 const std::string& workload, std::size_t vcpus,
                 std::size_t async_depth)
{
    CampaignCell cell;
    cell.seed = seed;
    cell.point = point;
    cell.workload = workload;

    system::SystemConfig cfg = victimSystemConfig(
        seed, point, workload, vcpus, async_depth, true);
    system::System src(cfg);
    workloads::registerAll(src);
    system::System dst(cfg);
    workloads::registerAll(dst);

    // Baseline directors: no hostile behavior on either kernel — the
    // attack lives in the transport — but the leak oracle wants each
    // machine's recorded surfaces.
    DirectorConfig dcfg;
    dcfg.point = AttackPoint::Baseline;
    dcfg.seed = cfg.effectiveAttackSeed();
    AttackDirector src_dir(src, dcfg);
    AttackDirector dst_dir(dst, dcfg);

    std::uint64_t point_state = static_cast<std::uint64_t>(point);
    const std::uint64_t aseed =
        cfg.effectiveAttackSeed() ^ splitmix64(point_state);
    const std::uint64_t entries = 12;
    const std::uint64_t nonce = seed ^ 0x517e;

    bool migratable = workload == "wl.victim.compute" ||
                      workload == "wl.victim.paging";

    std::vector<std::vector<std::uint8_t>> exposed;
    std::string refusal;
    bool accepted = false;
    bool migrated = false;

    int init_status = -1;
    if (!migratable) {
        // The fork victim's children exit with designed nonzero
        // statuses; like the one-machine cells, only init's counts.
        init_status = src.runProgram(workload).status;
    } else if (point == AttackPoint::MigStreamReplay) {
        Pid pid = src.launch(workload);
        migrate::LiveOptions lopts;
        lopts.nonce = nonce;
        lopts.entriesPerRound = entries;
        std::vector<std::uint8_t> first_segment;
        lopts.interceptSegment = [&](std::uint64_t round,
                                     std::vector<std::uint8_t>& seg) {
            exposed.push_back(seg);
            if (round == 0) {
                first_segment = seg;
                return;
            }
            // Replay the bulk round on the wire in place of every
            // later round's traffic.
            seg = first_segment;
            ++cell.firings;
        };
        auto live = migrate::migrateLive(src, pid, dst, lopts);
        if (!live.ok()) {
            refusal = migrate::migrateErrorName(live.error());
            // The aborted migration leaves the victim thawed on the
            // source; let it run out its course there.
            if (src.kernel().isFrozen(pid))
                src.kernel().thaw(pid);
            src.run();
        } else {
            migrated = true;
            accepted = cell.firings > 0;
        }
    } else {
        Pid pid = src.launch(workload);
        src.kernel().requestFreeze(pid, entries);
        src.run();
        if (src.kernel().isFrozen(pid)) {
            migrate::CheckpointOptions copts;
            copts.nonce = nonce;
            auto ckpt = migrate::checkpoint(src, pid, copts);
            if (ckpt.ok()) {
                std::vector<std::uint8_t> bytes = (*ckpt).image;
                migrate::Ticket ticket = (*ckpt).ticket;
                std::uint64_t at = aseed, flip = aseed ^ 1;
                if (point == AttackPoint::MigImageTamper) {
                    std::uint64_t off = splitmix64(at) % bytes.size();
                    bytes[off] ^= static_cast<std::uint8_t>(
                        1 + splitmix64(flip) % 255);
                    ++cell.firings;
                } else if (point == AttackPoint::MigManifestTrunc) {
                    bytes.resize(1 + splitmix64(at) % (bytes.size() - 1));
                    ++cell.firings;
                } else { // MigImageRollback
                    // Let the victim progress, cut a fresh image, then
                    // re-present the stale one under the new ticket.
                    src.kernel().thaw(pid);
                    src.kernel().requestFreeze(pid, entries);
                    src.run();
                    if (src.kernel().isFrozen(pid)) {
                        migrate::CheckpointOptions c2 = copts;
                        c2.imageVersion = copts.imageVersion + 1;
                        auto ckpt2 = migrate::checkpoint(src, pid, c2);
                        if (ckpt2.ok()) {
                            exposed.push_back((*ckpt2).image);
                            ticket = (*ckpt2).ticket;
                            ++cell.firings;
                        }
                    }
                }
                exposed.push_back(bytes);
                if (cell.firings > 0) {
                    auto restored =
                        migrate::restore(dst, bytes, ticket);
                    if (!restored.ok()) {
                        refusal =
                            migrate::migrateErrorName(restored.error());
                    } else {
                        accepted = true;
                        migrated = true;
                    }
                }
            }
        }
        // Whatever happened to the transfer, the source copy still
        // holds the victim: thaw and let it finish there.
        if (src.kernel().isFrozen(pid))
            src.kernel().thaw(pid);
        src.run();
    }
    if (migrated)
        dst.run();

    const cloak::CloakEngine* src_engine = src.cloak();
    const cloak::CloakEngine* dst_engine = dst.cloak();
    cell.auditEvents =
        (src_engine != nullptr ? src_engine->auditLog().size() : 0) +
        (dst_engine != nullptr ? dst_engine->auditLog().size() : 0);

    // Exit status of the victim wherever it actually finished.
    KillScan kills;
    scanKills(src, kills);
    scanKills(dst, kills);
    cell.killed = kills.killed;
    cell.status = init_status >= 0 ? init_status
                                   : (kills.status < 0 ? 0 : kills.status);

    std::uint64_t sentinel = workloads::attackSentinel(seed);
    const auto pattern = sentinelBytes(sentinel);
    std::string leak;
    for (const auto& bytes : exposed) {
        if (containsSentinel(bytes, pattern)) {
            leak = "migration transport bytes";
            break;
        }
    }
    if (leak.empty())
        leak = findSentinelLeak(src, src_dir, sentinel);
    if (leak.empty())
        leak = findSentinelLeak(dst, dst_dir, sentinel);

    if (!leak.empty()) {
        cell.verdict = Verdict::Leak;
        cell.detail = "sentinel found in " + leak;
    } else if (kills.other) {
        cell.verdict = Verdict::Crash;
        cell.detail = "killed: " + kills.reason;
    } else if (accepted) {
        cell.verdict = Verdict::Crash;
        cell.detail = "tampered migration state accepted";
    } else if (!refusal.empty() && cell.firings > 0) {
        cell.verdict = Verdict::Detected;
        cell.detail = "migration refused: " + refusal;
    } else if (kills.violation) {
        cell.verdict = Verdict::Detected;
        cell.detail = kills.reason;
    } else if (cell.status == 0) {
        cell.verdict = Verdict::Harmless;
        cell.detail = migratable
                          ? "attack never engaged the transfer"
                          : "not a migration-capable victim";
    } else {
        cell.verdict = Verdict::Crash;
        cell.detail = "exit status " + std::to_string(cell.status);
    }
    return cell;
}

} // namespace

CampaignCell
runCell(std::uint64_t seed, AttackPoint point,
        const std::string& workload, std::size_t vcpus,
        std::size_t async_depth, bool timing_hardening)
{
    if (isMigrationPoint(point))
        return runMigrationCell(seed, point, workload, vcpus,
                                async_depth);

    CampaignCell cell;
    cell.seed = seed;
    cell.point = point;
    cell.workload = workload;

    system::SystemConfig cfg = victimSystemConfig(
        seed, point, workload, vcpus, async_depth, timing_hardening);
    system::System sys(cfg);
    workloads::registerAll(sys);

    DirectorConfig dcfg;
    dcfg.point = point;
    dcfg.seed = cfg.effectiveAttackSeed();
    AttackDirector director(sys, dcfg);

    system::ExitResult init = sys.runProgram(workload);
    cell.firings = director.firings();
    cell.status = init.status;

    const cloak::CloakEngine* engine = sys.cloak();
    cell.auditEvents = engine != nullptr ? engine->auditLog().size() : 0;

    // Any process of the cell counts: a fork child killed for a cloak
    // violation is a detection even though the parent exits oddly.
    KillScan kills;
    scanKills(sys, kills);
    cell.killed = kills.killed;

    std::uint64_t sentinel = workloads::attackSentinel(seed);
    std::string leak = findSentinelLeak(sys, director, sentinel);

    // Timing-oracle classification: no cloaked byte ever reaches the
    // kernel, but if the probe's threshold-recovered bits match the
    // timing victim's balanced secret above chance, time itself was
    // the channel — and that is a leak.
    std::string timing_leak;
    if (leak.empty() && isTimingPoint(point) &&
        workload == "wl.victim.timing") {
        const auto secret = workloads::timingSecretBits(seed);
        const auto& got = director.recoveredBits();
        if (got.size() >= secret.size()) {
            // The victim's warmup round may have produced a leading
            // probe; the last |secret| probes line up with the bits.
            std::size_t off = got.size() - secret.size();
            std::size_t matches = 0;
            for (std::size_t i = 0; i < secret.size(); ++i)
                if (got[off + i] == secret[i])
                    ++matches;
            if (matches >= timingLeakMatchBits) {
                timing_leak = "timing oracle recovered " +
                              std::to_string(matches) + "/" +
                              std::to_string(secret.size()) +
                              " secret bits";
            }
        }
    }

    if (!leak.empty()) {
        cell.verdict = Verdict::Leak;
        cell.detail = "sentinel found in " + leak;
    } else if (!timing_leak.empty()) {
        cell.verdict = Verdict::Leak;
        cell.detail = timing_leak;
    } else if (kills.other) {
        cell.verdict = Verdict::Crash;
        cell.detail = "killed: " + kills.reason;
    } else if (kills.violation) {
        cell.verdict = Verdict::Detected;
        cell.detail = kills.reason;
    } else if (init.status == workloads::victimStatusRefused) {
        cell.verdict = Verdict::Detected;
        cell.detail = "protected-file open refused";
    } else if (init.status == 0) {
        cell.verdict = Verdict::Harmless;
        cell.detail = "clean exit";
    } else {
        cell.verdict = Verdict::Crash;
        cell.detail = "exit status " + std::to_string(init.status);
    }
    return cell;
}

CampaignReport
runCampaign(const CampaignConfig& config)
{
    config.validate();
    CampaignReport report;
    auto cat = static_cast<std::uint8_t>(trace::Category::Attack);
    const auto points = config.effectivePoints();
    const auto workloads = config.effectiveWorkloads();
    for (std::uint64_t seed : config.seeds) {
        for (AttackPoint point : points) {
            for (const std::string& wl : workloads) {
                CampaignCell cell =
                    runCell(seed, point, wl, config.vcpus,
                            config.asyncDepth,
                            config.timingHardening);
                report.metrics.counter(cat, "cells")++;
                report.metrics.counter(cat, "firings") +=
                    cell.firings;
                report.metrics.counter(
                    cat, std::string("verdict_") +
                             verdictName(cell.verdict))++;
                report.metrics.counter(
                    cat, std::string("point_") +
                             attackPointName(cell.point) + "_" +
                             verdictName(cell.verdict))++;
                report.cells.push_back(std::move(cell));
            }
        }
    }
    return report;
}

} // namespace osh::attack
