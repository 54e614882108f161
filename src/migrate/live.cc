#include "migrate/live.hh"

#include "base/bytes.hh"
#include "base/logging.hh"
#include "crypto/hmac.hh"

#include <map>
#include <utility>

namespace osh::migrate
{

namespace
{

/** Image version the final ticket pins. */
constexpr std::uint64_t imageVersion = 1;

/** Pre-copy rounds before forcing stop-and-copy. */
constexpr std::uint64_t maxRounds = 8;

/** Stop-and-copy once a round's dirty set is this small. Rounds also
 *  stop early when the dirty set stops shrinking — a victim that
 *  redirties pages as fast as rounds drain them gets no benefit from
 *  further pre-copy. */
constexpr std::uint64_t dirtyPageThreshold = 4;

/** Dirty cloaked pages of a quiesced, sealed domain: every metadata
 *  version newer than what @p last_sent recorded, mapped back to the
 *  VA the domain's regions give it. Updates @p last_sent in place. */
std::set<GuestVA>
collectDirty(system::System& sys, const cloak::Domain& domain,
             std::map<std::pair<ResourceId, std::uint64_t>,
                      std::uint64_t>& last_sent)
{
    std::set<GuestVA> dirty;
    cloak::CloakEngine* engine = sys.cloak();
    for (const cloak::Region& r : domain.regions) {
        const cloak::Resource* res =
            engine->metadata().lookup(r.resource).valueOr(nullptr);
        if (res == nullptr)
            continue;
        std::uint64_t region_pages = (r.end - r.start) / pageSize;
        for (const auto& [idx, meta] : res->pages) {
            if (idx < r.resourcePageOffset ||
                idx >= r.resourcePageOffset + region_pages)
                continue;
            auto key = std::make_pair(res->id, idx);
            auto it = last_sent.find(key);
            if (it != last_sent.end() && it->second == meta.version)
                continue;
            GuestVA va =
                r.start + (idx - r.resourcePageOffset) * pageSize;
            dirty.insert(va);
            last_sent[key] = meta.version;
        }
    }
    return dirty;
}

/** Materialized page VAs outside every domain region — pages pre-copy
 *  cannot track (no metadata versions), so the final image must carry
 *  them all. */
std::set<GuestVA>
uncloakedPages(const os::Process& proc, const cloak::Domain& domain)
{
    std::set<GuestVA> vas;
    for (const auto& [va, pte] : proc.as.ptes()) {
        if (!pte.present && !pte.swapped)
            continue;
        bool cloaked = false;
        for (const cloak::Region& r : domain.regions) {
            if (r.contains(va)) {
                cloaked = true;
                break;
            }
        }
        if (!cloaked)
            vas.insert(va);
    }
    return vas;
}

} // namespace

crypto::Digest
streamRoundKey(const crypto::Digest& base, std::uint64_t round)
{
    std::array<std::uint8_t, 8> info;
    storeLe64(info.data(), round);
    return crypto::hmacSha256(crypto::HmacKey(base), info);
}

Expected<std::uint64_t, MigrateError>
applyStreamSegment(std::span<const std::uint8_t> segment,
                   const crypto::Digest& key, StagedPages& staged)
{
    ImageReader reader(key, segment);
    StagedPages fresh;
    while (true) {
        auto rec = reader.next();
        if (!rec.ok())
            return Error(rec.error());
        const Record& r = *rec;
        if (r.type == RecordType::End)
            break;
        PayloadReader pr(r.payload);
        GuestVA va = pr.u64();
        pr.bytes(fresh[va]);
        if (r.type != RecordType::PageData || !pr.done() ||
            va != pageBase(va))
            return Error(MigrateError::BadRecord);
    }
    // Stage only after the whole segment verified: a segment that
    // fails mid-way must not leave half its pages behind.
    std::uint64_t count = fresh.size();
    for (auto& [va, bytes] : fresh)
        staged[va] = bytes;
    return count;
}

Expected<LiveResult, MigrateError>
migrateLive(system::System& src, Pid pid, system::System& dst,
            const LiveOptions& options)
{
    cloak::CloakEngine* src_engine = src.cloak();
    if (src_engine == nullptr || dst.cloak() == nullptr)
        return Error(MigrateError::NoCloaking);
    os::Process* proc = src.kernel().findProcess(pid);
    if (proc == nullptr || !proc->cloaked)
        return Error(MigrateError::UnsupportedState);
    // The protection domain is created when the victim's thread first
    // runs, so it is resolved after the first freeze lands — a freshly
    // launch()ed victim is a valid migration source.
    cloak::Domain* domain = nullptr;

    // Each side derives its own key ladder; only matching master
    // secrets (the trusted VMM-to-VMM channel) let segments verify.
    crypto::Digest src_base = src_engine->migrationKey(options.nonce);
    crypto::Digest dst_base = dst.cloak()->migrationKey(options.nonce);

    LiveResult result;
    StagedPages staged;
    std::map<std::pair<ResourceId, std::uint64_t>, std::uint64_t>
        last_sent;
    std::set<GuestVA> final_dirty;

    std::uint64_t prev_dirty = ~std::uint64_t{0};
    bool stopping = false;
    for (std::uint64_t round = 0; !stopping; ++round) {
        // Let the victim run a burst, then park it at a trap boundary.
        src.kernel().requestFreeze(pid, options.entriesPerRound);
        src.run();
        if (!src.kernel().isFrozen(pid)) {
            // The victim exited on its own before the freeze landed —
            // nothing left to migrate.
            return Error(MigrateError::UnsupportedState);
        }
        if (domain == nullptr) {
            domain = proc->domain != systemDomain
                         ? src_engine->findDomain(proc->domain)
                         : nullptr;
            if (domain == nullptr) {
                src.kernel().thaw(pid);
                return Error(MigrateError::UnsupportedState);
            }
        }

        // Seal so dirty plaintext becomes versioned ciphertext, then
        // diff versions against what the target already holds.
        src_engine->sealDomainPlaintext(domain->id);
        std::set<GuestVA> dirty =
            collectDirty(src, *domain, last_sent);

        result.rounds = round + 1;
        // Stop when the dirty set is small, when it stops shrinking
        // meaningfully (under 25% per round: the victim redirties
        // pages nearly as fast as rounds drain them — more pre-copy
        // is pure waste), or when rounds run out. Round 0 is exempt:
        // it is the bulk transfer, not a dirty-rate sample; round 1's
        // set is the first honest rate.
        bool converged =
            round > 0 &&
            (dirty.size() <= dirtyPageThreshold ||
             (round > 1 && dirty.size() * 4 >= prev_dirty * 3));
        if (round + 1 >= maxRounds || converged) {
            // Keep the victim frozen and fold this round's dirty set
            // into the stop-and-copy image.
            final_dirty = std::move(dirty);
            stopping = true;
            break;
        }
        prev_dirty = dirty.size();

        ImageWriter writer(streamRoundKey(src_base, round));
        std::uint64_t streamed = 0;
        std::array<std::uint8_t, pageSize> buf;
        for (GuestVA va : dirty) {
            if (!capturePage(src, pid, va, buf))
                continue;
            PayloadWriter p;
            p.u64(va);
            p.bytes(buf);
            writer.append(RecordType::PageData, p.view());
            ++streamed;
        }
        std::vector<std::uint8_t> segment = writer.finish();
        if (options.interceptSegment)
            options.interceptSegment(round, segment);
        result.bytesStreamed += segment.size();

        auto applied = applyStreamSegment(
            segment, streamRoundKey(dst_base, round), staged);
        if (!applied.ok()) {
            // The transport corrupted (or replayed) the stream — the
            // migration aborts, but the victim is unharmed: thaw it
            // and let it finish on the source.
            src.kernel().thaw(pid);
            return Error(applied.error());
        }
        result.precopyPages += *applied;
        src.kernel().thaw(pid);
    }

    // Stop-and-copy: the victim is frozen for good. Downtime is what
    // happens from here until the target has a runnable copy.
    Cycles downtime_start = src.cycles();
    std::set<GuestVA> filter = uncloakedPages(*proc, *domain);
    filter.insert(final_dirty.begin(), final_dirty.end());

    CheckpointOptions copts;
    copts.nonce = options.nonce;
    copts.imageVersion = imageVersion;
    copts.pageFilter = &filter;
    auto ckpt = checkpoint(src, pid, copts);
    if (!ckpt.ok()) {
        src.kernel().thaw(pid);
        return Error(ckpt.error());
    }
    CheckpointResult& image = *ckpt;
    result.stopCopyPages = image.pagesCaptured;
    result.bytesStreamed += image.image.size();
    result.downtimeCycles = src.cycles() - downtime_start;

    Cycles dst_start = dst.cycles();
    auto restored = restore(dst, image.image, image.ticket, &staged);
    if (!restored.ok()) {
        src.kernel().thaw(pid);
        return Error(restored.error());
    }
    result.downtimeCycles += dst.cycles() - dst_start;
    result.targetPid = (*restored).pid;

    // Abandon the source copy.
    src.killFrozen(pid, "migrated away");
    return result;
}

} // namespace osh::migrate
