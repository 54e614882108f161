#include "cloak/engine.hh"

#include "base/bytes.hh"
#include "base/logging.hh"
#include "crypto/ctr.hh"
#include "vmm/vcpu.hh"

#include <algorithm>
#include <cstring>
#include <set>
#include <utility>

namespace osh::cloak
{

namespace
{

/**
 * Charge cycles to the guest timeline, or — when the asynchronous
 * eviction lane owns the work — accumulate them into @p defer while
 * still counting the event, so the event stream is identical in both
 * modes.
 */
void
chargeOrDefer(sim::CostModel& cost, Cycles c, sim::CostEvent ev,
              std::uint64_t* defer)
{
    if (defer != nullptr) {
        *defer += c;
        cost.charge(0, ev);
    } else {
        cost.charge(c, ev);
    }
}

} // namespace

crypto::Digest
programIdentity(const std::string& program_name)
{
    crypto::Sha256 ctx;
    ctx.update(std::string("osh-program:"));
    ctx.update(program_name);
    return ctx.final();
}

CloakEngine::CloakEngine(vmm::Vmm& vmm, std::uint64_t master_seed,
                         std::size_t metadata_cache)
    : vmm_(vmm), keys_(master_seed),
      metadata_(vmm.machine().cost(), metadata_cache),
      stats_("cloak", cloakStat.names)
{
    vmm_.setCloakBackend(this);
}

CloakEngine::~CloakEngine()
{
    // Never run deferred commits here: System destroys the kernel (and
    // with it the swap device the commits write into) before the
    // engine. The kernel's destructor drains the queue while everything
    // is still alive; anything left is scrubbed and dropped.
    for (AsyncSealEntry& e : asyncRing_)
        std::memset(e.sealed.data(), 0, e.sealed.size());
    vmm_.setCloakBackend(nullptr);
}

CloakEngine::PlaintextRef*
CloakEngine::plaintextAt(Gpa gpa)
{
    std::uint64_t frame = pageNumber(gpa);
    if (frame >= plaintextIndex_.size() ||
        plaintextIndex_[frame].resource == 0)
        return nullptr;
    return &plaintextIndex_[frame];
}

void
CloakEngine::setPlaintext(Gpa gpa, ResourceId resource,
                          std::uint64_t page_index)
{
    osh_assert(resource != 0, "plaintext of no resource");
    std::uint64_t frame = pageNumber(gpa);
    if (frame >= plaintextIndex_.size())
        plaintextIndex_.resize(frame + 1);
    plaintextIndex_[frame] = {resource, page_index};
}

void
CloakEngine::clearPlaintext(Gpa gpa)
{
    if (PlaintextRef* ref = plaintextAt(gpa))
        *ref = {};
}

std::span<std::uint8_t>
CloakEngine::frameBytes(Gpa gpa)
{
    return vmm_.machine().memory().framePlain(
        vmm_.pmap().translate(pageBase(gpa)));
}

Region*
CloakEngine::findRegion(DomainId domain, Asid asid, GuestVA va_page)
{
    auto dit = domains_.find(domain);
    if (dit == domains_.end())
        return nullptr;
    for (Region& r : dit->second.regions) {
        if (r.asid == asid && r.contains(va_page))
            return &r;
    }
    return nullptr;
}

bool
CloakEngine::inCloakedRegion(Asid asid, GuestVA va_page)
{
    for (auto& [id, d] : domains_) {
        for (Region& r : d.regions) {
            if (r.asid == asid && r.contains(va_page))
                return true;
        }
    }
    return false;
}

bool
CloakEngine::needsFreshIv(const PageMeta& meta) const
{
    return meta.state == PageState::PlaintextDirty || !cleanOptimization_ ||
           meta.version == 0;
}

Cycles
CloakEngine::worstCaseSealCycles() const
{
    const auto& p = vmm_.machine().cost().params();
    return p.aesPerByte * pageSize + p.shaPerByte * (pageSize + 40) +
           p.cloakFaultFixed;
}

void
CloakEngine::setConstantCostMode(bool on)
{
    constantCost_ = on;
    metadata_.setConstantCostLookups(on);
}

Domain&
CloakEngine::domainOf(DomainId id)
{
    auto it = domains_.find(id);
    osh_assert(it != domains_.end(), "unknown domain %u", id);
    return it->second;
}

Domain*
CloakEngine::findDomain(DomainId id)
{
    auto it = domains_.find(id);
    return it == domains_.end() ? nullptr : &it->second;
}

crypto::Digest
CloakEngine::pageHash(const Resource& res, std::uint64_t page_index,
                      std::uint64_t version, const crypto::Iv& iv,
                      std::span<const std::uint8_t> ciphertext)
{
    std::uint8_t header[40];
    storeLe64(header, res.keyId);
    storeLe64(header + 8, page_index);
    storeLe64(header + 16, version);
    std::memcpy(header + 24, iv.data(), iv.size());
    crypto::Sha256 ctx;
    ctx.update(std::span<const std::uint8_t>(header, sizeof(header)));
    ctx.update(ciphertext);
    return ctx.final();
}

Error<CloakError>
CloakEngine::auditError(CloakError code, DomainId domain,
                        ResourceId resource, std::uint64_t page_index)
{
    auditLog_.push(
        {domain, resource, page_index, cloakErrorName(code), code});
    stats_.inc(cloakStat("audit_errors"));
    OSH_TRACE_INSTANT(&vmm_.machine().tracer(), trace::Category::Cloak,
                      "audit_error", domain, 0, resource, page_index);
    return Error<CloakError>(code);
}

void
CloakEngine::violation(Resource& res, std::uint64_t page_index,
                       const std::string& reason)
{
    auditLog_.push({res.domain, res.id, page_index, reason,
                    CloakError::IntegrityViolation});
    stats_.inc(cloakStat("violations"));
    OSH_TRACE_INSTANT(&vmm_.machine().tracer(), trace::Category::Cloak,
                      "violation", res.domain, 0, res.id, page_index);
    Pid pid = 0;
    if (Domain* d = findDomain(res.domain))
        pid = d->pid;
    osh_warn("cloak violation in domain %u (pid %d): %s", res.domain,
             pid, reason.c_str());
    throw vmm::ProcessKilled{
        pid, formatString("cloak violation: %s", reason.c_str())};
}

const crypto::KeyHandle&
CloakEngine::keyFor(Resource& res)
{
    // Resources normally carry a handle from cloak-attach; re-acquire
    // lazily only if the key identity changed after the handle was
    // taken (importResource rewrites keyId) or an exotic path skipped
    // the attach. Never a per-fault map lookup.
    if (!res.key.valid() || res.key.keyId() != res.keyId)
        res.key = keys_.acquire(res.keyId);
    return res.key;
}

/**
 * The pure inputs of one page seal, precomputed by encryptPages'
 * fan-out: the pre-pass resolves the frame and draws the fresh IV on
 * the calling thread, then a worker fills in the AES-CTR output and,
 * on the dirty path, the page hash.
 */
struct CloakEngine::StagedSeal
{
    std::span<const std::uint8_t> plaintext; ///< The page's frame.
    bool dirtyPath = false;         ///< Fresh-IV seal vs clean re-encrypt.
    crypto::Iv iv{};                ///< Fresh IV (dirty path only).
    crypto::Digest hash{};          ///< Page hash (dirty path only).
    std::array<std::uint8_t, pageSize> ciphertext{};
};

void
CloakEngine::encryptPage(Resource& res, std::uint64_t page_index,
                         PageMeta& meta, const crypto::Aes128& cipher,
                         std::uint64_t* defer_cycles,
                         const StagedSeal* staged)
{
    osh_assert(meta.state != PageState::Encrypted,
               "encryptPage on already-encrypted page");
    osh_assert(meta.residentGpa != badAddr, "no resident plaintext");
    Gpa gpa = meta.residentGpa;
    auto frame = frameBytes(gpa);
    auto& cost = vmm_.machine().cost();
    // Ciphertext into the frame under meta.iv: the fan-out's staged
    // bytes, or AES-CTR right here.
    auto xcrypt = [&] {
        if (staged != nullptr)
            std::memcpy(frame.data(), staged->ciphertext.data(),
                        frame.size());
        else
            crypto::aesCtrXcryptInPlace(cipher, meta.iv, frame);
    };

    if (staged != nullptr ? staged->dirtyPath : needsFreshIv(meta)) {
        OSH_TRACE_SCOPE(&vmm_.machine().tracer(),
                        trace::Category::Cloak, "page_encrypt",
                        res.domain, 0, res.id, page_index);
        if (staged != nullptr)
            meta.iv = staged->iv;
        else
            vmm_.machine().rng().fill(meta.iv);
        meta.version++;
        // The bumped version orphans any cached result for the old
        // contents; remember the new one for the next ping-pong.
        VictimCache::Entry* v =
            victims_.insert(res.id, page_index, meta.version);
        if (v != nullptr)
            std::memcpy(v->plaintext.data(), frame.data(), frame.size());
        xcrypt();
        meta.hash = staged != nullptr
                        ? staged->hash
                        : pageHash(res, page_index, meta.version, meta.iv,
                                   frame);
        if (v != nullptr) {
            v->iv = meta.iv;
            v->hash = meta.hash;
            std::memcpy(v->ciphertext.data(), frame.data(),
                        frame.size());
        }
        chargeOrDefer(cost, worstCaseSealCycles(), "page_encrypt",
                      defer_cycles);
        stats_.inc(cloakStat("page_encrypts"));
    } else {
        // Clean page: the stored (IV, hash) still cover the contents,
        // so re-encryption is deterministic. If the victim cache holds
        // this exact (resource, page, version) the ciphertext is
        // already known — copy it instead of running AES again (a
        // staged AES result is then simply dropped). The plaintext
        // compare is a cheap host-side consistency guard; a mismatch
        // (which no legitimate path produces) falls back to real
        // encryption.
        VictimCache::Entry* v =
            victims_.find(res.id, page_index, meta.version);
        if (v != nullptr && v->iv == meta.iv &&
            std::memcmp(v->plaintext.data(), frame.data(),
                        frame.size()) == 0) {
            OSH_TRACE_SCOPE(&vmm_.machine().tracer(),
                            trace::Category::Cloak, "victim_reencrypt",
                            res.domain, 0, res.id, page_index);
            std::memcpy(frame.data(), v->ciphertext.data(),
                        frame.size());
            // Constant-cost mode: the hit must be indistinguishable
            // from the dirty worst case, or its cheapness is an oracle
            // for "the victim did not write this page".
            chargeOrDefer(cost,
                          constantCost_
                              ? worstCaseSealCycles()
                              : cost.params().victimHitCopy +
                                    cost.params().cloakFaultFixed,
                          "page_reencrypt_victim", defer_cycles);
            stats_.inc(cloakStat("victim_reencrypt_hits"));
            stats_.inc(cloakStat("clean_reencrypts"));
        } else {
            if (v != nullptr)
                stats_.inc(cloakStat("victim_reencrypt_mismatches"));
            OSH_TRACE_SCOPE(&vmm_.machine().tracer(),
                            trace::Category::Cloak, "clean_reencrypt",
                            res.domain, 0, res.id, page_index);
            v = victims_.insert(res.id, page_index, meta.version);
            if (v != nullptr)
                std::memcpy(v->plaintext.data(), frame.data(),
                            frame.size());
            xcrypt();
            if (v != nullptr) {
                v->iv = meta.iv;
                v->hash = meta.hash;
                std::memcpy(v->ciphertext.data(), frame.data(),
                            frame.size());
            }
            chargeOrDefer(cost,
                          constantCost_
                              ? worstCaseSealCycles()
                              : cost.params().aesPerByte * pageSize +
                                    cost.params().cloakFaultFixed,
                          "page_reencrypt_clean", defer_cycles);
            stats_.inc(cloakStat("clean_reencrypts"));
        }
    }

    clearPlaintext(gpa);
    meta.state = PageState::Encrypted;
    meta.residentGpa = badAddr;
    // Translations of the frame are unchanged — only its view flipped.
    // Suspend the shadows (retained for cheap revalidation) instead of
    // tearing them down.
    vmm_.suspendMpa(vmm_.pmap().translate(gpa));
}

void
CloakEngine::decryptAndVerify(Resource& res, std::uint64_t page_index,
                              PageMeta& meta, Gpa gpa,
                              const crypto::Aes128& cipher)
{
    OSH_TRACE_SCOPE(&vmm_.machine().tracer(), trace::Category::Cloak,
                    "page_decrypt", res.domain, 0, res.id, page_index);
    auto frame = frameBytes(gpa);
    auto& cost = vmm_.machine().cost();

    // Victim-cache fast path: if we still hold the (IV, hash,
    // ciphertext, plaintext) of this exact version and the frame is
    // byte-identical to the cached *authentic* ciphertext, the stored
    // hash is known to cover it — skip SHA and AES and copy the
    // plaintext back. Any tampering makes the compare fail and we fall
    // through to the full verify, which kills the process as usual.
    if (VictimCache::Entry* v =
            victims_.find(res.id, page_index, meta.version)) {
        if (v->iv == meta.iv && constantTimeEqual(v->hash, meta.hash) &&
            std::memcmp(v->ciphertext.data(), frame.data(),
                        frame.size()) == 0) {
            OSH_TRACE_INSTANT(&vmm_.machine().tracer(),
                              trace::Category::Cloak, "victim_decrypt",
                              res.domain, 0, res.id, page_index);
            std::memcpy(frame.data(), v->plaintext.data(),
                        frame.size());
            cost.charge(constantCost_
                            ? worstCaseSealCycles()
                            : cost.params().victimHitCopy +
                                  cost.params().cloakFaultFixed,
                        "page_decrypt_victim");
            stats_.inc(cloakStat("victim_decrypt_hits"));
            stats_.inc(cloakStat("page_decrypts"));
            return;
        }
        stats_.inc(cloakStat("victim_decrypt_mismatches"));
    }

    cost.charge(cost.params().shaPerByte * (pageSize + 40) +
                cost.params().aesPerByte * pageSize +
                cost.params().cloakFaultFixed,
                "page_decrypt");

    crypto::Digest h =
        pageHash(res, page_index, meta.version, meta.iv, frame);
    if (!constantTimeEqual(h, meta.hash)) {
        violation(res, page_index,
                  formatString("integrity check failed for resource "
                               "%llu page %llu",
                               static_cast<unsigned long long>(res.id),
                               static_cast<unsigned long long>(
                                   page_index)));
    }
    // Verified: remember this version's images so an unmodified
    // round trip back to the kernel view can skip the crypto.
    VictimCache::Entry* v =
        victims_.insert(res.id, page_index, meta.version);
    if (v != nullptr) {
        v->iv = meta.iv;
        v->hash = meta.hash;
        std::memcpy(v->ciphertext.data(), frame.data(), frame.size());
    }
    crypto::aesCtrXcryptInPlace(cipher, meta.iv, frame);
    if (v != nullptr)
        std::memcpy(v->plaintext.data(), frame.data(), frame.size());
    stats_.inc(cloakStat("page_decrypts"));
}

// ---------------------------------------------------------------------------
// Batched page crypto
// ---------------------------------------------------------------------------

void
CloakEngine::encryptPages(Resource& res,
                          std::span<const PageCryptoItem> items)
{
    if (items.empty())
        return;
    // Amortized across the batch: one cipher (key schedule) lookup and
    // one enclosing trace scope. Items must name distinct pages.
    const crypto::Aes128& cipher = keyFor(res).cipher();
    OSH_TRACE_SCOPE(&vmm_.machine().tracer(), trace::Category::Cloak,
                    "encrypt_batch", res.domain, 0, res.id,
                    items.size());

    // With more than one pool lane, stage the pure part of each seal
    // first (see the contract in engine.hh). The pre-pass runs on this
    // thread in submission order and draws every fresh IV the inline
    // seals would draw, in the same order (nothing else in a seal
    // touches the RNG), so worker scheduling is unobservable.
    std::vector<StagedSeal> staged;
    if (pool_.workers() > 1 && items.size() > 1) {
        staged.resize(items.size());
        for (std::size_t i = 0; i < items.size(); ++i) {
            const PageMeta& meta = *items[i].meta;
            staged[i].plaintext = frameBytes(meta.residentGpa);
            staged[i].dirtyPath = needsFreshIv(meta);
            if (staged[i].dirtyPath)
                vmm_.machine().rng().fill(staged[i].iv);
        }
        pool_.parallelFor(items.size(), [&](std::size_t i) {
            const PageMeta& meta = *items[i].meta;
            StagedSeal& s = staged[i];
            const crypto::Iv& iv = s.dirtyPath ? s.iv : meta.iv;
            std::memcpy(s.ciphertext.data(), s.plaintext.data(), pageSize);
            crypto::aesCtrXcryptInPlace(cipher, iv, s.ciphertext);
            if (s.dirtyPath)
                s.hash = pageHash(res, items[i].pageIndex,
                                  meta.version + 1, iv, s.ciphertext);
        });
    }

    // Every stateful effect — metadata, victim cache, cycle charges,
    // counters, trace events — happens here, through the one seal
    // body, in submission order.
    for (std::size_t i = 0; i < items.size(); ++i)
        encryptPage(res, items[i].pageIndex, *items[i].meta, cipher,
                    nullptr, staged.empty() ? nullptr : &staged[i]);
    stats_.inc(cloakStat("batch_encrypt_calls"));
    stats_.inc(cloakStat("batch_encrypt_pages"), items.size());
}

// ---------------------------------------------------------------------------
// Asynchronous eviction pipeline
// ---------------------------------------------------------------------------

void
CloakEngine::setAsyncEvictDepth(std::size_t depth)
{
    osh_assert(asyncCount_ == 0, "async depth changed with seals queued");
    asyncRing_.assign(depth, AsyncSealEntry{});
    asyncHead_ = 0;
}

bool
CloakEngine::evictPageAsync(Gpa gpa, vmm::EvictionSink& sink,
                            std::uint64_t slot, std::uint64_t replay_key)
{
    if (asyncRing_.empty() || asyncDraining_)
        return false;
    gpa = pageBase(gpa);
    const PlaintextRef* ref = plaintextAt(gpa);
    if (ref == nullptr)
        return false; // No cloaked plaintext: nothing to defer.
    Resource* res = metadata_.lookup(ref->resource).valueOr(nullptr);
    if (res == nullptr)
        return false;
    std::uint64_t page_index = ref->pageIndex;
    PageMeta& meta = metadata_.page(*res, page_index);
    if (meta.state == PageState::Encrypted || meta.residentGpa != gpa)
        return false;

    // Queue full: retire the oldest entry first, so depth bounds the
    // staging memory and entries always commit in FIFO order.
    if (asyncCount_ == asyncRing_.size())
        drainOneAsyncEviction();

    auto& cost = vmm_.machine().cost();
    OSH_TRACE_SCOPE(&vmm_.machine().tracer(), trace::Category::Cloak,
                    "async_evict_enqueue", res->domain, 0, res->id,
                    page_index);

    // Eager host-side seal: the exact synchronous encryption — same
    // RNG draws, version bumps, victim-cache traffic, metadata
    // transitions and event counts — with its cycle charges routed
    // into the background lane instead of the guest timeline.
    std::uint64_t lane_cycles = 0;
    encryptPage(*res, page_index, meta, keyFor(*res).cipher(), &lane_cycles);

    AsyncSealEntry& entry =
        asyncRing_[(asyncHead_ + asyncCount_) % asyncRing_.size()];
    entry.gpa = gpa;
    entry.resource = res->id;
    entry.pageIndex = page_index;
    auto frame = frameBytes(gpa);
    std::memcpy(entry.sealed.data(), frame.data(), pageSize);
    // Double buffer: the ciphertext lives in staging from here on; the
    // frame goes back to the kernel scrubbed.
    std::memset(frame.data(), 0, frame.size());
    entry.sink = &sink;
    entry.slot = slot;
    entry.replayKey = replay_key;

    // Lane model: the seal and its swap-slot write proceed as
    // background work on one lane, serialized behind whatever the lane
    // was already doing. The guest only re-synchronizes (and pays a
    // stall) if it drains before the lane catches up.
    lane_cycles += cost.params().diskAccess +
                   cost.params().diskPerByte * pageSize;
    Cycles now = cost.cycles();
    laneBusyUntil_ = std::max(laneBusyUntil_, now) + lane_cycles;
    entry.readyAt = laneBusyUntil_;
    ++asyncCount_;

    // Critical-path cost of handing the frame back: snapshot the page
    // into staging, scrub the frame, fixed fault handling.
    cost.charge(cost.params().pageCopy + cost.params().pageZero +
                cost.params().cloakFaultFixed,
                "page_encrypt_async_enqueue");
    stats_.inc(cloakStat("async_evictions"));
    return true;
}

void
CloakEngine::drainOneAsyncEviction()
{
    osh_assert(asyncCount_ > 0, "drain of an empty async queue");
    AsyncSealEntry& entry = asyncRing_[asyncHead_];
    asyncHead_ = (asyncHead_ + 1) % asyncRing_.size();
    --asyncCount_;

    auto& cost = vmm_.machine().cost();
    Cycles now = cost.cycles();
    if (entry.readyAt > now) {
        // The lane has not finished this seal yet: the guest stalls at
        // the drain barrier until it does.
        cost.charge(entry.readyAt - now, "async_evict_stall");
        stats_.inc(cloakStat("async_evict_stalls"));
    }
    OSH_TRACE_SCOPE(&vmm_.machine().tracer(), trace::Category::Cloak,
                    "async_evict_commit", systemDomain, 0,
                    entry.resource, entry.pageIndex);
    // The commit reads the entry's ring slot in place: nothing may
    // enqueue into that slot until it returns.
    bool draining = std::exchange(asyncDraining_, true);
    entry.sink->commitEviction(entry.slot, entry.replayKey, entry.sealed);
    asyncDraining_ = draining;
    std::memset(entry.sealed.data(), 0, entry.sealed.size());
    stats_.inc(cloakStat("async_evict_commits"));
}

void
CloakEngine::drainAsyncEvictions()
{
    if (asyncDraining_ || asyncCount_ == 0)
        return;
    asyncDraining_ = true;
    while (asyncCount_ > 0)
        drainOneAsyncEviction();
    asyncDraining_ = false;
}

std::size_t
CloakEngine::sealDomainPlaintext(DomainId id)
{
    auto dit = domains_.find(id);
    if (dit == domains_.end())
        return 0;
    Domain& d = dit->second;

    // Regions can share a resource (explicit re-registration), so walk
    // each resource once. Within a resource every resident plaintext
    // page goes through one encryptPages() batch; encryptPage does
    // the per-page bookkeeping (plaintext index, state, shadow
    // suspension) exactly as the eviction path would.
    std::set<ResourceId> seen;
    std::size_t sealed = 0;
    for (Region& r : d.regions) {
        if (!seen.insert(r.resource).second)
            continue;
        Resource* res = metadata_.lookup(r.resource).valueOr(nullptr);
        if (res == nullptr)
            continue;
        std::vector<PageCryptoItem> items;
        for (auto& [idx, meta] : res->pages) {
            if (meta.state == PageState::Encrypted ||
                meta.residentGpa == badAddr)
                continue;
            const PlaintextRef* ref = plaintextAt(meta.residentGpa);
            if (ref == nullptr || ref->resource != res->id ||
                ref->pageIndex != idx)
                continue;
            items.push_back({idx, &meta});
        }
        if (items.empty())
            continue;
        encryptPages(*res, items);
        sealed += items.size();
    }
    if (sealed > 0)
        stats_.inc(cloakStat("domain_seals_pages"), sealed);
    return sealed;
}

Resource&
CloakEngine::importResource(DomainId domain, ResourceId key_id)
{
    (void)domainOf(domain); // The domain must exist.
    Resource& res = metadata_.createResource(domain);
    res.keyId = key_id;
    res.key = keys_.acquire(key_id);
    metadata_.reserveIds(key_id + 1);
    stats_.inc(cloakStat("resources_imported"));
    return res;
}

vmm::ResolvedPage
CloakEngine::resolvePage(const vmm::Context& ctx, GuestVA va_page,
                         const vmm::GuestPte& pte, vmm::AccessType access)
{
    Gpa gpa = pageBase(pte.gpa);
    Mpa mpa = vmm_.pmap().translate(gpa);

    Region* region = nullptr;
    if (ctx.view != systemDomain && !ctx.kernelMode)
        region = findRegion(ctx.view, ctx.asid, va_page);

    Resource* res = nullptr;
    std::uint64_t page_index = 0;
    if (region != nullptr) {
        res = metadata_.lookup(region->resource).valueOr(nullptr);
        if (res != nullptr) {
            page_index = (va_page - region->start) / pageSize +
                         region->resourcePageOffset;
        }
    }

    // Never let a frame holding some other page's plaintext escape its
    // owner's exclusive view.
    const PlaintextRef* ref = plaintextAt(gpa);
    bool was_plaintext = ref != nullptr;
    if (ref != nullptr) {
        bool self = res != nullptr && ref->resource == res->id &&
                    ref->pageIndex == page_index;
        if (!self) {
            PlaintextRef foreign = *ref;
            Resource* owner =
                metadata_.lookup(foreign.resource).valueOr(nullptr);
            if (owner != nullptr) {
                PageMeta& ometa = metadata_.page(*owner, foreign.pageIndex);
                encryptPage(*owner, foreign.pageIndex, ometa,
                            keyFor(*owner).cipher());
            } else {
                clearPlaintext(gpa);
            }
            stats_.inc(cloakStat("foreign_plaintext_seals"));
        }
    }

    if (res == nullptr) {
        // System view, another domain's view, or an uncloaked page:
        // plain passthrough (the frame now holds no foreign plaintext).
        //
        // Campaign audit finding: when the page was ALREADY sealed the
        // branch above never ran and this passthrough cost the engine
        // nothing — a zero-cost distinguisher between "sealed" and
        // "held plaintext" on every kernel access to a cloaked VA.
        // Constant-cost mode charges the worst-case seal either way.
        if (constantCost_ && !was_plaintext &&
            inCloakedRegion(ctx.asid, va_page)) {
            vmm_.machine().cost().charge(worstCaseSealCycles(),
                                         "page_seal_equalized");
            stats_.inc(cloakStat("equalized_passthroughs"));
        }
        return {mpa, true, pte.writable};
    }

    auto& cost = vmm_.machine().cost();
    PageMeta& meta = metadata_.page(*res, page_index);
    stats_.inc(cloakStat("cloak_faults"));

    if (!meta.initialized) {
        // First touch: contents are VMM-defined (zero), regardless of
        // what the kernel left in the frame.
        auto frame = frameBytes(gpa);
        std::memset(frame.data(), 0, frame.size());
        // The kernel already charged the zero-fill; the VMM only pays
        // its fixed fault cost for re-zeroing/validating.
        cost.charge(cost.params().cloakFaultFixed, "cloak_zero_fill");
        meta.initialized = true;
        meta.state = PageState::PlaintextDirty;
        meta.residentGpa = gpa;
        setPlaintext(gpa, res->id, page_index);
        vmm_.suspendMpa(mpa);
        return {mpa, true, pte.writable};
    }

    if (meta.state != PageState::Encrypted && meta.residentGpa != gpa) {
        // The guest PTE points at a different frame than the one we
        // know holds plaintext. No legitimate kernel path does this
        // (paging always touches the frame, encrypting it first), so
        // seal the old location and validate the new frame as a
        // ciphertext image — which will fail unless the kernel somehow
        // reproduced the exact sealed bytes.
        if (const PlaintextRef* old = plaintextAt(meta.residentGpa);
            old != nullptr && old->resource == res->id &&
            old->pageIndex == page_index) {
            encryptPage(*res, page_index, meta, keyFor(*res).cipher());
        } else {
            meta.state = PageState::Encrypted;
            meta.residentGpa = badAddr;
        }
        stats_.inc(cloakStat("plaintext_relocations"));
    }

    switch (meta.state) {
      case PageState::Encrypted:
        decryptAndVerify(*res, page_index, meta, gpa, keyFor(*res).cipher());
        meta.residentGpa = gpa;
        setPlaintext(gpa, res->id, page_index);
        vmm_.suspendMpa(mpa);
        if (access == vmm::AccessType::Write || !cleanOptimization_) {
            meta.state = PageState::PlaintextDirty;
            return {mpa, true, pte.writable};
        }
        // Map read-only so a later write faults and marks the page
        // dirty; until then the stored (IV, hash) remain valid.
        meta.state = PageState::PlaintextClean;
        return {mpa, true, false};

      case PageState::PlaintextClean:
        if (access == vmm::AccessType::Write) {
            meta.state = PageState::PlaintextDirty;
            stats_.inc(cloakStat("clean_to_dirty"));
            return {mpa, true, pte.writable};
        }
        return {mpa, true, false};

      case PageState::PlaintextDirty:
        return {mpa, true, pte.writable};
    }
    osh_panic("unreachable page state");
}

// ---------------------------------------------------------------------------
// Domain / region management
// ---------------------------------------------------------------------------

DomainId
CloakEngine::createDomain(Asid asid, Pid pid,
                          const crypto::Digest& identity)
{
    DomainId id = nextDomain_++;
    Domain& d = domains_[id];
    d.id = id;
    d.asid = asid;
    d.pid = pid;
    d.identity = identity;
    stats_.inc(cloakStat("domains_created"));
    return id;
}

void
CloakEngine::teardownDomain(DomainId id)
{
    auto dit = domains_.find(id);
    if (dit == domains_.end())
        return;
    Domain& d = dit->second;

    for (Region& r : d.regions) {
        Resource* res = metadata_.lookup(r.resource).valueOr(nullptr);
        if (res == nullptr)
            continue;
        // Scrub any plaintext still resident: the kernel will reuse
        // these frames and must find nothing.
        for (auto& [idx, meta] : res->pages) {
            if (meta.state != PageState::Encrypted &&
                meta.residentGpa != badAddr) {
                const PlaintextRef* ref = plaintextAt(meta.residentGpa);
                if (ref != nullptr && ref->resource == res->id &&
                    ref->pageIndex == idx) {
                    auto frame = frameBytes(meta.residentGpa);
                    std::memset(frame.data(), 0, frame.size());
                    vmm_.invalidateMpa(
                        vmm_.pmap().translate(meta.residentGpa));
                    clearPlaintext(meta.residentGpa);
                }
                meta.state = PageState::Encrypted;
                meta.residentGpa = badAddr;
            }
        }
        if (res->isFile) {
            // Persist protection for the file before letting go. Only
            // a seal by a non-owner fails, and it is audited.
            (void)sealFileResource(id, res->id);
        }
        metadata_.destroyResource(r.resource);
    }
    domains_.erase(dit);
    stats_.inc(cloakStat("domains_destroyed"));
}

Expected<ResourceId, CloakError>
CloakEngine::registerRegion(DomainId domain, GuestVA start,
                            std::uint64_t pages, ResourceId resource,
                            std::uint64_t resource_page_offset)
{
    Domain& d = domainOf(domain);
    GuestVA first = pageBase(start);
    for (const Region& r : d.regions) {
        if (first < r.end && r.start < first + pages * pageSize)
            return auditError(CloakError::RegionOverlap, domain, resource);
    }
    Resource* res = nullptr;
    if (resource == 0) {
        res = &metadata_.createResource(domain);
        res->key = keys_.acquire(res->keyId);
    } else {
        res = metadata_.lookup(resource).valueOr(nullptr);
        if (res == nullptr)
            return auditError(CloakError::UnknownResource, domain,
                              resource);
        if (res->domain != domain)
            return auditError(CloakError::ForeignResource, domain,
                              resource);
    }
    Region r;
    r.asid = d.asid;
    r.start = first;
    r.end = r.start + pages * pageSize;
    r.resource = res->id;
    r.resourcePageOffset = resource_page_offset;
    d.regions.push_back(r);
    stats_.inc(cloakStat("regions_registered"));
    // Existing (uncloaked) shadow and TLB mappings of this range are
    // now wrong. Invalidate at page granularity: translations outside
    // the region — including retained shadows of other processes —
    // stay live.
    for (GuestVA va = r.start; va < r.end; va += pageSize) {
        vmm_.shadows().invalidateVa(d.asid, va);
        vmm_.shootdownVa(d.asid, va);
    }
    return res->id;
}

void
CloakEngine::unregisterRegion(DomainId domain, GuestVA start)
{
    Domain& d = domainOf(domain);
    for (auto it = d.regions.begin(); it != d.regions.end(); ++it) {
        if (it->start != pageBase(start))
            continue;
        Resource* res = metadata_.lookup(it->resource).valueOr(nullptr);
        if (res != nullptr) {
            bool still_referenced = false;
            for (const Region& other : d.regions) {
                if (other.start != it->start &&
                    other.resource == it->resource) {
                    still_referenced = true;
                }
            }
            bool dying = !still_referenced && !res->isFile;
            // Scrub resident plaintext of this region's pages. If the
            // data must survive (file resource, or still mapped
            // elsewhere) encrypt it in place; if the resource dies with
            // the region, zeroing is sufficient — and much cheaper.
            if (dying) {
                for (auto& [idx, meta] : res->pages) {
                    if (meta.state == PageState::Encrypted ||
                        meta.residentGpa == badAddr) {
                        continue;
                    }
                    const PlaintextRef* ref =
                        plaintextAt(meta.residentGpa);
                    if (ref != nullptr && ref->resource == res->id &&
                        ref->pageIndex == idx) {
                        auto frame = frameBytes(meta.residentGpa);
                        std::memset(frame.data(), 0, frame.size());
                        vmm_.invalidateMpa(
                            vmm_.pmap().translate(meta.residentGpa));
                        clearPlaintext(meta.residentGpa);
                        auto& cost = vmm_.machine().cost();
                        cost.charge(cost.params().pageZero,
                                    "cloak_scrub_zero");
                    }
                    meta.state = PageState::Encrypted;
                    meta.residentGpa = badAddr;
                }
            } else {
                std::vector<PageCryptoItem> to_seal;
                for (auto& [idx, meta] : res->pages) {
                    if (meta.state != PageState::Encrypted &&
                        meta.residentGpa != badAddr) {
                        to_seal.push_back({idx, &meta});
                    }
                }
                encryptPages(*res, to_seal);
            }
            if (dying)
                metadata_.destroyResource(it->resource);
        }
        d.regions.erase(it);
        stats_.inc(cloakStat("regions_unregistered"));
        return;
    }
}

void
CloakEngine::bindThread(DomainId domain, GuestVA ctc_va, GuestVA bounce_va)
{
    Domain& d = domainOf(domain);
    d.ctcVa = ctc_va;
    d.bounceVa = bounce_va;
    d.ctcExport = exportCtcDigest(domain);
    d.ctcExport.valid = false;
    d.ctcRecordValid = false;
}

void
CloakEngine::recordCtc(DomainId domain,
                       std::span<const std::uint8_t, ctcBytes> record)
{
    Domain& d = domainOf(domain);
    std::copy(record.begin(), record.end(), d.ctcRecord.begin());
    d.ctcRecordValid = true;
}

CtcDigest
CloakEngine::exportCtcDigest(DomainId domain)
{
    Domain& d = domainOf(domain);
    if (!d.ctcRecordValid)
        return d.ctcExport;
    return {true, crypto::Sha256::hash(d.ctcRecord)};
}

void
CloakEngine::importCtcDigest(DomainId domain, const CtcDigest& digest)
{
    domainOf(domain).ctcExport = digest.valid ? digest : CtcDigest{};
}

Expected<void, CloakError>
CloakEngine::verifyCtc(DomainId domain,
                       std::span<const std::uint8_t, ctcBytes> record)
{
    auto it = domains_.find(domain);
    if (it == domains_.end())
        return auditError(CloakError::UnknownDomain, domain);
    if (!it->second.ctcRecordValid)
        return auditError(CloakError::NoCtcHash, domain);
    if (!constantTimeEqual(it->second.ctcRecord, record))
        return auditError(CloakError::CtcHashMismatch, domain);
    return {};
}

// ---------------------------------------------------------------------------
// Fork
// ---------------------------------------------------------------------------

Expected<std::uint64_t, CloakError>
CloakEngine::prepareFork(DomainId parent)
{
    if (domains_.count(parent) == 0)
        return auditError(CloakError::UnknownDomain, parent);
    std::uint64_t token = nextForkToken_++;
    PendingFork& pf = pendingForks_[token];
    pf.parent = parent;
    return token;
}

Expected<void, CloakError>
CloakEngine::snapshotFork(DomainId parent, std::uint64_t token,
                          Pid child_pid)
{
    auto it = pendingForks_.find(token);
    if (it == pendingForks_.end() || it->second.parent != parent) {
        stats_.inc(cloakStat("fork_snapshot_rejected"));
        return auditError(CloakError::BadForkToken, parent);
    }
    if (it->second.snapshotted) {
        stats_.inc(cloakStat("fork_snapshot_rejected"));
        return auditError(CloakError::ForkAlreadySnapshotted, parent);
    }
    Domain* pd = findDomain(parent);
    if (pd == nullptr)
        return auditError(CloakError::UnknownDomain, parent);
    PendingFork& pf = it->second;

    // Clone each resource *now*, while the child's eagerly copied page
    // images exactly match the parent's just-encrypted metadata. The
    // parent may re-encrypt its own pages afterwards without breaking
    // the child. Clones are parked in the parent domain until attach.
    std::map<ResourceId, ResourceId> cloned;
    for (const Region& r : pd->regions) {
        Resource* src = metadata_.lookup(r.resource).valueOr(nullptr);
        if (src == nullptr)
            continue;
        // Protected files do not survive fork (the parent keeps its
        // mapping; sharing page-cache plaintext across two domains is
        // unsound). Children reopen protected files themselves.
        if (src->isFile)
            continue;
        auto cit = cloned.find(r.resource);
        ResourceId new_res;
        if (cit == cloned.end()) {
            new_res = metadata_.cloneResource(*src, parent).id;
            cloned[r.resource] = new_res;
        } else {
            new_res = cit->second;
        }
        pf.regions.push_back({r, new_res});
    }
    pf.ctcVa = pd->ctcVa;
    pf.bounceVa = pd->bounceVa;
    pf.child = child_pid;
    pf.snapshotted = true;
    stats_.inc(cloakStat("fork_snapshots"));
    return {};
}

Expected<DomainId, CloakError>
CloakEngine::forkAttach(Asid child_asid, Pid child_pid,
                        std::uint64_t token)
{
    auto it = pendingForks_.find(token);
    if (it == pendingForks_.end()) {
        stats_.inc(cloakStat("fork_attach_rejected"));
        return auditError(CloakError::BadForkToken, systemDomain);
    }
    if (!it->second.snapshotted) {
        stats_.inc(cloakStat("fork_attach_rejected"));
        return auditError(CloakError::ForkNotSnapshotted,
                          it->second.parent);
    }
    if (it->second.child != child_pid) {
        // Someone else's token: refuse it and keep it for the child.
        stats_.inc(cloakStat("fork_attach_rejected"));
        return auditError(CloakError::BadForkToken, it->second.parent);
    }
    PendingFork pf = std::move(it->second);
    pendingForks_.erase(it);
    Domain* parent = findDomain(pf.parent);
    if (parent == nullptr) {
        for (const PendingRegion& pr : pf.regions)
            metadata_.destroyResource(pr.clonedResource);
        return auditError(CloakError::UnknownDomain, pf.parent);
    }

    DomainId child_id =
        createDomain(child_asid, child_pid, parent->identity);
    Domain& child = domainOf(child_id);
    child.ctcVa = pf.ctcVa;
    child.bounceVa = pf.bounceVa;

    // Mirror the parent's regions at the same virtual addresses (fork
    // preserves the address-space layout), re-homing the clones.
    for (const PendingRegion& pr : pf.regions) {
        Resource* res = metadata_.lookup(pr.clonedResource).valueOr(nullptr);
        if (res == nullptr)
            continue;
        res->domain = child_id;
        Region nr = pr.region;
        nr.asid = child_asid;
        nr.resource = pr.clonedResource;
        child.regions.push_back(nr);
    }
    stats_.inc(cloakStat("fork_attaches"));
    return child_id;
}

// ---------------------------------------------------------------------------
// Protected files
// ---------------------------------------------------------------------------

Expected<ResourceId, CloakError>
CloakEngine::attachFileResource(DomainId domain, std::uint64_t file_key)
{
    Domain& d = domainOf(domain);
    Resource& res = metadata_.createResource(domain, true, file_key);
    res.keyId = fileKeyTag | file_key;
    // Resolve the key material once, here at attach: every later fault
    // and seal on this resource goes through the handle.
    res.key = keys_.acquire(res.keyId);

    auto sit = sealedStore_.find(file_key);
    auto unsealed = sit != sealedStore_.end()
                        ? metadata_.unseal(sit->second,
                                           res.key.sealingHmac(),
                                           d.identity, res)
                        : metadata_.missingBundle(file_key);
    if (!unsealed.ok()) {
        stats_.inc(cloakStat("file_attach_rejected"));
        ResourceId dead = res.id;
        metadata_.destroyResource(dead);
        // Propagate the store's typed cause (bad MAC vs identity vs
        // rollback vs malformed vs missing), not a blanket rejection.
        return auditError(unsealed.error(), domain, dead);
    }
    stats_.inc(cloakStat("file_attaches"));
    return res.id;
}

Expected<void, CloakError>
CloakEngine::sealFileResource(DomainId domain, ResourceId resource)
{
    Domain& d = domainOf(domain);
    Resource* res = metadata_.lookup(resource).valueOr(nullptr);
    if (res == nullptr)
        return auditError(CloakError::UnknownResource, domain, resource);
    if (res->domain != domain)
        return auditError(CloakError::ForeignResource, domain, resource);
    if (!res->isFile)
        return auditError(CloakError::NotAFileResource, domain,
                          resource);
    if (!metadata_.mayWrite(res->fileKey, d.identity))
        return auditError(CloakError::SealBadIdentity, domain, resource);
    // Hashes must cover final contents: force-encrypt anything still
    // plaintext, as one batch.
    std::vector<PageCryptoItem> to_seal;
    for (auto& [idx, meta] : res->pages) {
        if (meta.state != PageState::Encrypted &&
            meta.residentGpa != badAddr) {
            to_seal.push_back({idx, &meta});
        }
    }
    encryptPages(*res, to_seal);
    sealedStore_[res->fileKey] = metadata_.seal(
        *res, keyFor(*res).sealingHmac(), d.identity);
    stats_.inc(cloakStat("file_seals"));
    return {};
}

Expected<void, CloakError>
CloakEngine::discardFileMetadata(DomainId domain, std::uint64_t file_key)
{
    Domain& d = domainOf(domain);
    if (!metadata_.mayWrite(file_key, d.identity))
        return auditError(CloakError::SealBadIdentity, domain, 0);
    stats_.inc(cloakStat("file_discards"));
    // A sealed file's reset is a seal of the empty file: the bundle it
    // replaces becomes a rollback.
    Resource empty;
    empty.keyId = fileKeyTag | file_key;
    empty.fileKey = file_key;
    if (metadata_.lastSealedVersion(file_key) == 0)
        sealedStore_.erase(file_key);
    else
        sealedStore_[file_key] =
            metadata_.seal(empty, keyFor(empty).sealingHmac(), d.identity);
    return {};
}

// ---------------------------------------------------------------------------
// Hypercalls
// ---------------------------------------------------------------------------

std::int64_t
CloakEngine::hypercall(vmm::Vcpu& vcpu, vmm::Hypercall num,
                       std::span<const std::uint64_t> args)
{
    const vmm::Context& ctx = vcpu.context();
    auto arg = [&args](std::size_t i) -> std::uint64_t {
        return i < args.size() ? args[i] : 0;
    };

    // Every hypercall but ForkAttach (the caller has no domain yet) and
    // Introspect (system policy) acts on the caller's own domain.
    if (ctx.view == systemDomain &&
        num != vmm::Hypercall::CloakForkAttach &&
        num != vmm::Hypercall::CloakIntrospect)
        return -1;

    switch (num) {
      case vmm::Hypercall::CloakRegisterRegion: {
        auto res = registerRegion(ctx.view, arg(0), arg(1),
                                  static_cast<ResourceId>(arg(2)), arg(3));
        return res.ok() ? static_cast<std::int64_t>(*res) : -1;
      }

      case vmm::Hypercall::CloakUnregisterRegion:
        unregisterRegion(ctx.view, arg(0));
        return 0;

      case vmm::Hypercall::CloakRegisterThread:
        bindThread(ctx.view, arg(0), arg(1));
        return 0;

      case vmm::Hypercall::CloakSealMetadata:
        return sealFileResource(ctx.view, arg(0)).ok() ? 0 : -1;

      case vmm::Hypercall::CloakPrepareFork:
        // Tokens are always positive; 0 signals rejection.
        return static_cast<std::int64_t>(
            prepareFork(ctx.view).valueOr(0));

      case vmm::Hypercall::CloakSnapshotFork:
        return snapshotFork(ctx.view, arg(0), static_cast<Pid>(arg(1))).ok()
                   ? 0
                   : -1;

      case vmm::Hypercall::CloakForkAttach:
        // The caller has no domain yet; its asid doubles as its pid in
        // this system (see os::Process).
        return static_cast<std::int64_t>(
            forkAttach(ctx.asid, static_cast<Pid>(ctx.asid), arg(0))
                .valueOr(systemDomain));

      case vmm::Hypercall::CloakAttachFile:
        // Resource ids are always positive; 0 signals rejection.
        return static_cast<std::int64_t>(
            attachFileResource(ctx.view, arg(0)).valueOr(0));

      case vmm::Hypercall::CloakDiscardFile:
        return discardFileMetadata(ctx.view, arg(0)).ok() ? 0 : -1;

      case vmm::Hypercall::CloakTeardownDomain:
        teardownDomain(ctx.view);
        return 0;

      case vmm::Hypercall::CloakIntrospect:
        // Timing-hardening introspection: lets the guest (and the
        // tests) assert what a prober can actually observe. None of
        // these values are secret: the posture is system policy.
        switch (arg(0)) {
          case vmm::introspectTimingHardening:
            return vmm_.clockHardened() && constantCost_ ? 1 : 0;
          case vmm::introspectVictimCacheCapacity:
            return static_cast<std::int64_t>(victims_.capacity());
          case vmm::introspectAsyncEvictDepth:
            return static_cast<std::int64_t>(asyncRing_.size());
          default: return -1;
        }

      case vmm::Hypercall::CloakCreateDomain:
        // Domain creation is part of the attested launch path and goes
        // through the trusted runtime API, not a guest hypercall.
        return -1;
    }
    return -1;
}

} // namespace osh::cloak
