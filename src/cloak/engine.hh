/**
 * @file
 * The cloak engine — Overshadow's core mechanism.
 *
 * Implements vmm::CloakBackend. On every shadow resolution it decides
 * how the faulting context may see the page:
 *
 *   - The owning cloaked application sees plaintext. If the page is
 *     currently encrypted, the engine decrypts it in place and verifies
 *     its integrity hash first (any kernel tampering or replay is
 *     caught here and kills the application rather than feeding it
 *     corrupt data).
 *   - Every other context — the kernel, other processes, other
 *     domains — sees ciphertext. If the page is currently plaintext,
 *     the engine encrypts it in place (fresh IV + hash + version bump
 *     for dirty pages; cheap deterministic re-encryption for clean
 *     ones) before the mapping is handed out.
 *
 * The per-frame "plaintext index" guarantees no frame ever leaves an
 * application's exclusive view while still holding plaintext.
 */

#ifndef OSH_CLOAK_ENGINE_HH
#define OSH_CLOAK_ENGINE_HH

#include "base/expected.hh"
#include "base/pool.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "cloak/errors.hh"
#include "cloak/metadata.hh"
#include "crypto/keys.hh"
#include "sim/machine.hh"
#include "vmm/hooks.hh"
#include "vmm/registers.hh"
#include "vmm/vmm.hh"

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <ranges>
#include <span>
#include <string>
#include <vector>

namespace osh::cloak
{

/** Key-space tag keeping file keys disjoint from private resource ids:
 *  a protected file's key id is fileKeyTag | file key. */
constexpr ResourceId fileKeyTag = ResourceId{1} << 63;

/** A cloaked VA range of one address space, backed by a resource. */
struct Region
{
    Asid asid = 0;
    GuestVA start = 0;
    GuestVA end = 0;
    ResourceId resource = 0;
    /** Resource page index of the first page of the region. */
    std::uint64_t resourcePageOffset = 0;

    bool contains(GuestVA va) const { return va >= start && va < end; }
};

/** Serialized register-file size in the CTC (cloaked thread context). */
constexpr std::size_t ctcBytes = (vmm::numGprs + 3) * 8;

/** The shim's uncloaked bounce area: its size in pages, and whether
 *  [start, end) meets one at @p bounce_va (0: none). */
constexpr std::uint64_t bouncePages = 20;
constexpr bool
meetsBounce(GuestVA bounce_va, GuestVA start, GuestVA end)
{
    return bounce_va != 0 && start < bounce_va + bouncePages * pageSize &&
           bounce_va < end;
}

/** What a migration image records for a CTC: a valid flag and the
 *  SHA-256 of the register record. */
struct CtcDigest
{
    bool valid = false;
    crypto::Digest hash{};
};

/** A protection domain: one cloaked application (+ forked children). */
struct Domain
{
    DomainId id = systemDomain;
    Asid asid = 0;
    Pid pid = 0;
    crypto::Digest identity{};   ///< Application identity (program hash).
    std::vector<Region> regions;

    /** The shim's layout, the one place it is kept: the cloaked
     *  thread context page and the uncloaked bounce area (0 until the
     *  launch binds the thread). Fork children and restored processes
     *  inherit it. */
    GuestVA ctcVa = 0;
    GuestVA bounceVa = 0;
    /** The VMM-private copy of the register record last saved into
     *  the CTC. */
    std::array<std::uint8_t, ctcBytes> ctcRecord{};
    bool ctcRecordValid = false;
    /** What a checkpoint writes while no record is live: the digest a
     *  restored image carried, or that of the record bindThread last
     *  dropped. Migration metadata only; no check reads it. */
    CtcDigest ctcExport;
};

// CloakError and cloakErrorName live in cloak/errors.hh (shared with
// the metadata store, whose Expected API returns the same codes).

/** One recorded protection violation or rejected operation. */
struct AuditEvent
{
    DomainId domain;
    ResourceId resource;
    std::uint64_t pageIndex;
    std::string reason;
    CloakError code = CloakError::IntegrityViolation;
};

/**
 * Fixed-capacity audit ring. Violations are diagnostics, not load-
 * bearing state: under an adversarial kernel the log must not grow
 * without bound, so once full the oldest events are dropped and
 * counted. front() is the oldest retained event.
 */
class AuditLog
{
  public:
    explicit AuditLog(std::size_t capacity = 256) : capacity_(capacity) {}

    void
    push(AuditEvent ev)
    {
        ring_.push_back(std::move(ev));
        while (ring_.size() > capacity_) {
            ring_.pop_front();
            ++dropped_;
        }
    }

    bool empty() const { return ring_.empty(); }
    std::size_t size() const { return ring_.size(); }
    std::size_t capacity() const { return capacity_; }
    /** Events discarded because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    const AuditEvent& front() const { return ring_.front(); }
    const AuditEvent& back() const { return ring_.back(); }
    auto begin() const { return ring_.begin(); }
    auto end() const { return ring_.end(); }

  private:
    std::size_t capacity_;
    std::uint64_t dropped_ = 0;
    std::deque<AuditEvent> ring_;
};

/**
 * Re-encryption victim cache.
 *
 * Remembers the last N encryption results keyed by
 * (resource, page index, version): the IV and hash the metadata holds
 * plus byte copies of the ciphertext and plaintext images. When a page
 * ping-pongs between the kernel view and its owner without being
 * modified, the version never changes, so:
 *
 *   - re-encrypting a clean page becomes a copy of the cached
 *     ciphertext (AES-CTR under the stored IV is deterministic, so the
 *     bytes are identical and the stored hash stays valid);
 *   - decrypting becomes a compare of the frame against the cached
 *     authentic ciphertext followed by a copy of the cached plaintext —
 *     any kernel tampering makes the compare fail, which falls back to
 *     the full hash-verify path and is caught there.
 *
 * A dirty encryption bumps the version and takes a fresh IV, so stale
 * entries can never false-hit. Capacity 0 disables the cache.
 *
 * The entries sit in a flat array of at most N slots (N is a handful),
 * found by a scan and replaced least recently used first, so a refill
 * reuses a slot instead of allocating a fresh 8 KiB entry.
 */
class VictimCache
{
  public:
    struct Entry
    {
        ResourceId resource = 0;
        std::uint64_t pageIndex = 0;
        std::uint64_t version = 0;
        crypto::Iv iv{};
        crypto::Digest hash{};
        std::array<std::uint8_t, pageSize> ciphertext{};
        std::array<std::uint8_t, pageSize> plaintext{};
    };

    explicit VictimCache(std::size_t capacity = 8) : capacity_(capacity) {}

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return slots_.size(); }

    /** Resize, keeping the most recently used entries that fit. */
    void
    setCapacity(std::size_t capacity)
    {
        capacity_ = capacity;
        while (slots_.size() > capacity_) {
            std::size_t lru = leastRecent();
            if (lru + 1 != slots_.size())
                slots_[lru] = slots_.back();
            slots_.pop_back();
        }
    }

    /** Find an entry and mark it most recently used. */
    Entry*
    find(ResourceId resource, std::uint64_t page_index,
         std::uint64_t version)
    {
        for (Slot& s : slots_) {
            if (s.entry.resource == resource &&
                s.entry.pageIndex == page_index &&
                s.entry.version == version) {
                s.lastUse = ++clock_;
                return &s.entry;
            }
        }
        return nullptr;
    }

    /**
     * Insert (or replace) the entry for a key and return the slot for
     * the caller to fill; a full cache reuses its least recently used
     * slot in place. Returns nullptr when the cache is disabled.
     */
    Entry*
    insert(ResourceId resource, std::uint64_t page_index,
           std::uint64_t version)
    {
        if (capacity_ == 0)
            return nullptr;
        if (Entry* e = find(resource, page_index, version))
            return e;
        Slot* s;
        if (slots_.size() < capacity_) {
            slots_.reserve(capacity_);
            s = &slots_.emplace_back();
        } else {
            s = &slots_[leastRecent()];
        }
        s->lastUse = ++clock_;
        s->entry.resource = resource;
        s->entry.pageIndex = page_index;
        s->entry.version = version;
        return &s->entry;
    }

  private:
    struct Slot
    {
        Entry entry;
        std::uint64_t lastUse = 0;
    };

    std::size_t
    leastRecent() const
    {
        std::size_t lru = 0;
        for (std::size_t i = 1; i < slots_.size(); ++i)
            if (slots_[i].lastUse < slots_[lru].lastUse)
                lru = i;
        return lru;
    }

    std::size_t capacity_;
    /** At most capacity_ slots; each is zeroed once, when first used. */
    std::vector<Slot> slots_;
    std::uint64_t clock_ = 0; ///< Use counter; the smallest lastUse is evicted.
};

/**
 * One unit of work for the batched page-crypto API: a page of a
 * resource plus its (already looked-up) metadata.
 */
struct PageCryptoItem
{
    std::uint64_t pageIndex = 0;
    PageMeta* meta = nullptr;
};

/**
 * One deferred eviction seal. The page was already encrypted — same
 * RNG draws, metadata transitions and victim-cache traffic as the
 * synchronous path — with its cycle charges routed into the background
 * lane; the sealed ciphertext waits in @p sealed until the drain
 * barrier hands it to @p sink (which performs the swap-slot write and
 * the kernel's tamper/replay/attack observation points).
 */
struct AsyncSealEntry
{
    Gpa gpa = badAddr;              ///< Frame the page was evicted from.
    ResourceId resource = 0;
    std::uint64_t pageIndex = 0;
    Cycles readyAt = 0;             ///< Lane completion time (stalls).
    std::array<std::uint8_t, pageSize> sealed{};
    vmm::EvictionSink* sink = nullptr;
    std::uint64_t slot = 0;      ///< Swap slot the sink writes.
    std::uint64_t replayKey = 0; ///< The sink's (asid, va page) key.
};

/** Counters of the "cloak" group (engine.cc, shim.cc, transfer.cc). */
inline constexpr StatNames cloakStat{
    "async_evict_commits", "async_evict_stalls", "async_evictions",
    "audit_errors", "batch_encrypt_calls", "batch_encrypt_pages",
    "clean_reencrypts", "clean_to_dirty", "cloak_faults",
    "ctc_violations", "domain_seals_pages", "domains_created",
    "domains_destroyed", "equalized_passthroughs", "file_attach_rejected",
    "file_attaches", "file_discards", "file_seals", "foreign_plaintext_seals",
    "fork_attach_rejected", "fork_attaches", "fork_snapshot_rejected",
    "fork_snapshots", "page_decrypts", "page_encrypts",
    "plaintext_relocations", "regions_registered", "regions_unregistered",
    "resources_imported", "result_violations", "ring_violations",
    "shim_batch_traps", "shim_batched_calls", "shim_batches",
    "shim_emulated_reads", "shim_emulated_writes", "shim_map_grows",
    "shim_marshalled_reads", "shim_marshalled_writes",
    "shim_protected_closes", "shim_protected_opens", "victim_decrypt_hits",
    "victim_decrypt_mismatches", "victim_reencrypt_hits",
    "victim_reencrypt_mismatches", "violations",
};

/** The Overshadow cloak engine. */
class CloakEngine : public vmm::CloakBackend
{
  public:
    /**
     * @param vmm The VMM to interpose on.
     * @param master_seed Seed of the VMM master secret.
     * @param metadata_cache Metadata-cache capacity (ablation knob).
     */
    CloakEngine(vmm::Vmm& vmm, std::uint64_t master_seed = 0x05ead0,
                std::size_t metadata_cache = 1024);
    ~CloakEngine() override;

    // vmm::CloakBackend ---------------------------------------------------
    vmm::ResolvedPage resolvePage(const vmm::Context& ctx, GuestVA va_page,
                                  const vmm::GuestPte& pte,
                                  vmm::AccessType access) override;
    std::int64_t hypercall(vmm::Vcpu& vcpu, vmm::Hypercall num,
                           std::span<const std::uint64_t> args) override;
    bool evictPageAsync(Gpa gpa, vmm::EvictionSink& sink,
                        std::uint64_t slot,
                        std::uint64_t replay_key) override;
    void drainAsyncEvictions() override;
    std::size_t asyncPendingEvictions() const override
    {
        return asyncCount_;
    }

    // Batched page crypto -------------------------------------------------

    /**
     * Encrypt every listed resident plaintext page of @p res in place.
     * Every page goes through the single-page seal in submission order
     * — same bytes, metadata updates, simulated-cycle charges and
     * trace events — with the cipher looked up once and one enclosing
     * trace scope for the whole batch. Pages already encrypted are the
     * caller's bug (same contract as the single-page path).
     *
     * The crypto pool's contract, and the simulator's only host
     * concurrency: with more than one crypto worker, each seal's
     * AES/SHA is staged across the pool first. Workers read only state
     * frozen for the batch (the plaintext frames, each item's IV and
     * version, the key schedule) and write only their own StagedSeal.
     * They touch no other engine, metadata, key or tracer state, so
     * none of it is locked: everything else runs on the one host
     * thread that drives the simulation.
     */
    void encryptPages(Resource& res, std::span<const PageCryptoItem> items);

    // Trusted runtime services (modelling VMM<->shim cooperation) ---------

    /** Create a domain for (asid, pid) with the given identity. */
    DomainId createDomain(Asid asid, Pid pid,
                          const crypto::Digest& identity);

    /** Tear down a domain: purge plaintext index, destroy resources. */
    void teardownDomain(DomainId id);

    Domain* findDomain(DomainId id);

    /** Register/unregister a cloaked VA range for a domain. A range
     *  over a region or the bounce area, or naming a resource that is
     *  unknown or another domain's, is refused. */
    Expected<ResourceId, CloakError>
    registerRegion(DomainId domain, GuestVA start, std::uint64_t pages,
                   ResourceId resource = 0,
                   std::uint64_t resource_page_offset = 0);
    void unregisterRegion(DomainId domain, GuestVA start);

    /** CTC handling used by the secure-control-transfer path: the VMM
     *  keeps a private copy of each saved record and the restore side
     *  compares the CTC page against it in constant time. Binding a
     *  thread (at launch) records the shim's layout (CTC and bounce
     *  area), refusing a bounce area over a region, and clears the
     *  copy, so a verify before the next save fails. A refusal names
     *  its cause and is recorded in the audit log. */
    Expected<void, CloakError> bindThread(DomainId domain, GuestVA ctc_va,
                                          GuestVA bounce_va);
    void recordCtc(DomainId domain,
                   std::span<const std::uint8_t, ctcBytes> record);
    Expected<void, CloakError>
    verifyCtc(DomainId domain, std::span<const std::uint8_t, ctcBytes> record);

    /** Migration: the CTC digest a checkpoint writes (hashing the live
     *  record, if any), and the restore side's import of it. An import
     *  sets no record, so the domain's first verify before a save
     *  fails closed. */
    CtcDigest exportCtcDigest(DomainId domain);
    void importCtcDigest(DomainId domain, const CtcDigest& digest);

    /** Fork support. The parent mints a token before the fork trap;
     *  immediately after the trap returns (when the kernel has eagerly
     *  copied the encrypted page images and the parent has not yet run)
     *  it snapshots its metadata, naming the child pid the trap
     *  returned; only that child consumes the snapshot, and any other
     *  caller's attach is refused with the token left pending. Every
     *  rejection carries a typed reason and is audited. */
    Expected<std::uint64_t, CloakError> prepareFork(DomainId parent);
    Expected<void, CloakError> snapshotFork(DomainId parent,
                                            std::uint64_t token,
                                            Pid child_pid);
    Expected<DomainId, CloakError> forkAttach(Asid child_asid,
                                              Pid child_pid,
                                              std::uint64_t token);

    // Checkpoint/restore & live migration services ------------------------

    /**
     * Encrypt every resident plaintext page of a domain in place, one
     * encryptPages batch per resource. After this the domain's entire
     * protected state is ciphertext + metadata — the canonical form a
     * checkpoint image or a pre-copy round serializes. Returns the
     * number of pages sealed.
     */
    std::size_t sealDomainPlaintext(DomainId id);

    /**
     * MAC key for a migration image/stream identified by @p nonce.
     * Derived from the VMM master secret: source and target VMMs
     * sharing a platform secret derive the same key (the trusted
     * VMM-to-VMM channel of the paper's migration sketch).
     */
    crypto::Digest migrationKey(std::uint64_t nonce) const
    {
        return keys_.migrationKey(nonce);
    }

    /**
     * Restore-side resource materialization: create a resource for
     * @p domain whose key identity @p key_id was minted on the source
     * machine, and reserve the local id space past it so no future
     * resource aliases the imported key.
     */
    Resource& importResource(DomainId domain, ResourceId key_id);

    /** Protected-file support. Only a key's owner may seal or discard
     *  it; the owner's discard seals it empty at the next version. */
    Expected<ResourceId, CloakError>
    attachFileResource(DomainId domain, std::uint64_t file_key);
    Expected<void, CloakError> sealFileResource(DomainId domain,
                                                ResourceId resource);
    Expected<void, CloakError> discardFileMetadata(DomainId domain,
                                                   std::uint64_t file_key);

    /** Sealed-bundle store (tests tamper with this directly). */
    std::map<std::uint64_t, std::vector<std::uint8_t>>& sealedStore()
    {
        return sealedStore_;
    }

    MetadataStore& metadata() { return metadata_; }
    crypto::KeyManager& keys() { return keys_; }
    const AuditLog& auditLog() const { return auditLog_; }
    StatGroup& stats() { return stats_; }

    /** Enable/disable the clean-plaintext optimization (ablation). */
    void setCleanOptimization(bool on) { cleanOptimization_ = on; }

    /** Resize the re-encryption victim cache (0 disables; ablation). */
    void setVictimCacheCapacity(std::size_t entries)
    {
        victims_.setCapacity(entries);
    }
    const VictimCache& victimCache() const { return victims_; }

    /**
     * Host worker threads for encryptPages and everything routed
     * through it (domain, region-teardown and protected-file seals).
     * 1 = every seal computes inline, 0 = one lane per hardware
     * thread. Purely a host-speed knob: the lanes only precompute AES
     * and SHA, and every stateful effect runs through the one
     * single-page seal, so frames, metadata, victim-cache contents,
     * simulated cycles and trace event order are identical for every
     * setting.
     */
    void setCryptoWorkers(unsigned workers) { pool_.resize(workers); }
    unsigned cryptoWorkers() const { return pool_.workers(); }

    /**
     * Depth of the asynchronous eviction queue. 0 (the default) keeps
     * the exact synchronous legacy path: evictPageAsync always refuses
     * and the kernel seals + writes on its critical path. At depth N
     * up to N eviction seals ride the background lane; enqueueing when
     * full retires the oldest entry first. The staging ring is
     * allocated here, so only with no eviction in flight.
     */
    void setAsyncEvictDepth(std::size_t depth);
    std::size_t asyncEvictDepth() const { return asyncRing_.size(); }

    /** Entries still awaiting their drain commit, oldest first
     *  (leak-oracle scans read the staging ciphertext through this). */
    auto
    asyncPendingEntries() const
    {
        return std::views::iota(std::size_t{0}, asyncCount_) |
               std::views::transform(
                   [this](std::size_t i) -> const AsyncSealEntry& {
                       return asyncRing_[(asyncHead_ + i) %
                                         asyncRing_.size()];
                   });
    }

    /**
     * Constant-cost response mode (timing-channel hardening, ablation).
     * Every distinguishable cloak response charges its worst-case
     * sibling's cycles: victim-cache hits and clean re-encrypts charge
     * the full dirty seal, the victim-decrypt fast path charges a full
     * verify+decrypt, metadata-cache hits charge a miss, and kernel
     * passthrough of an already-sealed cloaked page charges a full seal
     * (the zero-cost distinguisher the timing campaign found). Bytes,
     * verdicts and cache behavior are unchanged — only cycle
     * accounting. See docs/threat-model.md for the oracle inventory.
     */
    void setConstantCostMode(bool on);

  private:
    /** The owner page of a frame's plaintext; resource 0 = none. */
    struct PlaintextRef
    {
        ResourceId resource = 0;
        std::uint64_t pageIndex = 0;
    };

    /** Owner of the plaintext in @p gpa's frame, or nullptr. */
    PlaintextRef* plaintextAt(Gpa gpa);
    /** Record that @p gpa's frame holds (resource, page_index). */
    void setPlaintext(Gpa gpa, ResourceId resource,
                      std::uint64_t page_index);
    /** Forget the plaintext of @p gpa's frame (no-op when none). */
    void clearPlaintext(Gpa gpa);

    Region* findRegion(DomainId domain, Asid asid, GuestVA va_page);
    Domain& domainOf(DomainId id);

    /** The resource's key handle, re-acquired only when the key
     *  identity changed since the handle was taken. */
    const crypto::KeyHandle& keyFor(Resource& res);

    /** AES/SHA output of one seal, precomputed by encryptPages. */
    struct StagedSeal;

    /** Is the next seal of this plaintext page a dirty one (fresh IV,
     *  version bump) rather than a clean re-encryption? */
    bool needsFreshIv(const PageMeta& meta) const;

    /**
     * The page seal: encrypt the resident plaintext of
     * (resource,page) in place. When @p defer_cycles is non-null the
     * page's cycle charges accumulate there instead of the guest
     * timeline (the asynchronous eviction lane); event counts are
     * still recorded. When @p staged is non-null its IV, ciphertext
     * and hash replace the inline RNG draw, AES and SHA; everything
     * else is the same code either way.
     */
    void encryptPage(Resource& res, std::uint64_t page_index,
                     PageMeta& meta, const crypto::Aes128& cipher,
                     std::uint64_t* defer_cycles = nullptr,
                     const StagedSeal* staged = nullptr);

    /** Decrypt + verify the page image in @p gpa; throws on mismatch. */
    void decryptAndVerify(Resource& res, std::uint64_t page_index,
                          PageMeta& meta, Gpa gpa,
                          const crypto::Aes128& cipher);

    /** Retire the oldest queued async eviction (stall + commit). */
    void drainOneAsyncEviction();

    /** Integrity hash of a ciphertext page bound to its identity
     *  (key, page, version, IV). */
    crypto::Digest pageHash(const Resource& res, std::uint64_t page_index,
                            std::uint64_t version, const crypto::Iv& iv,
                            std::span<const std::uint8_t> ciphertext);

    [[noreturn]] void violation(Resource& res, std::uint64_t page_index,
                                const std::string& reason);

    /** Record a rejected operation in the audit log and build the
     *  error tag the caller returns. All Expected error paths funnel
     *  through here, so emission cannot be forgotten at a call site. */
    Error<CloakError> auditError(CloakError code, DomainId domain,
                                 ResourceId resource = 0,
                                 std::uint64_t page_index = 0);

    std::span<std::uint8_t> frameBytes(Gpa gpa);

    vmm::Vmm& vmm_;
    crypto::KeyManager keys_;
    MetadataStore metadata_;

    std::map<DomainId, Domain> domains_;
    DomainId nextDomain_ = 1;

    /** Frames currently holding plaintext, indexed by guest frame
     *  number; grows to the highest frame that ever held plaintext. */
    std::vector<PlaintextRef> plaintextIndex_;

    /** One pre-cloned region awaiting a fork child. */
    struct PendingRegion
    {
        Region region;          ///< Parent-relative template.
        ResourceId clonedResource;
    };

    /** Outstanding fork authorizations. */
    struct PendingFork
    {
        DomainId parent = systemDomain;
        /** The one pid that may attach (set by the snapshot). */
        Pid child = 0;
        bool snapshotted = false;
        std::vector<PendingRegion> regions;
    };
    std::map<std::uint64_t, PendingFork> pendingForks_;
    std::uint64_t nextForkToken_ = 0x4f56'0001;

    /** Sealed metadata bundles keyed by file key. */
    std::map<std::uint64_t, std::vector<std::uint8_t>> sealedStore_;

    bool cleanOptimization_ = true;
    VictimCache victims_;
    AuditLog auditLog_;
    StatGroup stats_;

    /** Asynchronous eviction pipeline: a FIFO ring of depth slots
     *  (none = exact legacy sync path), asyncCount_ of them pending
     *  from asyncHead_ on. */
    std::vector<AsyncSealEntry> asyncRing_;
    std::size_t asyncHead_ = 0;
    std::size_t asyncCount_ = 0;
    /** When the background lane finishes its last accepted job. */
    Cycles laneBusyUntil_ = 0;
    /** Reentrancy guard: commits must not re-enter the drain, nor
     *  enqueue into the ring slot they are read from. */
    bool asyncDraining_ = false;

    /** Constant-cost responses (see setConstantCostMode). */
    bool constantCost_ = false;

    /** The dirty full-seal charge — the cost every equalized branch
     *  pays under constant-cost mode. */
    Cycles worstCaseSealCycles() const;

    /** Is @p va_page inside any domain's cloaked region of @p asid?
     *  (The equalized-passthrough check; O(domains), cold path.) */
    bool inCloakedRegion(Asid asid, GuestVA va_page);

    /** Host lanes for encryptPages' AES/SHA; one lane = no threads. */
    WorkerPool pool_{1};
};

/** Application identity: hash of the program name (stands in for a
 *  hash of the binary + shim in the paper). */
crypto::Digest programIdentity(const std::string& program_name);

} // namespace osh::cloak

#endif // OSH_CLOAK_ENGINE_HH
