/**
 * @file
 * Protection metadata.
 *
 * For every cloaked resource (a private memory region or a protected
 * file) the VMM records, per page: the cloaking state, the IV used for
 * its latest encryption, the SHA-256 integrity hash of the ciphertext
 * (bound to the resource identity, page index and version), and a
 * monotonically increasing version. Metadata lives in VMM-private
 * memory — the guest can never touch it — and can be *sealed*
 * (serialized + HMAC) for persistence alongside protected files.
 *
 * Each protected file key has one record here: its rollback floor and
 * the identity that owns it. Every decision about a file's sealed state
 * reads it; the bundles are the kernel's to keep (the untrusted disk).
 *
 * All resources live in one map keyed by resource id, like the
 * paper's single VMM metadata table. The store is touched from one host
 * thread only: every guest body is a fiber on the thread that drives
 * System::run(), and the crypto pool's workers never reach it (see
 * CloakEngine::encryptPages), so nothing here is locked. Resource ids
 * come from one monotonic counter; they feed AES key derivation, so a
 * given workload always mints the same ids.
 *
 * A capacity-bounded LRU models the paper's metadata cache: lookups
 * charge metadataHit or metadataMiss cycles accordingly. The model
 * (MetadataCache) lives in storage sized once to its capacity, so a
 * hit, a miss and an eviction touch no tree and allocate nothing.
 *
 * Fallible entry points (lookup, unseal) return
 * Expected<T, CloakError> with typed codes, so a stale id and an
 * integrity failure are distinguishable at every call site and the
 * engine's audit ring can record the precise cause.
 */

#ifndef OSH_CLOAK_METADATA_HH
#define OSH_CLOAK_METADATA_HH

#include "base/bytes.hh"
#include "base/expected.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "cloak/errors.hh"
#include "crypto/ctr.hh"
#include "crypto/hmac.hh"
#include "crypto/keys.hh"
#include "crypto/sha256.hh"
#include "sim/cost_model.hh"

#include <cstdint>
#include <map>
#include <vector>

namespace osh::cloak
{

/** Cloaked-page states (the paper's page state machine). */
enum class PageState : std::uint8_t
{
    Encrypted,       ///< Ciphertext; kernel view maps it RW.
    PlaintextClean,  ///< Plaintext, unmodified since decryption; the
                     ///< stored (IV, hash) are still valid, so handing
                     ///< it back to the kernel needs no re-hash.
    PlaintextDirty,  ///< Plaintext, modified; next encryption takes a
                     ///< fresh IV, hash and version.
};

/** Per-page protection metadata. */
struct PageMeta
{
    PageState state = PageState::Encrypted;
    crypto::Iv iv{};
    crypto::Digest hash{};
    std::uint64_t version = 0;
    bool initialized = false;     ///< Has this page ever held data?
    Gpa residentGpa = badAddr;    ///< Frame holding plaintext (if any).
};

/**
 * The page-metadata records a sealed bundle and a checkpoint's Resource
 * record both carry: a u64 count, then per page, in ascending index
 * order, its index (u64), version (u64), initialized flag (u8), IV
 * (16 bytes) and integrity hash (32 bytes). State and residency are
 * not encoded: every decoded page is Encrypted and not resident.
 */
void encodePageMetas(PayloadWriter& out,
                     const std::map<std::uint64_t, PageMeta>& pages);

/**
 * Replace @p pages with what encodePageMetas wrote. It fails @p in
 * unless the count fits the bytes that remain, indices strictly ascend
 * and every flag is 0 or 1: a decode that succeeds re-encodes exactly.
 */
void decodePageMetas(PayloadReader& in,
                     std::map<std::uint64_t, PageMeta>& pages);

/** A cloaked resource: a keyed collection of page metadata. */
struct Resource
{
    ResourceId id = 0;
    /**
     * Key identity: resources cloned across fork, and file resources
     * re-attached across processes, share the key of their root so
     * ciphertext remains decryptable. For private resources keyId==id.
     */
    ResourceId keyId = 0;
    /**
     * Pre-resolved key material for keyId (cipher + sealing HMAC),
     * acquired once at cloak-attach. The fault hot path encrypts and
     * decrypts through this handle — never through a key-map lookup.
     * The handle co-owns the material: a fork clone copies it, and the
     * material is freed when the last resource holding it is destroyed.
     */
    crypto::KeyHandle key;
    DomainId domain = systemDomain;
    bool isFile = false;
    std::uint64_t fileKey = 0;    ///< Stable file identity (path hash).
    std::map<std::uint64_t, PageMeta> pages;
};

/**
 * The LRU model of the paper's metadata cache, over (resource, page)
 * keys. Its storage is sized once per capacity: a slot array, an LRU
 * list and a per-resource chain linked through slot indices, and two
 * open-addressed tables of slot indices (linear probing at most half
 * full, backward-shift delete): one finds a key's slot, the other a
 * resource's chain. touch() and purge() never allocate, and purge()
 * walks only the resource's own cached keys.
 */
class MetadataCache
{
  public:
    explicit MetadataCache(std::size_t capacity);

    /**
     * Move (@p res, @p page) to the front. Returns true when it was
     * cached; otherwise inserts it, evicting the least recently used
     * key when the cache is full, and returns false.
     */
    bool touch(ResourceId res, std::uint64_t page);

    /** Drop every cached key of @p res. */
    void purge(ResourceId res);

    /** Resize, keeping the @p capacity most recently used keys. */
    void setCapacity(std::size_t capacity);

    /** Keys currently cached. */
    std::size_t size() const { return size_; }
    /** Keys on the LRU list, counted by walking it. */
    std::size_t lruLength() const;
    /** Whether (@p res, @p page) is cached; moves nothing. */
    bool contains(ResourceId res, std::uint64_t page) const;

  private:
    static constexpr std::uint32_t none = ~0u;

    struct Slot
    {
        ResourceId res;
        std::uint64_t page;
        std::uint32_t newer, older;         ///< LRU list, MRU first.
        std::uint32_t prevOfRes, nextOfRes; ///< The resource's chain.
    };

    std::size_t keyHome(ResourceId res, std::uint64_t page) const;
    std::size_t resHome(ResourceId res) const;
    /** Position of the key's entry in keyTable_, or of the empty
     *  entry that ends its probe. */
    std::size_t keyPos(ResourceId res, std::uint64_t page) const;
    /** The same in resTable_, keyed by a chain's resource. */
    std::size_t resPos(ResourceId res) const;
    /** Empty @p table's entry @p pos, shifting later entries back. */
    template <typename Home>
    void erase(std::vector<std::uint32_t>& table, std::size_t pos,
               Home home);

    void unlinkLru(std::uint32_t s);
    void pushFront(std::uint32_t s);
    /** Remove slot @p s from every structure and free it. */
    void drop(std::uint32_t s);

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> keyTable_;
    std::vector<std::uint32_t> resTable_;
    std::size_t mask_ = 0;
    std::uint32_t mru_ = none, lru_ = none;
    std::uint32_t free_ = none; ///< Free slots, linked through `older`.
    std::size_t size_ = 0;
};

/**
 * The metadata store: all resources plus the cache cost model and the
 * per-file-key seal records.
 */
class MetadataStore
{
  public:
    /**
     * @param cost Cost model charged on lookups.
     * @param cache_capacity Entries the hot metadata cache holds.
     */
    MetadataStore(sim::CostModel& cost, std::size_t cache_capacity = 1024);

    /** Create a fresh resource owned by @p domain. */
    Resource& createResource(DomainId domain, bool is_file = false,
                             std::uint64_t file_key = 0);

    /** Clone a resource (fork): copies metadata, aliases the key. */
    Resource& cloneResource(const Resource& src, DomainId new_domain);

    /**
     * Resolve a resource id. Fails with UnknownResource when the store
     * has never seen the id or it was destroyed.
     */
    Expected<Resource*, CloakError> lookup(ResourceId id);

    /** Remove a resource entirely (no-op for unknown ids). */
    void destroyResource(ResourceId id);

    /**
     * Replace every page of @p res (a sealed-bundle reload or a
     * restored image): drops the resource's cache keys and accounts
     * the page-count change in the footprint.
     */
    void replacePages(Resource& res,
                      std::map<std::uint64_t, PageMeta> pages);

    /**
     * Look up (creating if absent) page metadata, charging the cache
     * model.
     */
    PageMeta& page(Resource& res, std::uint64_t page_index);

    /** Change the cache capacity (ablation benchmarks). */
    void setCacheCapacity(std::size_t capacity);

    /** Constant-cost lookups (timing hardening): hits charge the miss
     *  cost, so residency in the hot cache is not observable. */
    void setConstantCostLookups(bool on) { constantCostLookups_ = on; }

    // Sealing -------------------------------------------------------------

    /**
     * Serialize a resource's metadata and seal it with HMAC under
     * @p seal_key, binding @p owner_identity. The bundle version is one
     * greater than any previous seal of the same file key.
     */
    std::vector<std::uint8_t> seal(const Resource& res,
                                   const crypto::HmacKey& seal_key,
                                   const crypto::Digest& owner_identity);

    /**
     * Verify and import a sealed bundle into @p dst. Fails with a
     * typed code: SealBadMac (MAC mismatch), SealBadIdentity (sealed
     * under another identity), SealRollback (older than the witnessed
     * floor), SealMalformed (truncated/structurally invalid).
     */
    Expected<void, CloakError> unseal(std::span<const std::uint8_t> bundle,
                                      const crypto::HmacKey& seal_key,
                                      const crypto::Digest& owner_identity,
                                      Resource& dst);

    /** An attach found no bundle: SealMissing under a nonzero floor. */
    Expected<void, CloakError> missingBundle(std::uint64_t file_key) const;

    /** Whether @p identity may seal or discard @p file_key: no seal
     *  made another identity its owner. */
    bool mayWrite(std::uint64_t file_key,
                  const crypto::Digest& identity) const;

    /** Latest sealed version seen for a file key (rollback floor). */
    std::uint64_t lastSealedVersion(std::uint64_t file_key) const;

    // Checkpoint/restore --------------------------------------------------

    /** The floors @p owner owns (file key -> version), which its
     *  checkpoint carries so no restore accepts its replayed bundles. */
    std::map<std::uint64_t, std::uint64_t>
    floorsOwnedBy(const crypto::Digest& owner) const;

    /** Import floors for @p owner: one never lowers a version, and
     *  never changes an existing owner (another's key is skipped). */
    void importFloors(const std::map<std::uint64_t, std::uint64_t>& floors,
                      const crypto::Digest& owner);

    /**
     * Ensure future resource ids start at @p min_next or later. An
     * import materializes resources whose keyIds were minted on another
     * machine; without reserving, a later createResource could mint an
     * id equal to an imported keyId and alias its derived AES key.
     */
    void reserveIds(ResourceId min_next);

    // Footprint introspection ---------------------------------------------

    /** Live resources. */
    std::size_t resourceCount() const { return resources_.size(); }

    /** Rough bytes of VMM-private memory the live metadata occupies. */
    std::uint64_t footprintBytes() const;

    /** High-water mark of footprintBytes() over the store's lifetime. */
    std::uint64_t peakFootprintBytes() const { return peakFootprint_; }

    // Cache introspection (consistency tests) ------------------------------

    /** Keys currently occupying cache capacity. */
    std::size_t cacheSize() const { return cache_.size(); }
    /** LRU list length; always equals cacheSize() when consistent. */
    std::size_t lruLength() const { return cache_.lruLength(); }
    /** Whether (resource, page) is resident in the cache model. */
    bool
    cached(ResourceId res, std::uint64_t page_index) const
    {
        return cache_.contains(res, page_index);
    }

    StatGroup& stats() { return stats_; }

  private:
    /** Mint a resource owned by @p domain. */
    Resource& emplaceResource(DomainId domain);

    /** Fold a page-count delta into the footprint accounting. */
    void accountPages(std::int64_t pages_delta);

    /** A protected file key's record: floor and owning identity. */
    struct FileSeal
    {
        std::uint64_t version = 0;
        crypto::Digest owner{};
    };

    sim::CostModel& cost_;

    /** Hits charge the miss cost (see setConstantCostLookups). */
    bool constantCostLookups_ = false;

    /** Every live resource. std::map keeps Resource references stable
     *  across inserts. */
    std::map<ResourceId, Resource> resources_;

    /** Monotonic id mint (ids derive AES keys). */
    ResourceId nextId_ = 1;

    /** LRU cache model: key = (resource, page). */
    MetadataCache cache_;

    /** Every file key sealed here or imported; never dropped. */
    std::map<std::uint64_t, FileSeal> fileSeals_;

    /** Footprint accounting (tracks store-managed allocations). */
    std::uint64_t livePageMetas_ = 0;
    std::uint64_t peakFootprint_ = 0;

    StatGroup stats_;
};

} // namespace osh::cloak

#endif // OSH_CLOAK_METADATA_HH
