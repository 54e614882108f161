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
 * All resources live in one map keyed by resource id, like the
 * paper's single VMM metadata table. The store is touched from one host
 * thread only: every guest body is a fiber on the thread that drives
 * System::run(), and the crypto pool's workers never reach it (see
 * CloakEngine::encryptPages), so nothing here is locked. Resource ids
 * come from one monotonic counter; they feed AES key derivation, so a
 * given workload always mints the same ids.
 *
 * A capacity-bounded LRU models the paper's metadata cache: lookups
 * charge metadataHit or metadataMiss cycles accordingly.
 *
 * Fallible entry points (lookup, unseal) return
 * Expected<T, CloakError> with typed codes, so a stale id and an
 * integrity failure are distinguishable at every call site and the
 * engine's audit ring can record the precise cause.
 */

#ifndef OSH_CLOAK_METADATA_HH
#define OSH_CLOAK_METADATA_HH

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
#include <list>
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
 * The metadata store: all resources plus the cache cost model and the
 * sealed-bundle persistence for protected files.
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

    /** Latest sealed version seen for a file key (rollback floor). */
    std::uint64_t lastSealedVersion(std::uint64_t file_key) const;

    // Checkpoint/restore --------------------------------------------------

    /**
     * The full rollback-floor table (file key -> newest sealed bundle
     * version witnessed). A checkpoint must carry it: a restored store
     * that forgot the floors would accept replayed older bundles.
     */
    const std::map<std::uint64_t, std::uint64_t>&
    sealVersions() const
    {
        return sealVersions_;
    }

    /**
     * Merge an imported rollback-floor table, keeping the maximum per
     * file key (floors only ever advance).
     */
    void importSealVersions(
        const std::map<std::uint64_t, std::uint64_t>& floors);

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
    std::size_t cacheSize() const { return cacheIndex_.size(); }
    /** LRU list length; always equals cacheSize() when consistent. */
    std::size_t lruLength() const { return lru_.size(); }
    /** Whether (resource, page) is resident in the cache model. */
    bool
    cached(ResourceId res, std::uint64_t page_index) const
    {
        return cacheIndex_.find(CacheKey{res, page_index}) !=
               cacheIndex_.end();
    }

    StatGroup& stats() { return stats_; }

  private:
    /** Mint a resource owned by @p domain. */
    Resource& emplaceResource(DomainId domain);

    void touchCache(ResourceId res, std::uint64_t page_index);

    /** Drop every cached key of one resource (destroy/page reload). */
    void purgeCache(ResourceId res);

    /** Shrink the LRU to the configured capacity. */
    void evictToCapacity();

    /** Fold a page-count delta into the footprint accounting. */
    void accountPages(std::int64_t pages_delta);

    /** Raise @p file_key's rollback floor to @p version (floors only
     *  ever advance). */
    void raiseSealFloor(std::uint64_t file_key, std::uint64_t version);

    sim::CostModel& cost_;
    std::size_t cacheCapacity_;

    /** Hits charge the miss cost (see setConstantCostLookups). */
    bool constantCostLookups_ = false;

    /** Every live resource. std::map keeps Resource references stable
     *  across inserts. */
    std::map<ResourceId, Resource> resources_;

    /** Monotonic id mint (ids derive AES keys). */
    ResourceId nextId_ = 1;

    /** LRU cache model: key = (resource, page). */
    using CacheKey = std::pair<ResourceId, std::uint64_t>;
    std::list<CacheKey> lru_;
    std::map<CacheKey, std::list<CacheKey>::iterator> cacheIndex_;

    /** Monotonic bundle versions per file key (rollback detection). */
    std::map<std::uint64_t, std::uint64_t> sealVersions_;

    /** Footprint accounting (tracks store-managed allocations). */
    std::uint64_t livePageMetas_ = 0;
    std::uint64_t peakFootprint_ = 0;

    StatGroup stats_;
};

} // namespace osh::cloak

#endif // OSH_CLOAK_METADATA_HH
