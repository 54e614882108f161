#include "cloak/metadata.hh"

#include "base/bytes.hh"
#include "base/logging.hh"
#include "crypto/hmac.hh"

#include <algorithm>
#include <cstring>

namespace osh::cloak
{

constexpr StatNames metadataStat{
    "resources_cloned", "resources_created", "resources_destroyed", "seals",
    "unseal_bad_identity", "unseal_bad_mac", "unseal_rollback", "unseals",
};

namespace
{
/// Rough per-entry std::map node overhead (parent/children/color + key)
/// folded into footprint estimates so the scale bench reflects real
/// VMM-private memory, not just payload bytes.
constexpr std::uint64_t mapNodeOverhead = 48;
} // namespace

MetadataStore::MetadataStore(sim::CostModel& cost,
                             std::size_t cache_capacity)
    : cost_(cost), cacheCapacity_(cache_capacity),
      stats_("metadata", metadataStat.names)
{
    osh_assert(cache_capacity > 0, "metadata cache needs capacity");
}

void
MetadataStore::accountPages(std::int64_t pages_delta)
{
    livePageMetas_ =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(livePageMetas_) +
                                   pages_delta);
    peakFootprint_ = std::max(peakFootprint_, footprintBytes());
}

std::uint64_t
MetadataStore::footprintBytes() const
{
    return resources_.size() * (sizeof(Resource) + mapNodeOverhead) +
           livePageMetas_ * (sizeof(PageMeta) + mapNodeOverhead);
}

Resource&
MetadataStore::emplaceResource(DomainId domain)
{
    ResourceId id = nextId_++;
    Resource& res = resources_[id];
    res.id = id;
    res.keyId = id;
    res.domain = domain;
    return res;
}

Resource&
MetadataStore::createResource(DomainId domain, bool is_file,
                              std::uint64_t file_key)
{
    Resource& res = emplaceResource(domain);
    res.isFile = is_file;
    res.fileKey = file_key;
    accountPages(0); // No pages yet, but the resource raises the peak.
    stats_.inc(metadataStat("resources_created"));
    return res;
}

Resource&
MetadataStore::cloneResource(const Resource& src, DomainId new_domain)
{
    Resource& res = emplaceResource(new_domain);
    res.keyId = src.keyId;   // Alias the key: copied ciphertext stays
                             // decryptable in the clone.
    res.key = src.key;       // Handle aliases with the key id.
    res.isFile = src.isFile;
    res.fileKey = src.fileKey;
    res.pages = src.pages;
    // Plaintext residency does not transfer: the kernel eagerly copied
    // *encrypted* page images for the child.
    for (auto& [idx, meta] : res.pages) {
        if (meta.state != PageState::Encrypted && meta.initialized) {
            // The parent's plaintext pages were encrypted on the fly by
            // the kernel's fork copy, so by the time the clone is made
            // every parent page it copied is Encrypted. Pages that were
            // never encrypted keep their fresh state.
            meta.state = PageState::Encrypted;
        }
        meta.residentGpa = badAddr;
    }
    accountPages(static_cast<std::int64_t>(res.pages.size()));
    stats_.inc(metadataStat("resources_cloned"));
    return res;
}

Expected<Resource*, CloakError>
MetadataStore::lookup(ResourceId id)
{
    auto it = resources_.find(id);
    if (it == resources_.end())
        return Error(CloakError::UnknownResource);
    return &it->second;
}

void
MetadataStore::destroyResource(ResourceId id)
{
    purgeCache(id);
    auto it = resources_.find(id);
    if (it != resources_.end()) {
        auto pages = static_cast<std::int64_t>(it->second.pages.size());
        resources_.erase(it);
        accountPages(-pages);
    }
    stats_.inc(metadataStat("resources_destroyed"));
}

void
MetadataStore::purgeCache(ResourceId res)
{
    // CacheKey ordering is (resource, page), so one range scan covers
    // every page of the resource.
    auto it = cacheIndex_.lower_bound(CacheKey{res, 0});
    while (it != cacheIndex_.end() && it->first.first == res) {
        lru_.erase(it->second);
        it = cacheIndex_.erase(it);
    }
}

void
MetadataStore::evictToCapacity()
{
    while (cacheIndex_.size() > cacheCapacity_) {
        cacheIndex_.erase(lru_.back());
        lru_.pop_back();
    }
}

void
MetadataStore::touchCache(ResourceId res, std::uint64_t page_index)
{
    CacheKey key{res, page_index};
    auto it = cacheIndex_.find(key);
    if (it != cacheIndex_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        // Constant-cost mode: a hit priced below a miss tells the
        // kernel which (resource, page) pairs were touched recently.
        cost_.charge(constantCostLookups_ ? cost_.params().metadataMiss
                                          : cost_.params().metadataHit,
                     "metadata_hit");
        return;
    }
    cost_.charge(cost_.params().metadataMiss, "metadata_miss");
    lru_.push_front(key);
    cacheIndex_[key] = lru_.begin();
    evictToCapacity();
}

PageMeta&
MetadataStore::page(Resource& res, std::uint64_t page_index)
{
    auto it = res.pages.find(page_index);
    if (it == res.pages.end()) {
        // Freshly created metadata is born hot in the cache: there is
        // nothing to fetch or verify. The key can already be cached
        // when the page was destroyed and recreated (unseal reload);
        // splice instead of inserting a duplicate node, which would
        // orphan the old one and later erase the live index entry.
        CacheKey key{res.id, page_index};
        cost_.charge(constantCostLookups_ ? cost_.params().metadataMiss
                                          : cost_.params().metadataHit,
                     "metadata_hit");
        auto cit = cacheIndex_.find(key);
        if (cit != cacheIndex_.end()) {
            lru_.splice(lru_.begin(), lru_, cit->second);
        } else {
            lru_.push_front(key);
            cacheIndex_[key] = lru_.begin();
            evictToCapacity();
        }
        accountPages(+1);
        return res.pages[page_index];
    }
    touchCache(res.id, page_index);
    return it->second;
}

void
MetadataStore::setCacheCapacity(std::size_t capacity)
{
    osh_assert(capacity > 0, "metadata cache needs capacity");
    cacheCapacity_ = capacity;
    evictToCapacity();
}

std::vector<std::uint8_t>
MetadataStore::seal(const Resource& res, const crypto::HmacKey& seal_key,
                    const crypto::Digest& owner_identity)
{
    std::uint64_t version = ++sealVersions_[res.fileKey];

    std::vector<std::uint8_t> out;
    auto put64 = [&out](std::uint64_t v) {
        std::uint8_t b[8];
        storeLe64(b, v);
        out.insert(out.end(), b, b + 8);
    };

    put64(res.fileKey);
    put64(version);
    out.insert(out.end(), owner_identity.begin(), owner_identity.end());
    put64(res.pages.size());
    for (const auto& [idx, meta] : res.pages) {
        put64(idx);
        put64(meta.version);
        out.push_back(meta.initialized ? 1 : 0);
        out.insert(out.end(), meta.iv.begin(), meta.iv.end());
        out.insert(out.end(), meta.hash.begin(), meta.hash.end());
    }

    crypto::Digest mac = crypto::hmacSha256(seal_key, out);
    out.insert(out.end(), mac.begin(), mac.end());
    stats_.inc(metadataStat("seals"));
    return out;
}

Expected<void, CloakError>
MetadataStore::unseal(std::span<const std::uint8_t> bundle,
                      const crypto::HmacKey& seal_key,
                      const crypto::Digest& owner_identity, Resource& dst)
{
    constexpr std::size_t mac_size = crypto::sha256DigestSize;
    if (bundle.size() < 8 + 8 + mac_size + 32 + 8)
        return Error(CloakError::SealMalformed);

    std::span<const std::uint8_t> body =
        bundle.first(bundle.size() - mac_size);
    std::span<const std::uint8_t> mac = bundle.last(mac_size);
    crypto::Digest expect = crypto::hmacSha256(seal_key, body);
    if (!constantTimeEqual(expect, mac)) {
        stats_.inc(metadataStat("unseal_bad_mac"));
        return Error(CloakError::SealBadMac);
    }

    std::size_t pos = 0;
    auto get64 = [&](std::uint64_t& v) {
        v = loadLe64(body.data() + pos);
        pos += 8;
    };
    std::uint64_t file_key, version;
    get64(file_key);
    get64(version);

    crypto::Digest identity;
    std::memcpy(identity.data(), body.data() + pos, identity.size());
    pos += identity.size();
    if (!constantTimeEqual(identity, owner_identity)) {
        stats_.inc(metadataStat("unseal_bad_identity"));
        return Error(CloakError::SealBadIdentity);
    }

    // Rollback detection: refuse bundles older than the newest seal we
    // have witnessed for this file key.
    if (version < lastSealedVersion(file_key)) {
        stats_.inc(metadataStat("unseal_rollback"));
        return Error(CloakError::SealRollback);
    }

    std::uint64_t count;
    get64(count);
    constexpr std::size_t per_page = 8 + 8 + 1 + 16 + 32;
    if (body.size() - pos != count * per_page)
        return Error(CloakError::SealMalformed);

    std::int64_t old_pages = static_cast<std::int64_t>(dst.pages.size());
    dst.fileKey = file_key;
    dst.pages.clear();
    // The reload drops every existing page; stale cache keys would
    // otherwise occupy capacity forever (and alias recreated pages).
    purgeCache(dst.id);
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t idx, pv;
        get64(idx);
        get64(pv);
        PageMeta meta;
        meta.version = pv;
        meta.initialized = body[pos++] != 0;
        std::memcpy(meta.iv.data(), body.data() + pos, meta.iv.size());
        pos += meta.iv.size();
        std::memcpy(meta.hash.data(), body.data() + pos,
                    meta.hash.size());
        pos += meta.hash.size();
        meta.state = PageState::Encrypted;
        meta.residentGpa = badAddr;
        dst.pages[idx] = meta;
    }
    accountPages(static_cast<std::int64_t>(count) - old_pages);
    // Advance the rollback floor: once a bundle of this version has
    // been accepted, anything older is a replay — even in a store that
    // never sealed this file key itself (fresh boot).
    raiseSealFloor(file_key, version);
    stats_.inc(metadataStat("unseals"));
    return {};
}

std::uint64_t
MetadataStore::lastSealedVersion(std::uint64_t file_key) const
{
    auto it = sealVersions_.find(file_key);
    return it == sealVersions_.end() ? 0 : it->second;
}

void
MetadataStore::importSealVersions(
    const std::map<std::uint64_t, std::uint64_t>& floors)
{
    for (const auto& [file_key, version] : floors)
        raiseSealFloor(file_key, version);
}

void
MetadataStore::raiseSealFloor(std::uint64_t file_key, std::uint64_t version)
{
    std::uint64_t& floor_version = sealVersions_[file_key];
    floor_version = std::max(floor_version, version);
}

void
MetadataStore::reserveIds(ResourceId min_next)
{
    nextId_ = std::max(nextId_, min_next);
}

} // namespace osh::cloak
