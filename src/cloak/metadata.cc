#include "cloak/metadata.hh"

#include "base/bytes.hh"
#include "base/logging.hh"
#include "crypto/hmac.hh"

#include <algorithm>

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

/** Encoded bytes of one page: index, version, flag, IV, hash. */
constexpr std::size_t pageRecordBytes = 8 + 8 + 1 + 16 + 32;
} // namespace

// ---------------------------------------------------------------------------
// The page-metadata codec
// ---------------------------------------------------------------------------

void
encodePageMetas(PayloadWriter& out,
                const std::map<std::uint64_t, PageMeta>& pages)
{
    out.u64(pages.size());
    for (const auto& [idx, meta] : pages) {
        out.u64(idx);
        out.u64(meta.version);
        out.flag(meta.initialized);
        out.bytes(meta.iv);
        out.bytes(meta.hash);
    }
}

void
decodePageMetas(PayloadReader& in, std::map<std::uint64_t, PageMeta>& pages)
{
    pages.clear();
    std::uint64_t count = in.u64();
    // A count the remaining bytes cannot hold fails before the loop.
    if (count > in.remaining() / pageRecordBytes)
        in.fail();
    for (std::uint64_t i = 0; i < count && in.ok(); ++i) {
        std::uint64_t idx = in.u64();
        PageMeta meta;
        meta.version = in.u64();
        meta.initialized = in.flag();
        in.bytes(meta.iv);
        in.bytes(meta.hash);
        if (!pages.empty() && idx <= pages.rbegin()->first)
            in.fail();
        if (in.ok())
            pages.emplace_hint(pages.end(), idx, meta);
    }
}

// ---------------------------------------------------------------------------
// MetadataCache
// ---------------------------------------------------------------------------

MetadataCache::MetadataCache(std::size_t capacity)
{
    setCapacity(capacity);
}

std::size_t
MetadataCache::keyHome(ResourceId res, std::uint64_t page) const
{
    std::uint64_t h = (res * 0x9e3779b97f4a7c15ull) ^ page;
    h = (h ^ (h >> 31)) * 0xd6e8feb86659fd93ull;
    return static_cast<std::size_t>(h ^ (h >> 32)) & mask_;
}

std::size_t
MetadataCache::resHome(ResourceId res) const
{
    std::uint64_t h = res * 0xd6e8feb86659fd93ull;
    return static_cast<std::size_t>(h ^ (h >> 32)) & mask_;
}

std::size_t
MetadataCache::keyPos(ResourceId res, std::uint64_t page) const
{
    std::size_t pos = keyHome(res, page);
    for (std::uint32_t s; (s = keyTable_[pos]) != none;
         pos = (pos + 1) & mask_) {
        if (slots_[s].res == res && slots_[s].page == page)
            break;
    }
    return pos;
}

std::size_t
MetadataCache::resPos(ResourceId res) const
{
    std::size_t pos = resHome(res);
    while (resTable_[pos] != none && slots_[resTable_[pos]].res != res)
        pos = (pos + 1) & mask_;
    return pos;
}

template <typename Home>
void
MetadataCache::erase(std::vector<std::uint32_t>& table, std::size_t pos,
                     Home home)
{
    // An entry further along the run moves into the hole unless its
    // home lies cyclically after the hole.
    std::size_t hole = pos;
    for (std::size_t i = (pos + 1) & mask_; table[i] != none;
         i = (i + 1) & mask_) {
        if (((i - home(table[i])) & mask_) >= ((i - hole) & mask_)) {
            table[hole] = table[i];
            hole = i;
        }
    }
    table[hole] = none;
}

void
MetadataCache::unlinkLru(std::uint32_t s)
{
    Slot& e = slots_[s];
    (e.newer == none ? mru_ : slots_[e.newer].older) = e.older;
    (e.older == none ? lru_ : slots_[e.older].newer) = e.newer;
}

void
MetadataCache::pushFront(std::uint32_t s)
{
    Slot& e = slots_[s];
    e.newer = none;
    e.older = mru_;
    (mru_ == none ? lru_ : slots_[mru_].newer) = s;
    mru_ = s;
}

void
MetadataCache::drop(std::uint32_t s)
{
    Slot& e = slots_[s];
    unlinkLru(s);
    erase(keyTable_, keyPos(e.res, e.page), [this](std::uint32_t t) {
        return keyHome(slots_[t].res, slots_[t].page);
    });
    if (e.nextOfRes != none)
        slots_[e.nextOfRes].prevOfRes = e.prevOfRes;
    if (e.prevOfRes != none) {
        slots_[e.prevOfRes].nextOfRes = e.nextOfRes;
    } else {
        // The chain's head: its entry names the next slot, or goes.
        std::size_t pos = resPos(e.res);
        if (e.nextOfRes != none)
            resTable_[pos] = e.nextOfRes;
        else
            erase(resTable_, pos, [this](std::uint32_t t) {
                return resHome(slots_[t].res);
            });
    }
    e.older = free_;
    free_ = s;
    --size_;
}

bool
MetadataCache::touch(ResourceId res, std::uint64_t page)
{
    std::size_t pos = keyPos(res, page);
    if (std::uint32_t s = keyTable_[pos]; s != none) {
        if (s != mru_) {
            unlinkLru(s);
            pushFront(s);
        }
        return true;
    }
    if (free_ == none) {
        drop(lru_);
        pos = keyPos(res, page); // the drop may have shifted entries
    }
    std::uint32_t s = free_;
    Slot& e = slots_[s];
    free_ = e.older;
    e.res = res;
    e.page = page;
    pushFront(s);
    keyTable_[pos] = s;
    std::size_t head = resPos(res);
    e.prevOfRes = none;
    e.nextOfRes = resTable_[head];
    if (e.nextOfRes != none)
        slots_[e.nextOfRes].prevOfRes = s;
    resTable_[head] = s;
    ++size_;
    return false;
}

void
MetadataCache::purge(ResourceId res)
{
    std::uint32_t s = resTable_[resPos(res)];
    while (s != none) {
        std::uint32_t next = slots_[s].nextOfRes;
        drop(s);
        s = next;
    }
}

void
MetadataCache::setCapacity(std::size_t capacity)
{
    osh_assert(capacity > 0 && capacity < none / 2,
               "metadata cache needs capacity");
    // The keys that stay, least recently used first.
    std::vector<std::pair<ResourceId, std::uint64_t>> keep;
    for (std::uint32_t s = mru_; s != none && keep.size() < capacity;
         s = slots_[s].older)
        keep.emplace_back(slots_[s].res, slots_[s].page);

    std::size_t table = 2;
    while (table < 2 * capacity)
        table *= 2;
    mask_ = table - 1;
    keyTable_.assign(table, none);
    resTable_.assign(table, none);
    slots_.assign(capacity, Slot{});
    for (std::uint32_t s = 0; s < capacity; ++s)
        slots_[s].older = s + 1 < capacity ? s + 1 : none;
    free_ = 0;
    mru_ = lru_ = none;
    size_ = 0;
    for (auto it = keep.rbegin(); it != keep.rend(); ++it)
        touch(it->first, it->second);
}

std::size_t
MetadataCache::lruLength() const
{
    std::size_t n = 0;
    for (std::uint32_t s = mru_; s != none; s = slots_[s].older)
        ++n;
    return n;
}

bool
MetadataCache::contains(ResourceId res, std::uint64_t page) const
{
    return keyTable_[keyPos(res, page)] != none;
}

// ---------------------------------------------------------------------------
// MetadataStore
// ---------------------------------------------------------------------------

MetadataStore::MetadataStore(sim::CostModel& cost,
                             std::size_t cache_capacity)
    : cost_(cost), cache_(cache_capacity),
      stats_("metadata", metadataStat.names)
{
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
    cache_.purge(id);
    auto it = resources_.find(id);
    if (it != resources_.end()) {
        auto pages = static_cast<std::int64_t>(it->second.pages.size());
        resources_.erase(it);
        accountPages(-pages);
    }
    stats_.inc(metadataStat("resources_destroyed"));
}

void
MetadataStore::replacePages(Resource& res,
                            std::map<std::uint64_t, PageMeta> pages)
{
    // Stale cache keys would otherwise occupy capacity forever (and
    // alias recreated pages).
    cache_.purge(res.id);
    auto delta = static_cast<std::int64_t>(pages.size()) -
                 static_cast<std::int64_t>(res.pages.size());
    res.pages = std::move(pages);
    accountPages(delta);
}

PageMeta&
MetadataStore::page(Resource& res, std::uint64_t page_index)
{
    // Constant-cost mode: a hit priced below a miss tells the kernel
    // which (resource, page) pairs were touched recently.
    auto charge_hit = [this] {
        cost_.charge(constantCostLookups_ ? cost_.params().metadataMiss
                                          : cost_.params().metadataHit,
                     "metadata_hit");
    };
    auto it = res.pages.find(page_index);
    if (it == res.pages.end()) {
        // Freshly created metadata is born hot in the cache: there is
        // nothing to fetch or verify. The key can already be cached
        // when the page was destroyed and recreated (a metadata
        // reload); touch() then moves it instead of adding a second.
        charge_hit();
        cache_.touch(res.id, page_index);
        accountPages(+1);
        return res.pages[page_index];
    }
    if (cache_.touch(res.id, page_index))
        charge_hit();
    else
        cost_.charge(cost_.params().metadataMiss, "metadata_miss");
    return it->second;
}

void
MetadataStore::setCacheCapacity(std::size_t capacity)
{
    cache_.setCapacity(capacity);
}

std::vector<std::uint8_t>
MetadataStore::seal(const Resource& res, const crypto::HmacKey& seal_key,
                    const crypto::Digest& owner_identity)
{
    PayloadWriter out;
    FileSeal& rec = fileSeals_[res.fileKey];
    rec.owner = owner_identity;
    out.u64(res.fileKey);
    out.u64(++rec.version);
    out.bytes(owner_identity);
    encodePageMetas(out, res.pages);
    out.bytes(crypto::hmacSha256(seal_key, out.view()));
    stats_.inc(metadataStat("seals"));
    return out.take();
}

Expected<void, CloakError>
MetadataStore::unseal(std::span<const std::uint8_t> bundle,
                      const crypto::HmacKey& seal_key,
                      const crypto::Digest& owner_identity, Resource& dst)
{
    // The floor is the header (file key, version, identity), an empty
    // page list and the MAC: below it there is no MAC to check.
    constexpr std::size_t mac_size = crypto::sha256DigestSize;
    if (bundle.size() < 8 + 8 + 32 + 8 + mac_size)
        return Error(CloakError::SealMalformed);

    std::span<const std::uint8_t> body =
        bundle.first(bundle.size() - mac_size);
    crypto::Digest expect = crypto::hmacSha256(seal_key, body);
    if (!constantTimeEqual(expect, bundle.last(mac_size))) {
        stats_.inc(metadataStat("unseal_bad_mac"));
        return Error(CloakError::SealBadMac);
    }

    PayloadReader in(body);
    std::uint64_t file_key = in.u64();
    std::uint64_t version = in.u64();
    crypto::Digest identity;
    in.bytes(identity);
    if (!constantTimeEqual(identity, owner_identity) ||
        !mayWrite(file_key, owner_identity)) {
        stats_.inc(metadataStat("unseal_bad_identity"));
        return Error(CloakError::SealBadIdentity);
    }

    // Rollback detection: refuse bundles older than the newest seal we
    // have witnessed for this file key.
    if (version < lastSealedVersion(file_key)) {
        stats_.inc(metadataStat("unseal_rollback"));
        return Error(CloakError::SealRollback);
    }

    std::map<std::uint64_t, PageMeta> pages;
    decodePageMetas(in, pages);
    if (!in.done())
        return Error(CloakError::SealMalformed);

    dst.fileKey = file_key;
    replacePages(dst, std::move(pages));
    // Advance the rollback floor: once a bundle of this version has
    // been accepted, anything older is a replay — even in a store that
    // never sealed this file key itself (fresh boot).
    importFloors({{file_key, version}}, owner_identity);
    stats_.inc(metadataStat("unseals"));
    return {};
}

Expected<void, CloakError>
MetadataStore::missingBundle(std::uint64_t file_key) const
{
    if (lastSealedVersion(file_key) != 0)
        return Error(CloakError::SealMissing);
    return {};
}

bool
MetadataStore::mayWrite(std::uint64_t file_key,
                        const crypto::Digest& identity) const
{
    auto it = fileSeals_.find(file_key);
    return it == fileSeals_.end() ||
           constantTimeEqual(it->second.owner, identity);
}

std::uint64_t
MetadataStore::lastSealedVersion(std::uint64_t file_key) const
{
    auto it = fileSeals_.find(file_key);
    return it == fileSeals_.end() ? 0 : it->second.version;
}

std::map<std::uint64_t, std::uint64_t>
MetadataStore::floorsOwnedBy(const crypto::Digest& owner) const
{
    std::map<std::uint64_t, std::uint64_t> floors;
    for (const auto& [file_key, rec] : fileSeals_) {
        if (constantTimeEqual(rec.owner, owner))
            floors.emplace(file_key, rec.version);
    }
    return floors;
}

void
MetadataStore::importFloors(
    const std::map<std::uint64_t, std::uint64_t>& floors,
    const crypto::Digest& owner)
{
    for (const auto& [file_key, version] : floors) {
        auto [it, fresh] =
            fileSeals_.try_emplace(file_key, FileSeal{version, owner});
        if (!fresh && constantTimeEqual(it->second.owner, owner))
            it->second.version = std::max(it->second.version, version);
    }
}

void
MetadataStore::reserveIds(ResourceId min_next)
{
    nextId_ = std::max(nextId_, min_next);
}

} // namespace osh::cloak
