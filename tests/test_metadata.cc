/**
 * @file
 * Unit tests for the protection-metadata store: page metadata, resource
 * cloning, the cache cost model, and sealed-bundle persistence
 * (MAC verification, identity binding, rollback refusal).
 */

#include "cloak/metadata.hh"
#include "crypto/hmac.hh"
#include "crypto/sha256.hh"
#include "mutate.hh"
#include "sim/cost_model.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <list>
#include <map>
#include <random>
#include <utility>
#include <vector>

namespace osh::cloak
{
namespace
{

crypto::Digest
ident(const char* s)
{
    return crypto::Sha256::hash(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s), std::strlen(s)));
}

class MetadataTest : public ::testing::Test
{
  protected:
    MetadataTest() : cost_(), store_(cost_, 4) {}

    sim::CostModel cost_;
    MetadataStore store_;
};

TEST_F(MetadataTest, ResourceLifecycle)
{
    Resource& r = store_.createResource(3);
    EXPECT_EQ(r.domain, 3u);
    EXPECT_EQ(r.keyId, r.id);
    EXPECT_TRUE(store_.lookup(r.id).ok());
    EXPECT_EQ(store_.lookup(r.id).value(), &r);
    ResourceId id = r.id;
    store_.destroyResource(id);
    auto gone = store_.lookup(id);
    ASSERT_FALSE(gone.ok());
    EXPECT_EQ(gone.error(), CloakError::UnknownResource);
}

TEST_F(MetadataTest, PageMetaDefaults)
{
    Resource& r = store_.createResource(1);
    PageMeta& m = store_.page(r, 7);
    EXPECT_FALSE(m.initialized);
    EXPECT_EQ(m.version, 0u);
    m.initialized = true;
    m.version = 3;
    EXPECT_EQ(store_.page(r, 7).version, 3u);
}

TEST_F(MetadataTest, CloneAliasesKeyAndCopiesPages)
{
    Resource& src = store_.createResource(1);
    PageMeta& m = store_.page(src, 0);
    m.initialized = true;
    m.version = 5;
    m.state = PageState::Encrypted;
    m.hash[0] = 0xaa;

    Resource& clone = store_.cloneResource(src, 2);
    EXPECT_EQ(clone.keyId, src.keyId);
    EXPECT_NE(clone.id, src.id);
    EXPECT_EQ(clone.domain, 2u);
    const PageMeta& cm = clone.pages.at(0);
    EXPECT_EQ(cm.version, 5u);
    EXPECT_EQ(cm.hash[0], 0xaa);
    EXPECT_EQ(cm.state, PageState::Encrypted);
    EXPECT_EQ(cm.residentGpa, badAddr);
}

TEST_F(MetadataTest, ClonePlaintextStateForcedEncrypted)
{
    Resource& src = store_.createResource(1);
    PageMeta& m = store_.page(src, 0);
    m.initialized = true;
    m.state = PageState::PlaintextDirty;
    m.residentGpa = 0x1000;
    Resource& clone = store_.cloneResource(src, 2);
    EXPECT_EQ(clone.pages.at(0).state, PageState::Encrypted);
}

TEST_F(MetadataTest, CacheChargesHitVsMiss)
{
    Resource& r = store_.createResource(1);
    // Creation is born hot: charged as a hit.
    store_.page(r, 0);
    EXPECT_EQ(cost_.stats().value("metadata_hit"), 1u);
    EXPECT_EQ(cost_.stats().value("metadata_miss"), 0u);

    // Push page 0 out of the 4-entry cache with other entries.
    for (std::uint64_t i = 1; i <= 5; ++i)
        store_.page(r, i);
    EXPECT_EQ(cost_.stats().value("metadata_miss"), 0u);

    // Re-touching the evicted (but existing) entry is a miss and costs
    // more than a subsequent hit.
    Cycles before = cost_.cycles();
    store_.page(r, 0);
    Cycles miss_cost = cost_.cycles() - before;
    before = cost_.cycles();
    store_.page(r, 0);
    Cycles hit_cost = cost_.cycles() - before;
    EXPECT_GT(miss_cost, hit_cost);
    EXPECT_EQ(cost_.stats().value("metadata_miss"), 1u);
}

TEST_F(MetadataTest, CacheLruEvicts)
{
    Resource& r = store_.createResource(1);
    // Capacity 4: touch 5 distinct pages, then the first again.
    for (std::uint64_t i = 0; i < 5; ++i)
        store_.page(r, i);
    std::uint64_t misses = cost_.stats().value("metadata_miss");
    store_.page(r, 0); // evicted -> miss again
    EXPECT_EQ(cost_.stats().value("metadata_miss"), misses + 1);
    store_.page(r, 4); // recent -> hit
    EXPECT_EQ(cost_.stats().value("metadata_miss"), misses + 1);
}

TEST_F(MetadataTest, CapacityChangeShrinksCache)
{
    Resource& r = store_.createResource(1);
    for (std::uint64_t i = 0; i < 4; ++i)
        store_.page(r, i);
    store_.setCacheCapacity(1);
    std::uint64_t misses = cost_.stats().value("metadata_miss");
    store_.page(r, 0); // must have been evicted
    EXPECT_GT(cost_.stats().value("metadata_miss"), misses);
}

class SealTest : public MetadataTest
{
  protected:
    SealTest() : key_(keyBytes()), owner_(ident("prog-a")) {}

    /** Raw bytes of the fixture's sealing key. */
    static crypto::Digest
    keyBytes()
    {
        crypto::Digest k;
        k.fill(0x42);
        return k;
    }

    Resource&
    makeFileResource(std::uint64_t file_key = 77)
    {
        Resource& r = store_.createResource(1, true, file_key);
        PageMeta& m = store_.page(r, 0);
        m.initialized = true;
        m.version = 2;
        m.state = PageState::Encrypted;
        m.iv[3] = 9;
        m.hash[5] = 0x77;
        PageMeta& m1 = store_.page(r, 3);
        m1.initialized = true;
        m1.version = 1;
        return r;
    }

    /** @p body under a fresh MAC: a bundle only the key holder could
     *  forge, so every check past the MAC sees it. */
    std::vector<std::uint8_t>
    reMac(std::vector<std::uint8_t> body) const
    {
        crypto::Digest mac = crypto::hmacSha256(key_, body);
        body.insert(body.end(), mac.begin(), mac.end());
        return body;
    }

    const crypto::HmacKey key_;
    const crypto::Digest owner_;
};

// The fixture's bundle: a 56-byte header (file key, version, owner
// identity, page count), then 65 bytes per page (index, version,
// initialized flag, IV, hash), then the 32-byte MAC.
constexpr std::size_t firstPageAt = 56;
constexpr std::size_t pageRecordSize = 65;
constexpr std::size_t macSize = 32;

TEST_F(SealTest, SealUnsealRoundTrip)
{
    Resource& src = makeFileResource();
    auto bundle = store_.seal(src, key_, owner_);

    Resource& dst = store_.createResource(2, true, 77);
    ASSERT_TRUE(store_.unseal(bundle, key_, owner_, dst).ok());
    EXPECT_EQ(dst.pages.size(), 2u);
    EXPECT_EQ(dst.pages.at(0).version, 2u);
    EXPECT_EQ(dst.pages.at(0).iv[3], 9);
    EXPECT_EQ(dst.pages.at(0).hash[5], 0x77);
    EXPECT_EQ(dst.pages.at(3).version, 1u);
    EXPECT_EQ(dst.pages.at(0).state, PageState::Encrypted);
}

TEST_F(SealTest, TamperedBundleRejected)
{
    Resource& src = makeFileResource();
    auto bundle = store_.seal(src, key_, owner_);
    Resource& dst = store_.createResource(2, true, 77);
    for (std::size_t pos : {0u, 20u, 60u}) {
        auto bad = bundle;
        bad[pos % bad.size()] ^= 1;
        auto r = store_.unseal(bad, key_, owner_, dst);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error(), CloakError::SealBadMac);
    }
    // MAC truncation: the (shorter) body no longer matches the MAC.
    auto shorter = bundle;
    shorter.pop_back();
    auto trunc = store_.unseal(shorter, key_, owner_, dst);
    ASSERT_FALSE(trunc.ok());
    EXPECT_EQ(trunc.error(), CloakError::SealBadMac);
    // Empty bundle: structurally invalid before any MAC exists.
    auto empty = store_.unseal({}, key_, owner_, dst);
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.error(), CloakError::SealMalformed);
}

TEST_F(SealTest, WrongKeyRejected)
{
    Resource& src = makeFileResource();
    auto bundle = store_.seal(src, key_, owner_);
    crypto::Digest other_key = keyBytes();
    other_key[0] ^= 1;
    Resource& dst = store_.createResource(2, true, 77);
    auto r = store_.unseal(bundle, crypto::HmacKey(other_key), owner_, dst);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), CloakError::SealBadMac);
}

TEST_F(SealTest, WrongIdentityRejected)
{
    Resource& src = makeFileResource();
    auto bundle = store_.seal(src, key_, owner_);
    Resource& dst = store_.createResource(2, true, 77);
    auto r = store_.unseal(bundle, key_, ident("prog-b"), dst);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), CloakError::SealBadIdentity);
}

TEST_F(SealTest, RollbackRejected)
{
    Resource& src = makeFileResource();
    auto v1 = store_.seal(src, key_, owner_); // version 1
    auto v2 = store_.seal(src, key_, owner_); // version 2

    Resource& dst = store_.createResource(2, true, 77);
    // The newest bundle imports fine.
    EXPECT_TRUE(store_.unseal(v2, key_, owner_, dst).ok());
    // Replaying the older bundle is refused with the typed cause.
    auto r = store_.unseal(v1, key_, owner_, dst);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), CloakError::SealRollback);
    EXPECT_EQ(store_.stats().value("unseal_rollback"), 1u);
    EXPECT_EQ(store_.lastSealedVersion(77), 2u);
}

TEST_F(SealTest, UnsealAdvancesRollbackFloor)
{
    Resource& src = makeFileResource();
    auto v1 = store_.seal(src, key_, owner_); // version 1
    auto v2 = store_.seal(src, key_, owner_); // version 2

    // A *fresh* store (a rebooted VMM) has never sealed file key 77,
    // so its floor starts at zero. Accepting the v2 bundle must raise
    // the floor so a later replay of v1 is refused — otherwise an
    // attacker could feed bundles oldest-last across reboots.
    sim::CostModel cost2;
    MetadataStore store2(cost2, 4);
    Resource& dst = store2.createResource(2, true, 77);
    ASSERT_TRUE(store2.unseal(v2, key_, owner_, dst).ok());
    EXPECT_EQ(store2.lastSealedVersion(77), 2u);

    Resource& dst2 = store2.createResource(3, true, 77);
    EXPECT_FALSE(store2.unseal(v1, key_, owner_, dst2).ok());
    EXPECT_EQ(store2.stats().value("unseal_rollback"), 1u);

    // Re-importing the same (newest) version stays legal.
    Resource& dst3 = store2.createResource(4, true, 77);
    EXPECT_TRUE(store2.unseal(v2, key_, owner_, dst3).ok());
}

TEST_F(SealTest, SealAfterUnsealContinuesVersionChain)
{
    Resource& src = makeFileResource();
    auto v1 = store_.seal(src, key_, owner_); // version 1

    // Import into a fresh store, then seal there: the new bundle must
    // be version 2, not version 1 again.
    sim::CostModel cost2;
    MetadataStore store2(cost2, 4);
    Resource& dst = store2.createResource(2, true, 77);
    ASSERT_TRUE(store2.unseal(v1, key_, owner_, dst).ok());
    store2.seal(dst, key_, owner_);
    EXPECT_EQ(store2.lastSealedVersion(77), 2u);

    // The original v1 bundle is now stale for store2.
    Resource& dst2 = store2.createResource(3, true, 77);
    EXPECT_FALSE(store2.unseal(v1, key_, owner_, dst2).ok());
}

TEST_F(SealTest, DistinctFileKeysVersionIndependently)
{
    Resource& a = makeFileResource(100);
    Resource& b = makeFileResource(200);
    store_.seal(a, key_, owner_);
    store_.seal(a, key_, owner_);
    auto bundle_b = store_.seal(b, key_, owner_);
    // b's first seal is version 1 for key 200 and imports fine even
    // though key 100 is at version 2.
    Resource& dst = store_.createResource(2, true, 200);
    EXPECT_TRUE(store_.unseal(bundle_b, key_, owner_, dst).ok());
}

TEST_F(SealTest, FirstSealNamesTheOwner)
{
    // A key no seal has named is free to anyone; the first seal makes
    // its identity the owner, and every later decision reads that.
    Resource& src = makeFileResource();
    const crypto::Digest other = ident("prog-b");
    EXPECT_TRUE(store_.mayWrite(77, other));
    EXPECT_TRUE(store_.missingBundle(77).ok()); // A new, empty file.

    auto bundle = store_.seal(src, key_, owner_);
    EXPECT_TRUE(store_.mayWrite(77, owner_));
    EXPECT_FALSE(store_.mayWrite(77, other));
    // No bundle under a floor: the kernel lost it.
    auto missing = store_.missingBundle(77);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error(), CloakError::SealMissing);
    // Another identity's bundle for an owned key is refused even under
    // a valid MAC.
    PayloadWriter body;
    body.u64(77);
    body.u64(9);
    body.bytes(other);
    body.u64(0);
    Resource& dst = store_.createResource(2, true, 77);
    auto r = store_.unseal(reMac(body.take()), key_, other, dst);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), CloakError::SealBadIdentity);
    EXPECT_TRUE(store_.unseal(bundle, key_, owner_, dst).ok());
}

TEST_F(SealTest, FloorsTravelOnlyWithTheirOwner)
{
    store_.seal(makeFileResource(100), key_, owner_);
    store_.seal(makeFileResource(200), key_, ident("prog-b"));
    using Floors = std::map<std::uint64_t, std::uint64_t>;
    EXPECT_EQ(store_.floorsOwnedBy(owner_), (Floors{{100, 1}}));

    // An import raises its owner's floors and claims free keys, but
    // never lowers a floor or takes another owner's key.
    store_.importFloors({{100, 4}, {200, 9}, {300, 2}}, owner_);
    store_.importFloors({{100, 3}}, owner_);
    EXPECT_EQ(store_.floorsOwnedBy(owner_), (Floors{{100, 4}, {300, 2}}));
    EXPECT_EQ(store_.floorsOwnedBy(ident("prog-b")), (Floors{{200, 1}}));
}

TEST_F(SealTest, SplicedPageCountRejected)
{
    Resource& src = makeFileResource();
    auto bundle = store_.seal(src, key_, owner_);
    // Chop a page record out (keeping the MAC): must fail the MAC.
    auto bad = bundle;
    bad.erase(bad.begin() + 60, bad.begin() + 60 + 65);
    Resource& dst = store_.createResource(2, true, 77);
    EXPECT_FALSE(store_.unseal(bad, key_, owner_, dst).ok());
}

TEST_F(SealTest, ReMacedFlagOtherThanZeroOrOneRejected)
{
    Resource& src = makeFileResource();
    auto bundle = store_.seal(src, key_, owner_);
    std::vector<std::uint8_t> body(bundle.begin(), bundle.end() - macSize);
    ASSERT_EQ(body[firstPageAt + 16], 1); // Page 0's initialized flag.
    body[firstPageAt + 16] = 2;

    Resource& dst = store_.createResource(2, true, 77);
    auto r = store_.unseal(reMac(body), key_, owner_, dst);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), CloakError::SealMalformed);
    EXPECT_TRUE(dst.pages.empty());
}

TEST_F(SealTest, ReMacedRepeatedOrDescendingPageIndexRejected)
{
    Resource& src = makeFileResource(); // Pages 0 and 3.
    auto bundle = store_.seal(src, key_, owner_);
    std::vector<std::uint8_t> body(bundle.begin(), bundle.end() - macSize);
    // The second page's index, 3, becomes 0 (repeated), then the first
    // page's index becomes 5 (descending).
    for (auto [at, index] : {std::pair{firstPageAt + pageRecordSize, 0},
                             std::pair{firstPageAt, 5}}) {
        std::vector<std::uint8_t> bad = body;
        bad[at] = static_cast<std::uint8_t>(index);
        Resource& dst = store_.createResource(2, true, 77);
        auto r = store_.unseal(reMac(bad), key_, owner_, dst);
        ASSERT_FALSE(r.ok()) << "index " << index;
        EXPECT_EQ(r.error(), CloakError::SealMalformed);
        EXPECT_TRUE(dst.pages.empty());
    }
}

TEST_F(SealTest, EveryReMacedMutationIsRefusedOrReEncodesExactly)
{
    Resource& src = makeFileResource();
    auto bundle = store_.seal(src, key_, owner_);
    const std::vector<std::uint8_t> body(bundle.begin(),
                                         bundle.end() - macSize);
    std::size_t accepted = 0, refused = 0;
    test::forEachMutant(body, [&](const std::vector<std::uint8_t>& m) {
        // A fresh store per mutant: no rollback floor carries over.
        sim::CostModel cost;
        MetadataStore store(cost, 4);
        Resource& dst = store.createResource(2, true, 0);
        auto r = store.unseal(reMac(m), key_, owner_, dst);
        if (!r.ok()) {
            ASSERT_NE(r.error(), CloakError::SealBadMac);
            ASSERT_TRUE(dst.pages.empty());
            ASSERT_EQ(dst.fileKey, 0u);
            ++refused;
            return;
        }
        // What the store accepted, encoded again: the same bytes.
        PayloadWriter again;
        again.u64(dst.fileKey);
        again.u64(store.lastSealedVersion(dst.fileKey));
        again.bytes(owner_);
        encodePageMetas(again, dst.pages);
        ASSERT_TRUE(std::ranges::equal(again.view(), m));
        ++accepted;
    });
    // Accepted: any flip of the file key or bundle version, and per
    // page of its version, IV and hash, and the flag's 1 -> 0; page 0's
    // index may become 1 or 2 (still below 3), and every flip of page
    // 3's index stays above 0. Refused: every identity and count flip,
    // the other flag flips and every cut.
    EXPECT_EQ(accepted, 2 * 64 + 2 * (64 + 1 + 128 + 256) + 2 + 64);
    EXPECT_EQ(accepted + refused, body.size() * 9);
}

TEST(PageMetaCodec, EveryMutationIsRefusedOrReEncodesExactly)
{
    std::map<std::uint64_t, PageMeta> pages;
    for (std::uint64_t idx : {0ull, 3ull, 1ull << 40}) {
        PageMeta& meta = pages[idx];
        meta.version = idx + 1;
        meta.initialized = idx != 3;
        meta.iv.fill(static_cast<std::uint8_t>(idx + 7));
        meta.hash.fill(0x5a);
    }
    PayloadWriter w;
    encodePageMetas(w, pages);
    const std::vector<std::uint8_t> bytes(w.view().begin(),
                                          w.view().end());
    {
        PayloadReader in(bytes);
        std::map<std::uint64_t, PageMeta> back;
        decodePageMetas(in, back);
        ASSERT_TRUE(in.done());
        ASSERT_EQ(back.size(), 3u);
        EXPECT_EQ(back.at(1ull << 40).version, (1ull << 40) + 1);
        EXPECT_FALSE(back.at(3).initialized);
    }
    std::size_t accepted = 0;
    test::forEachMutant(bytes, [&](const std::vector<std::uint8_t>& m) {
        PayloadReader in(m);
        std::map<std::uint64_t, PageMeta> got;
        decodePageMetas(in, got);
        if (!in.done())
            return;
        PayloadWriter again;
        encodePageMetas(again, got);
        ASSERT_TRUE(std::ranges::equal(again.view(), m));
        ++accepted;
    });
    EXPECT_GT(accepted, 0u);
}

TEST(PageMetaCodec, CountBeyondTheBytesFailsBeforeDecoding)
{
    // A count of 2^64 - 1 over one record's worth of bytes: refused on
    // the count, with nothing decoded.
    PayloadWriter w;
    w.u64(~0ull);
    w.bytes(std::vector<std::uint8_t>(65, 0));
    PayloadReader in(w.view());
    std::map<std::uint64_t, PageMeta> pages;
    decodePageMetas(in, pages);
    EXPECT_FALSE(in.ok());
    EXPECT_TRUE(pages.empty());
}

// ---------------------------------------------------------------------------
// LRU consistency regressions
// ---------------------------------------------------------------------------

TEST_F(MetadataTest, DestroyPurgesCachedKeys)
{
    // Regression: destroyResource left the resource's CacheKeys in the
    // LRU, permanently occupying cache capacity.
    Resource& a = store_.createResource(1);
    for (std::uint64_t i = 0; i < 4; ++i)
        store_.page(a, i);
    ASSERT_EQ(store_.cacheSize(), 4u);
    ResourceId id = a.id;
    store_.destroyResource(id);
    EXPECT_EQ(store_.cacheSize(), 0u);
    EXPECT_EQ(store_.lruLength(), 0u);
}

TEST_F(MetadataTest, FreshPageWithCachedKeyDoesNotDuplicateLruNode)
{
    // Regression: recreating page metadata whose CacheKey was still
    // cached pushed a duplicate LRU node, orphaning the old one; a
    // later eviction of the orphan erased the *live* index entry.
    Resource& a = store_.createResource(1);
    store_.page(a, 0);
    a.pages.clear(); // Metadata reload (the unseal path does this).
    store_.page(a, 0);
    EXPECT_EQ(store_.lruLength(), store_.cacheSize());

    // Fill to capacity and roll the cache over; the index and list must
    // stay in lockstep throughout.
    for (std::uint64_t i = 1; i < 12; ++i)
        store_.page(a, i);
    EXPECT_EQ(store_.lruLength(), store_.cacheSize());
    EXPECT_LE(store_.cacheSize(), 4u);
}

TEST_F(SealTest, UnsealPurgesStaleCachedKeys)
{
    Resource& src = makeFileResource();
    auto bundle = store_.seal(src, key_, owner_);

    Resource& dst = store_.createResource(2, true, 77);
    store_.page(dst, 0); // Pre-unseal metadata occupies the cache.
    store_.page(dst, 9);
    ASSERT_TRUE(store_.cached(dst.id, 9));
    ASSERT_TRUE(store_.unseal(bundle, key_, owner_, dst).ok());
    // The reload dropped every page; its cache keys must go with it
    // (page 9 is not even in the bundle).
    EXPECT_FALSE(store_.cached(dst.id, 0));
    EXPECT_FALSE(store_.cached(dst.id, 9));
    EXPECT_EQ(store_.lruLength(), store_.cacheSize());
}

// ---------------------------------------------------------------------------
// The cache model against a naive LRU
// ---------------------------------------------------------------------------

/** A plain list LRU over (resource, page): what the cache must match. */
class NaiveLru
{
  public:
    explicit NaiveLru(std::size_t capacity) : capacity_(capacity) {}

    /** Move the key to the front (inserting it); true if it was there. */
    bool
    touch(ResourceId res, std::uint64_t page)
    {
        auto it = std::find(keys_.begin(), keys_.end(), Key{res, page});
        bool hit = it != keys_.end();
        if (hit)
            keys_.erase(it);
        keys_.push_front({res, page});
        trim();
        return hit;
    }

    void
    purge(ResourceId res)
    {
        keys_.remove_if([res](const Key& k) { return k.first == res; });
    }

    void
    setCapacity(std::size_t capacity)
    {
        capacity_ = capacity;
        trim();
    }

    std::size_t size() const { return keys_.size(); }

    using Key = std::pair<ResourceId, std::uint64_t>;
    const std::list<Key>& keys() const { return keys_; }

  private:
    void
    trim()
    {
        while (keys_.size() > capacity_)
            keys_.pop_back();
    }

    std::size_t capacity_;
    std::list<Key> keys_;
};

TEST(MetadataStore, MatchesNaiveLruModel)
{
    // Random page lookups, re-touches of recent keys, resource
    // destruction, page reloads and capacity changes. Every lookup must
    // hit or miss as the model does, and the cache must hold exactly
    // the model's keys. Page ranges put several times the capacity in
    // play, so the cache evicts throughout.
    for (std::size_t capacity : {1u, 4u, 1024u}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(testing::Message()
                         << "capacity " << capacity << " seed " << seed);
            std::mt19937_64 rng(seed * 7919 + capacity);
            auto pick = [&rng](std::uint64_t n) { return rng() % n; };
            const std::uint64_t pages = 3 * capacity + 4;
            const int steps = capacity > 100 ? 12000 : 3000;

            sim::CostModel cost;
            MetadataStore store(cost, capacity);
            NaiveLru model(capacity);
            std::vector<Resource*> live;
            for (int i = 0; i < 3; ++i)
                live.push_back(&store.createResource(1));
            std::vector<NaiveLru::Key> recent;

            auto lookup = [&](Resource& r, std::uint64_t page, int step) {
                // A page created by this lookup is born hot: a hit.
                bool fresh = !r.pages.contains(page);
                bool hit = model.touch(r.id, page) || fresh;
                std::uint64_t misses = cost.stats().value("metadata_miss");
                store.page(r, page);
                ASSERT_EQ(cost.stats().value("metadata_miss") - misses,
                          hit ? 0u : 1u)
                    << "step " << step << " page " << page;
                recent.push_back({r.id, page});
                if (recent.size() > 8)
                    recent.erase(recent.begin());
            };

            for (int step = 0; step < steps; ++step) {
                std::uint64_t op = pick(100);
                if (op < 60) {
                    lookup(*live[pick(live.size())], pick(pages), step);
                } else if (op < 85 && !recent.empty()) {
                    auto [id, page] = recent[pick(recent.size())];
                    for (Resource* r : live)
                        if (r->id == id)
                            lookup(*r, page, step);
                } else if (op < 92) {
                    std::size_t i = pick(live.size());
                    ResourceId id = live[i]->id;
                    store.destroyResource(id);
                    model.purge(id);
                    live[i] = &store.createResource(1);
                } else if (op < 98) {
                    Resource& r = *live[pick(live.size())];
                    std::map<std::uint64_t, PageMeta> reload;
                    for (int n = 0; n < 3; ++n)
                        reload[pick(pages)] = PageMeta{};
                    store.replacePages(r, std::move(reload));
                    model.purge(r.id);
                } else {
                    const std::size_t sizes[] = {1, capacity,
                                                 capacity / 2 + 1,
                                                 2 * capacity};
                    std::size_t c = sizes[pick(4)];
                    store.setCacheCapacity(c);
                    model.setCapacity(c);
                }
                if (HasFatalFailure())
                    return;
                ASSERT_EQ(store.cacheSize(), model.size()) << "step " << step;
                ASSERT_EQ(store.lruLength(), model.size()) << "step " << step;
                if (step % 64 == 0) {
                    for (const auto& [id, page] : model.keys())
                        ASSERT_TRUE(store.cached(id, page))
                            << "step " << step << " page " << page;
                }
            }
        }
    }
}

} // namespace
} // namespace osh::cloak
