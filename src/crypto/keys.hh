/**
 * @file
 * VMM key management.
 *
 * The VMM holds a single master secret (in a real deployment, sealed by
 * the platform; here derived from the simulation seed). Every cloaked
 * resource gets its own AES key and metadata-sealing key, derived from
 * the master via HMAC so that compromise of one resource key reveals
 * nothing about the others, and persisted metadata can be bound to its
 * resource identity.
 *
 * Everything expensive is derived once and cached: the expanded AES key
 * schedule and the HMAC ipad/opad midstates for both the master (key
 * derivation) and each sealing key (metadata MACs). Hot paths never
 * re-run a key schedule or pad hash.
 *
 * One map holds each resource's cipher and sealing key. The fault hot
 * path does not even take its lock: resources resolve a KeyHandle once
 * at cloak-attach and use its cached pointers from then on.
 */

#ifndef OSH_CRYPTO_KEYS_HH
#define OSH_CRYPTO_KEYS_HH

#include "base/types.hh"
#include "crypto/aes.hh"
#include "crypto/hmac.hh"
#include "crypto/sha256.hh"

#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace osh::crypto
{

class KeyManager;

/**
 * An opaque, pre-resolved reference to one resource's key material.
 *
 * Acquired once (at cloak-attach / resource creation) and carried in
 * the resource, it pins the expanded AES schedule and the prepared
 * sealing-HMAC midstate, so page faults and seal operations never
 * repeat a map lookup. Handles stay valid for the KeyManager's
 * lifetime (the key map is node-stable).
 */
class KeyHandle
{
  public:
    KeyHandle() = default;

    bool valid() const { return cipher_ != nullptr; }
    ResourceId keyId() const { return keyId_; }

    const Aes128&
    cipher() const
    {
        return *cipher_;
    }

    const HmacKey&
    sealingHmac() const
    {
        return *sealingHmac_;
    }

  private:
    friend class KeyManager;

    const Aes128* cipher_ = nullptr;
    const HmacKey* sealingHmac_ = nullptr;
    ResourceId keyId_ = 0;
};

/** Derives and caches per-resource keys from the VMM master secret. */
class KeyManager
{
  public:
    /** @param master_seed Deterministic seed for the master secret. */
    explicit KeyManager(std::uint64_t master_seed);

    /**
     * Resolve (deriving and caching as needed) the full key material
     * of a resource into a handle. Called once per resource at
     * cloak-attach; everything downstream uses the handle.
     */
    KeyHandle acquire(ResourceId resource);

    /**
     * The 256-bit key that MACs a migration image or pre-copy stream
     * identified by @p nonce. Two KeyManagers seeded with the same
     * master secret (the paper's trusted VMM-to-VMM channel; here, the
     * shared simulation seed) derive the same key, so the target can
     * verify every record the source chained under it.
     */
    Digest migrationKey(std::uint64_t nonce) const;

    /** Number of distinct resources whose keys were derived so far. */
    std::size_t derivedKeyCount() const;

  private:
    /** One resource's derived key material. */
    struct Keys
    {
        Aes128 cipher;
        HmacKey sealingHmac;
    };

    AesKey deriveAesKey(ResourceId resource) const;
    Digest deriveSealingKey(ResourceId resource) const;

    Digest master_;
    HmacKey masterHmac_;

    /** Resource id -> key material. Node-stable: rehashing never moves
     *  elements, so handle pointers survive. */
    mutable std::mutex lock_;
    std::unordered_map<ResourceId, Keys> keys_;
};

} // namespace osh::crypto

#endif // OSH_CRYPTO_KEYS_HH
