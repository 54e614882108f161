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
 * Key material lives exactly as long as some resource uses it: every
 * KeyHandle shares ownership of its resource's cipher and sealing key,
 * and the KeyManager's map only watches them, dropping an entry when
 * its last handle dies. The fault hot path never touches the map:
 * resources resolve a KeyHandle once at cloak-attach and use it from
 * then on. Like the rest of the VMM's state, the map is only touched
 * from the one host thread that runs the simulation.
 */

#ifndef OSH_CRYPTO_KEYS_HH
#define OSH_CRYPTO_KEYS_HH

#include "base/types.hh"
#include "crypto/aes.hh"
#include "crypto/hmac.hh"
#include "crypto/sha256.hh"

#include <cstdint>
#include <memory>
#include <unordered_map>

namespace osh::crypto
{

class KeyManager;

/**
 * An opaque, pre-resolved reference to one resource's key material.
 *
 * Acquired once (at cloak-attach / resource creation) and carried in
 * the resource, it holds the expanded AES schedule and the prepared
 * sealing-HMAC midstate, so page faults and seal operations never
 * repeat a map lookup. A handle co-owns its material: the material
 * lives until the last handle to it dies (a fork clone copies its
 * parent's handle, so the child keeps the key after the parent exits),
 * and a handle may outlive the KeyManager that issued it.
 */
class KeyHandle
{
  public:
    KeyHandle() = default;

    bool valid() const { return material_ != nullptr; }
    ResourceId keyId() const { return keyId_; }

    const Aes128&
    cipher() const
    {
        return material_->cipher;
    }

    const HmacKey&
    sealingHmac() const
    {
        return material_->sealingHmac;
    }

  private:
    friend class KeyManager;

    /** One resource's derived key material. */
    struct Material
    {
        Aes128 cipher;
        HmacKey sealingHmac;
    };

    std::shared_ptr<const Material> material_;
    ResourceId keyId_ = 0;
};

/** Derives and caches per-resource keys from the VMM master secret. */
class KeyManager
{
  public:
    /** @param master_seed Deterministic seed for the master secret. */
    explicit KeyManager(std::uint64_t master_seed);

    KeyManager(const KeyManager&) = delete;
    KeyManager& operator=(const KeyManager&) = delete;

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

    /**
     * Key derivations so far. Cumulative: material that was dropped
     * and later derived again counts twice.
     */
    std::size_t derivedKeyCount() const { return registry_->derived; }

    /** Resources whose key material some handle still holds. */
    std::size_t liveKeyCount() const { return registry_->live.size(); }

  private:
    using Material = KeyHandle::Material;

    /**
     * Resource id -> the material its handles share. Shared with every
     * material's deleter, which drops the entry when the last handle
     * dies — possibly after the KeyManager itself is gone.
     */
    struct Registry
    {
        std::unordered_map<ResourceId, std::weak_ptr<const Material>> live;
        std::size_t derived = 0;
    };

    AesKey deriveAesKey(ResourceId resource) const;
    Digest deriveSealingKey(ResourceId resource) const;

    Digest master_;
    HmacKey masterHmac_;
    std::shared_ptr<Registry> registry_ = std::make_shared<Registry>();
};

} // namespace osh::crypto

#endif // OSH_CRYPTO_KEYS_HH
