#include "crypto/keys.hh"

#include "base/bytes.hh"

#include <cstring>

namespace osh::crypto
{

KeyManager::KeyManager(std::uint64_t master_seed)
{
    std::uint8_t seed_bytes[16] = {};
    storeLe64(seed_bytes, master_seed);
    std::memcpy(seed_bytes + 8, "OSHMSTR!", 8);
    master_ = Sha256::hash(seed_bytes);
    masterHmac_ = HmacKey(master_);
}

AesKey
KeyManager::deriveAesKey(ResourceId resource) const
{
    std::uint8_t info[16] = {};
    storeLe64(info, resource);
    std::memcpy(info + 8, "pagekey\0", 8);
    Digest d = hmacSha256(masterHmac_, info);
    AesKey key;
    std::memcpy(key.data(), d.data(), key.size());
    return key;
}

Digest
KeyManager::deriveSealingKey(ResourceId resource) const
{
    std::uint8_t info[16] = {};
    storeLe64(info, resource);
    std::memcpy(info + 8, "sealkey\0", 8);
    return hmacSha256(masterHmac_, info);
}

KeyHandle
KeyManager::acquire(ResourceId resource)
{
    KeyHandle h;
    h.keyId_ = resource;
    std::weak_ptr<const Material>& slot = registry_->live[resource];
    h.material_ = slot.lock();
    if (h.material_ != nullptr)
        return h;

    // The deleter runs when the last handle dies; by then the entry has
    // expired unless a later acquire derived the material again.
    auto drop = [registry = registry_, resource](const Material* m) {
        auto it = registry->live.find(resource);
        if (it != registry->live.end() && it->second.expired())
            registry->live.erase(it);
        delete m;
    };
    h.material_ = std::shared_ptr<const Material>(
        new Material{Aes128(deriveAesKey(resource)),
                     HmacKey(deriveSealingKey(resource))},
        std::move(drop));
    slot = h.material_;
    ++registry_->derived;
    return h;
}

Digest
KeyManager::migrationKey(std::uint64_t nonce) const
{
    std::uint8_t info[16] = {};
    storeLe64(info, nonce);
    std::memcpy(info + 8, "migrkey\0", 8);
    return hmacSha256(masterHmac_, info);
}

} // namespace osh::crypto
