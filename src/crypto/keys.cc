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
    std::lock_guard<std::mutex> lk(lock_);
    auto it = keys_.find(resource);
    if (it == keys_.end()) {
        it = keys_.emplace(resource,
                           Keys{Aes128(deriveAesKey(resource)),
                                HmacKey(deriveSealingKey(resource))})
                 .first;
    }
    KeyHandle h;
    h.cipher_ = &it->second.cipher;
    h.sealingHmac_ = &it->second.sealingHmac;
    h.keyId_ = resource;
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

std::size_t
KeyManager::derivedKeyCount() const
{
    std::lock_guard<std::mutex> lk(lock_);
    return keys_.size();
}

} // namespace osh::crypto
