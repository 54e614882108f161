/**
 * @file
 * SHA-256, implemented from scratch per FIPS 180-4.
 *
 * Overshadow uses SHA-256 for page-integrity hashes, metadata sealing and
 * application identity. The streaming interface (update/final) supports
 * hashing pages directly out of simulated machine memory.
 *
 * Compression runs the kernel crypto/kernels.hh selected for the host
 * (SHA-NI where the CPU has it, else the portable rolling-schedule
 * kernel); update() hands it every whole block of a call at once, so
 * the hardware kernel keeps the state in registers across a page.
 */

#ifndef OSH_CRYPTO_SHA256_HH
#define OSH_CRYPTO_SHA256_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace osh::crypto
{

constexpr std::size_t sha256DigestSize = 32;
constexpr std::size_t sha256BlockSize = 64;

using Digest = std::array<std::uint8_t, sha256DigestSize>;

/** Streaming SHA-256 context. */
class Sha256
{
  public:
    Sha256();

    /** Absorb more message bytes. */
    void update(std::span<const std::uint8_t> data);

    /** Convenience overload for string data. */
    void update(const std::string& s);

    /** Finish and produce the digest. The context must not be reused. */
    Digest final();

    /** One-shot convenience. */
    static Digest hash(std::span<const std::uint8_t> data);

  private:
    void compress(const std::uint8_t* blocks, std::size_t nblocks);

    std::array<std::uint32_t, 8> state_;
    std::array<std::uint8_t, sha256BlockSize> buffer_;
    std::size_t bufferLen_;
    std::uint64_t totalLen_;
};

} // namespace osh::crypto

#endif // OSH_CRYPTO_SHA256_HH
