/**
 * @file
 * AES-128 block cipher, implemented from scratch per FIPS-197.
 *
 * Overshadow's VMM encrypts cloaked pages with AES-128; this is the
 * simulator's real implementation (pages really are ciphertext in the
 * kernel's view). Aes128 holds the expanded key; the kernels that
 * consume it — a byte-wise FIPS-197 reference, a portable T-table
 * kernel and, on x86-64 hosts with AES-NI, a hardware CTR kernel — are
 * declared in crypto/kernels.hh. CTR (crypto/ctr.hh) runs whichever
 * kernel the host supports; only the forward cipher is needed.
 *
 * Simulated crypto *cost* is charged by the cycle model; host speed
 * only affects how long the simulation itself takes to run.
 */

#ifndef OSH_CRYPTO_AES_HH
#define OSH_CRYPTO_AES_HH

#include <array>
#include <cstdint>

namespace osh::crypto
{

/** AES-128 key and block sizes in bytes. */
constexpr std::size_t aesKeySize = 16;
constexpr std::size_t aesBlockSize = 16;
constexpr int aesRounds = 10;

using AesKey = std::array<std::uint8_t, aesKeySize>;
using AesBlock = std::array<std::uint8_t, aesBlockSize>;

/** An expanded AES-128 key, in the two layouts the kernels read. */
struct AesRoundKeys
{
    /** FIPS-197 byte order: (aesRounds + 1) x 16 bytes. */
    std::array<std::uint8_t, (aesRounds + 1) * aesBlockSize> bytes;
    /** The same keys as big-endian column words (T-table kernel). */
    std::array<std::uint32_t, (aesRounds + 1) * 4> words;
};

/** An expanded AES-128 key. Construct once per key. */
class Aes128
{
  public:
    /** Expand the given 128-bit key. */
    explicit Aes128(const AesKey& key);

    const AesRoundKeys& roundKeys() const { return roundKeys_; }

  private:
    AesRoundKeys roundKeys_;
};

} // namespace osh::crypto

#endif // OSH_CRYPTO_AES_HH
