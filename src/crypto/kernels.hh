/**
 * @file
 * The kernels behind AES-CTR and SHA-256, and the choice between them.
 *
 * Internal to src/crypto: the simulator calls aesCtrXcrypt() and
 * Sha256, which run the kernels selected() picked for this host. Tests
 * and bench_crypto include this header to run one kernel by name.
 *
 * Each primitive has up to three kernels, all byte-for-byte identical:
 *
 *  - reference: a plain transcription of the spec — byte-wise FIPS-197
 *    AES, one counter block at a time; the FIPS 180-4 compression loop
 *    with a 64-word schedule. The differential anchor.
 *  - portable: T-table AES with four blocks interleaved per round and
 *    eight counter blocks per batch; SHA-256 with a rolling 16-word
 *    schedule and register-rotated rounds. The kernel every host can
 *    run.
 *  - hardware: AES-CTR with counters built in registers, either AES-NI
 *    with eight blocks in flight or VAES (AVX-512) with sixteen; SHA-NI
 *    compression. Compiled only for x86-64 (per-function target
 *    attributes, no -march), and only returned when CPUID reports the
 *    instructions. VAES is chosen over AES-NI where both run.
 *
 * Only host time depends on the choice; simulated cycles are charged
 * by the cost model either way.
 */

#ifndef OSH_CRYPTO_KERNELS_HH
#define OSH_CRYPTO_KERNELS_HH

#include "crypto/aes.hh"
#include "crypto/ctr.hh"

#include <cstddef>
#include <cstdint>

namespace osh::crypto::kernels
{

/**
 * AES-128-CTR over @p len bytes: out = in ^ E_k(counter blocks), where
 * block i's counter is @p iv with its low 64 bits (big-endian) plus i,
 * wrapping modulo 2^64 without carrying into the high 64 bits (NIST SP
 * 800-38A appendix B.1). in may alias out.
 */
using AesCtrFn = void (*)(const AesRoundKeys& keys, const Iv& iv,
                          const std::uint8_t* in, std::uint8_t* out,
                          std::size_t len);

/** Compress @p nblocks whole 64-byte blocks into the 8-word state. */
using Sha256CompressFn = void (*)(std::uint32_t* state,
                                  const std::uint8_t* blocks,
                                  std::size_t nblocks);

/** One AES-128 block, byte-wise per FIPS-197. in may alias out. */
void aesBlockReference(const AesRoundKeys& keys, const std::uint8_t* in,
                       std::uint8_t* out);

/** One AES-128 block through the T-tables. in may alias out. */
void aesBlockPortable(const AesRoundKeys& keys, const std::uint8_t* in,
                      std::uint8_t* out);

/** ECB over @p nblocks blocks, four interleaved at a time. */
void aesBlocksPortable(const AesRoundKeys& keys, const std::uint8_t* in,
                       std::uint8_t* out, std::size_t nblocks);

void aesCtrReference(const AesRoundKeys& keys, const Iv& iv,
                     const std::uint8_t* in, std::uint8_t* out,
                     std::size_t len);

void aesCtrPortable(const AesRoundKeys& keys, const Iv& iv,
                    const std::uint8_t* in, std::uint8_t* out,
                    std::size_t len);

/** The AES-NI kernel, or nullptr where it is not built or supported. */
AesCtrFn aesCtrAesni();

/**
 * The VAES kernel (16 blocks in flight, tails under 256 bytes on
 * AES-NI), or nullptr unless CPUID reports AES-NI, VAES and AVX-512F.
 */
AesCtrFn aesCtrVaes();

/** The fastest of the two above this host runs, or nullptr. */
AesCtrFn aesCtrHardware();

void sha256CompressReference(std::uint32_t* state,
                             const std::uint8_t* blocks,
                             std::size_t nblocks);

void sha256CompressPortable(std::uint32_t* state,
                            const std::uint8_t* blocks,
                            std::size_t nblocks);

/** The SHA-NI kernel, or nullptr where it is not built or supported. */
Sha256CompressFn sha256CompressHardware();

/** The kernels in use: hardware where available, else portable. */
struct Selection
{
    AesCtrFn aesCtr;
    const char* aesCtrName;
    Sha256CompressFn sha256Compress;
    const char* sha256CompressName;
};

/** Chosen once, on first call, from the host's CPUID. */
const Selection& selected();

} // namespace osh::crypto::kernels

#endif // OSH_CRYPTO_KERNELS_HH
