#include "crypto/ctr.hh"

#include "base/bytes.hh"
#include "base/logging.hh"
#include "crypto/kernels.hh"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace osh::crypto
{

namespace
{

// Increment the low 64 bits of the counter block (big-endian), as in
// NIST SP 800-38A appendix B.1.
void
incrementCounter(AesBlock& ctr)
{
    for (int i = 15; i >= 8; --i) {
        if (++ctr[static_cast<std::size_t>(i)] != 0)
            break;
    }
}

// Keystream batch size: 8 AES blocks (128 bytes) are encrypted per
// cipher call so the block loop stays hot, then XORed into the payload
// a uint64 at a time. memcpy-based loads/stores keep the word XOR
// alignment-safe under UBSan.
constexpr std::size_t ctrBatchBlocks = 8;
constexpr std::size_t ctrBatchBytes = ctrBatchBlocks * aesBlockSize;

inline void
xorWords(const std::uint8_t* in, const std::uint8_t* ks,
         std::uint8_t* out, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t a, b;
        std::memcpy(&a, in + i, 8);
        std::memcpy(&b, ks + i, 8);
        a ^= b;
        std::memcpy(out + i, &a, 8);
    }
    for (; i < n; ++i)
        out[i] = in[i] ^ ks[i];
}

#if defined(__x86_64__)

/**
 * AES-NI CTR. Counter blocks are built in registers: the IV's high half
 * is fixed and its low half is a big-endian 64-bit count, kept here as
 * a native integer that wraps modulo 2^64 and is byte-swapped into each
 * block. Eight blocks are in flight through the rounds, and the
 * keystream is XORed into the payload in the same loop. The round keys
 * load straight from their FIPS-197 byte order.
 */
__attribute__((target("aes"))) void
ctrAesni(const AesRoundKeys& keys, const Iv& iv, const std::uint8_t* in,
         std::uint8_t* out, std::size_t len)
{
    __m128i rk[aesRounds + 1];
    for (int r = 0; r <= aesRounds; ++r)
        rk[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
            keys.bytes.data() + r * aesBlockSize));
    std::uint64_t high, low;
    std::memcpy(&high, iv.data(), 8);
    std::memcpy(&low, iv.data() + 8, 8);
    std::uint64_t count = __builtin_bswap64(low);
    auto hi = static_cast<long long>(high);

    std::size_t pos = 0;
    for (; pos + ctrBatchBytes <= len; pos += ctrBatchBytes) {
        __m128i b[ctrBatchBlocks];
#pragma GCC unroll 8
        for (std::size_t j = 0; j < ctrBatchBlocks; ++j) {
            auto lo = static_cast<long long>(__builtin_bswap64(count + j));
            b[j] = _mm_xor_si128(_mm_set_epi64x(lo, hi), rk[0]);
        }
        count += ctrBatchBlocks;
        for (int r = 1; r < aesRounds; ++r) {
#pragma GCC unroll 8
            for (std::size_t j = 0; j < ctrBatchBlocks; ++j)
                b[j] = _mm_aesenc_si128(b[j], rk[r]);
        }
#pragma GCC unroll 8
        for (std::size_t j = 0; j < ctrBatchBlocks; ++j) {
            auto* src = reinterpret_cast<const __m128i*>(
                in + pos + j * aesBlockSize);
            auto* dst = reinterpret_cast<__m128i*>(
                out + pos + j * aesBlockSize);
            __m128i ks = _mm_aesenclast_si128(b[j], rk[aesRounds]);
            _mm_storeu_si128(dst, _mm_xor_si128(_mm_loadu_si128(src), ks));
        }
    }

    // Fewer than eight blocks left: one at a time, the last possibly
    // partial.
    for (; pos < len; pos += aesBlockSize, ++count) {
        auto lo = static_cast<long long>(__builtin_bswap64(count));
        __m128i b = _mm_xor_si128(_mm_set_epi64x(lo, hi), rk[0]);
        for (int r = 1; r < aesRounds; ++r)
            b = _mm_aesenc_si128(b, rk[r]);
        b = _mm_aesenclast_si128(b, rk[aesRounds]);
        std::uint8_t ks[aesBlockSize];
        _mm_storeu_si128(reinterpret_cast<__m128i*>(ks), b);
        xorWords(in + pos, ks, out + pos,
                 std::min(aesBlockSize, len - pos));
    }
}

constexpr std::size_t vaesBatchBlocks = 16;
constexpr std::size_t vaesBatchBytes = vaesBatchBlocks * aesBlockSize;

/**
 * VAES CTR: the AES-NI scheme four blocks wide. Each 512-bit register
 * carries four counter blocks, and four registers put sixteen blocks
 * (256 bytes) in flight through the rounds. The round keys are
 * broadcast to all four lanes once. A tail under 256 bytes continues
 * on the AES-NI loop from the next counter.
 */
__attribute__((target("avx512f,vaes"))) void
ctrVaes(const AesRoundKeys& keys, const Iv& iv, const std::uint8_t* in,
        std::uint8_t* out, std::size_t len)
{
    // The zero-masked broadcast: GCC 12 flags the unmasked one's
    // undefined pass-through operand under -Wuninitialized.
    __m512i rk[aesRounds + 1];
    for (int r = 0; r <= aesRounds; ++r)
        rk[r] = _mm512_maskz_broadcast_i32x4(
            0xffff, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                        keys.bytes.data() + r * aesBlockSize)));
    std::uint64_t high, low;
    std::memcpy(&high, iv.data(), 8);
    std::memcpy(&low, iv.data() + 8, 8);
    std::uint64_t count = __builtin_bswap64(low);
    auto hi = static_cast<long long>(high);
    auto lo = [&count](std::uint64_t j) {
        return static_cast<long long>(__builtin_bswap64(count + j));
    };

    std::size_t pos = 0;
    for (; pos + vaesBatchBytes <= len; pos += vaesBatchBytes) {
        __m512i b[4];
#pragma GCC unroll 4
        for (std::uint64_t j = 0; j < 4; ++j) {
            // Lane k holds block 4j + k: the fixed high half, then
            // the big-endian count.
            b[j] = _mm512_xor_si512(
                _mm512_set_epi64(lo(4 * j + 3), hi, lo(4 * j + 2), hi,
                                 lo(4 * j + 1), hi, lo(4 * j), hi),
                rk[0]);
        }
        count += vaesBatchBlocks;
        for (int r = 1; r < aesRounds; ++r) {
#pragma GCC unroll 4
            for (std::size_t j = 0; j < 4; ++j)
                b[j] = _mm512_aesenc_epi128(b[j], rk[r]);
        }
#pragma GCC unroll 4
        for (std::size_t j = 0; j < 4; ++j) {
            const std::uint8_t* src = in + pos + j * 64;
            std::uint8_t* dst = out + pos + j * 64;
            __m512i ks = _mm512_aesenclast_epi128(b[j], rk[aesRounds]);
            _mm512_storeu_si512(
                dst, _mm512_xor_si512(_mm512_loadu_si512(src), ks));
        }
    }

    if (pos < len) {
        Iv rest = iv;
        storeBe64(rest.data() + 8, count);
        ctrAesni(keys, rest, in + pos, out + pos, len - pos);
    }
}

#endif // __x86_64__

} // namespace

namespace kernels
{

void
aesCtrReference(const AesRoundKeys& keys, const Iv& iv,
                const std::uint8_t* in, std::uint8_t* out, std::size_t len)
{
    AesBlock ctr = iv;
    AesBlock ks;
    for (std::size_t pos = 0; pos < len; pos += aesBlockSize) {
        aesBlockReference(keys, ctr.data(), ks.data());
        incrementCounter(ctr);
        std::size_t n = std::min(aesBlockSize, len - pos);
        for (std::size_t i = 0; i < n; ++i)
            out[pos + i] = in[pos + i] ^ ks[i];
    }
}

void
aesCtrPortable(const AesRoundKeys& keys, const Iv& iv,
               const std::uint8_t* in, std::uint8_t* out, std::size_t len)
{
    AesBlock ctr = iv;
    std::uint8_t counters[ctrBatchBytes];
    std::uint8_t keystream[ctrBatchBytes];
    std::size_t pos = 0;
    while (pos < len) {
        std::size_t remaining = len - pos;
        std::size_t nblocks =
            std::min(ctrBatchBlocks,
                     (remaining + aesBlockSize - 1) / aesBlockSize);
        for (std::size_t b = 0; b < nblocks; ++b) {
            std::memcpy(counters + b * aesBlockSize, ctr.data(),
                        aesBlockSize);
            incrementCounter(ctr);
        }
        aesBlocksPortable(keys, counters, keystream, nblocks);
        std::size_t n = std::min(nblocks * aesBlockSize, remaining);
        xorWords(in + pos, keystream, out + pos, n);
        pos += n;
    }
}

AesCtrFn
aesCtrAesni()
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("aes"))
        return ctrAesni;
#endif
    return nullptr;
}

AesCtrFn
aesCtrVaes()
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("aes") && __builtin_cpu_supports("vaes") &&
        __builtin_cpu_supports("avx512f"))
        return ctrVaes;
#endif
    return nullptr;
}

AesCtrFn
aesCtrHardware()
{
    if (AesCtrFn vaes = aesCtrVaes())
        return vaes;
    return aesCtrAesni();
}

} // namespace kernels

void
aesCtrXcrypt(const Aes128& cipher, const Iv& iv,
             std::span<const std::uint8_t> in, std::span<std::uint8_t> out)
{
    osh_assert(in.size() == out.size(),
               "CTR input/output length mismatch");
    kernels::selected().aesCtr(cipher.roundKeys(), iv, in.data(),
                               out.data(), in.size());
}

void
aesCtrXcryptInPlace(const Aes128& cipher, const Iv& iv,
                    std::span<std::uint8_t> buf)
{
    aesCtrXcrypt(cipher, iv, buf, buf);
}

} // namespace osh::crypto
