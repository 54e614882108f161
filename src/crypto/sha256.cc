#include "crypto/sha256.hh"

#include "base/bytes.hh"
#include "crypto/kernels.hh"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace osh::crypto
{

namespace
{

constexpr std::uint32_t k[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5,
    0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3,
    0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5,
    0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline std::uint32_t
rotr(std::uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

/** One compression round with explicit register roles: writes only h
 *  (the new working value) and d (the e-chain carry), so unrolled
 *  callers rotate arguments instead of shuffling eight temporaries. */
inline void
round(std::uint32_t a, std::uint32_t b, std::uint32_t c,
      std::uint32_t& d, std::uint32_t e, std::uint32_t f,
      std::uint32_t g, std::uint32_t& h, std::uint32_t kw)
{
    std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    std::uint32_t ch = (e & f) ^ (~e & g);
    std::uint32_t t1 = h + s1 + ch + kw;
    std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    d += t1;
    h = t1 + s0 + maj;
}

/** Schedule extension: w[i] from w[i-16], w[i-15], w[i-7], w[i-2]. */
inline std::uint32_t
extendWord(std::uint32_t w16, std::uint32_t w15, std::uint32_t w7,
           std::uint32_t w2)
{
    std::uint32_t s0 = rotr(w15, 7) ^ rotr(w15, 18) ^ (w15 >> 3);
    std::uint32_t s1 = rotr(w2, 17) ^ rotr(w2, 19) ^ (w2 >> 10);
    return w16 + s0 + w7 + s1;
}

/** One block through the rolling-schedule kernel. */
void
compressPortable(std::uint32_t* state, const std::uint8_t* block)
{
    // Rolling 16-word schedule; rounds unrolled in groups of eight
    // with rotated register roles, so the working state never moves.
    std::uint32_t w[16];
    for (int i = 0; i < 16; ++i)
        w[i] = loadBe32(block + i * 4);

    std::uint32_t a = state[0], b = state[1], c = state[2],
                  d = state[3], e = state[4], f = state[5],
                  g = state[6], h = state[7];

    auto rounds8 = [&](const std::uint32_t* kw,
                       const std::uint32_t* ws) {
        round(a, b, c, d, e, f, g, h, kw[0] + ws[0]);
        round(h, a, b, c, d, e, f, g, kw[1] + ws[1]);
        round(g, h, a, b, c, d, e, f, kw[2] + ws[2]);
        round(f, g, h, a, b, c, d, e, kw[3] + ws[3]);
        round(e, f, g, h, a, b, c, d, kw[4] + ws[4]);
        round(d, e, f, g, h, a, b, c, kw[5] + ws[5]);
        round(c, d, e, f, g, h, a, b, kw[6] + ws[6]);
        round(b, c, d, e, f, g, h, a, kw[7] + ws[7]);
    };

    rounds8(k, w);
    rounds8(k + 8, w + 8);
    for (int i = 16; i < 64; i += 16) {
        for (int j = 0; j < 16; ++j) {
            w[j] = extendWord(w[j], w[(j + 1) & 15], w[(j + 9) & 15],
                              w[(j + 14) & 15]);
        }
        rounds8(k + i, w);
        rounds8(k + i + 8, w + 8);
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

/** One block through the FIPS 180-4 loop. */
void
compressReference(std::uint32_t* state, const std::uint8_t* block)
{
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i)
        w[i] = loadBe32(block + i * 4);
    for (int i = 16; i < 64; ++i) {
        std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                           (w[i - 15] >> 3);
        std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                           (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2],
                  d = state[3], e = state[4], f = state[5],
                  g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
        std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        std::uint32_t ch = (e & f) ^ (~e & g);
        std::uint32_t temp1 = h + s1 + ch + k[i] + w[i];
        std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        std::uint32_t temp2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + temp1;
        d = c;
        c = b;
        b = a;
        a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

#if defined(__x86_64__)

/**
 * SHA-NI compression over whole blocks. The state lives in two
 * registers in the instructions' ABEF/CDGH layout for the whole call;
 * each group of four rounds adds four K words to four schedule words
 * and runs two sha256rnds2, and sha256msg1/msg2 extend the schedule
 * four words at a time in a rolling four-register ring.
 */
__attribute__((target("sha,sse4.1"))) void
compressShani(std::uint32_t* state, const std::uint8_t* blocks,
              std::size_t nblocks)
{
    // Byte swap of each 32-bit word: the message is big-endian.
    const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bll,
                                         0x0405060700010203ll);
    __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
    __m128i hgfe =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
    __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
    __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for (std::size_t n = 0; n < nblocks; ++n) {
        const std::uint8_t* block = blocks + n * sha256BlockSize;
        const __m128i abefStart = abef;
        const __m128i cdghStart = cdgh;
        __m128i w[4];
#pragma GCC unroll 16
        for (int g = 0; g < 16; ++g) {
            __m128i& cur = w[g % 4];
            if (g < 4) {
                cur = _mm_shuffle_epi8(
                    _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                        block + g * 16)),
                    bswap);
            } else {
                // W[t..t+3] from W[t-16..t-13] (cur), W[t-12..t-9],
                // W[t-8..t-5] and W[t-4..t-1].
                const __m128i& w12 = w[(g + 1) % 4];
                const __m128i& w8 = w[(g + 2) % 4];
                const __m128i& w4 = w[(g + 3) % 4];
                __m128i t = _mm_sha256msg1_epu32(cur, w12);
                t = _mm_add_epi32(t, _mm_alignr_epi8(w4, w8, 4));
                cur = _mm_sha256msg2_epu32(t, w4);
            }
            __m128i msg = _mm_add_epi32(
                cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                         k + g * 4)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
            abef = _mm_sha256rnds2_epu32(abef, cdgh,
                                         _mm_shuffle_epi32(msg, 0x0e));
        }
        abef = _mm_add_epi32(abef, abefStart);
        cdgh = _mm_add_epi32(cdgh, cdghStart);
    }

    __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
    __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    hgfe = _mm_alignr_epi8(dchg, feba, 8);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

#endif // __x86_64__

} // namespace

namespace kernels
{

void
sha256CompressReference(std::uint32_t* state, const std::uint8_t* blocks,
                        std::size_t nblocks)
{
    for (std::size_t i = 0; i < nblocks; ++i)
        compressReference(state, blocks + i * sha256BlockSize);
}

void
sha256CompressPortable(std::uint32_t* state, const std::uint8_t* blocks,
                       std::size_t nblocks)
{
    for (std::size_t i = 0; i < nblocks; ++i)
        compressPortable(state, blocks + i * sha256BlockSize);
}

Sha256CompressFn
sha256CompressHardware()
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1"))
        return compressShani;
#endif
    return nullptr;
}

} // namespace kernels

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      bufferLen_(0), totalLen_(0)
{
}

void
Sha256::compress(const std::uint8_t* blocks, std::size_t nblocks)
{
    kernels::selected().sha256Compress(state_.data(), blocks, nblocks);
}

void
Sha256::update(std::span<const std::uint8_t> data)
{
    totalLen_ += data.size();
    std::size_t pos = 0;
    if (bufferLen_ > 0 && !data.empty()) { // An empty span may be null.
        std::size_t take =
            std::min(data.size(), sha256BlockSize - bufferLen_);
        std::memcpy(buffer_.data() + bufferLen_, data.data(), take);
        bufferLen_ += take;
        pos = take;
        if (bufferLen_ == sha256BlockSize) {
            compress(buffer_.data(), 1);
            bufferLen_ = 0;
        }
    }
    std::size_t whole = (data.size() - pos) / sha256BlockSize;
    if (whole > 0) {
        compress(data.data() + pos, whole);
        pos += whole * sha256BlockSize;
    }
    if (pos < data.size()) {
        std::memcpy(buffer_.data(), data.data() + pos, data.size() - pos);
        bufferLen_ = data.size() - pos;
    }
}

void
Sha256::update(const std::string& s)
{
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

Digest
Sha256::final()
{
    std::uint64_t bit_len = totalLen_ * 8;
    // Pad in place in a single pass: 0x80, zeros up to byte 56 of the
    // final block (spilling into one extra block when fewer than nine
    // bytes remain), then the big-endian bit length.
    buffer_[bufferLen_++] = 0x80;
    if (bufferLen_ > 56) {
        std::memset(buffer_.data() + bufferLen_, 0,
                    sha256BlockSize - bufferLen_);
        compress(buffer_.data(), 1);
        bufferLen_ = 0;
    }
    std::memset(buffer_.data() + bufferLen_, 0, 56 - bufferLen_);
    storeBe64(buffer_.data() + 56, bit_len);
    compress(buffer_.data(), 1);
    bufferLen_ = 0;

    Digest out;
    for (int i = 0; i < 8; ++i)
        storeBe32(out.data() + i * 4, state_[i]);
    return out;
}

Digest
Sha256::hash(std::span<const std::uint8_t> data)
{
    Sha256 ctx;
    ctx.update(data);
    return ctx.final();
}

} // namespace osh::crypto
