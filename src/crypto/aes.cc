#include "crypto/aes.hh"

#include "base/bytes.hh"
#include "crypto/kernels.hh"

#include <bit>
#include <cstring>

namespace osh::crypto
{

namespace
{

// FIPS-197 S-box.
constexpr std::uint8_t sbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5,
    0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc,
    0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a,
    0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b,
    0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85,
    0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17,
    0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88,
    0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9,
    0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6,
    0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94,
    0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68,
    0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
};

constexpr std::uint8_t rcon[10] = {
    0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36,
};

// Multiply by x in GF(2^8).
constexpr std::uint8_t
xtime(std::uint8_t a)
{
    return static_cast<std::uint8_t>((a << 1) ^ ((a >> 7) * 0x1b));
}

// Encryption T-tables: Te0[x] packs the MixColumns column produced by
// S-box output S = sbox[x] as big-endian (2S, S, S, 3S); Te1..Te3 are
// byte rotations of Te0 so each table feeds one state row. One round
// becomes four loads + XORs per column, SubBytes/ShiftRows/MixColumns
// included.
struct TeTables
{
    std::uint32_t t0[256];
    std::uint32_t t1[256];
    std::uint32_t t2[256];
    std::uint32_t t3[256];
};

constexpr TeTables
makeTeTables()
{
    TeTables t{};
    for (int i = 0; i < 256; ++i) {
        std::uint8_t s = sbox[i];
        std::uint8_t s2 = xtime(s);
        std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
        std::uint32_t w = (static_cast<std::uint32_t>(s2) << 24) |
                          (static_cast<std::uint32_t>(s) << 16) |
                          (static_cast<std::uint32_t>(s) << 8) |
                          static_cast<std::uint32_t>(s3);
        t.t0[i] = w;
        t.t1[i] = std::rotr(w, 8);
        t.t2[i] = std::rotr(w, 16);
        t.t3[i] = std::rotr(w, 24);
    }
    return t;
}

constexpr TeTables Te = makeTeTables();

} // namespace

Aes128::Aes128(const AesKey& key)
{
    // Key expansion (FIPS-197 section 5.2), Nk = 4, Nr = 10.
    auto& rk = roundKeys_.bytes;
    std::memcpy(rk.data(), key.data(), aesKeySize);
    for (int i = 4; i < 4 * (aesRounds + 1); ++i) {
        std::uint8_t t[4];
        std::memcpy(t, &rk[(i - 1) * 4], 4);
        if (i % 4 == 0) {
            // RotWord + SubWord + Rcon.
            std::uint8_t tmp = t[0];
            t[0] = static_cast<std::uint8_t>(sbox[t[1]] ^ rcon[i / 4 - 1]);
            t[1] = sbox[t[2]];
            t[2] = sbox[t[3]];
            t[3] = sbox[tmp];
        }
        for (int b = 0; b < 4; ++b)
            rk[i * 4 + b] = rk[(i - 4) * 4 + b] ^ t[b];
    }
    for (std::size_t w = 0; w < roundKeys_.words.size(); ++w)
        roundKeys_.words[w] = loadBe32(&rk[w * 4]);
}

namespace kernels
{

namespace
{

/** Four blocks, lockstep-interleaved through every round. */
void
aesBlocks4Portable(const AesRoundKeys& keys, const std::uint8_t* in,
                   std::uint8_t* out)
{
    const std::uint32_t* rk = keys.words.data();

    // Four blocks as four lanes of column words. Every round touches
    // each lane with the same table/key pattern, so the loads of all
    // four lanes are independent and the host overlaps them instead of
    // waiting out one block's round chain.
    std::uint32_t s0[4], s1[4], s2[4], s3[4];
    for (int l = 0; l < 4; ++l) {
        const std::uint8_t* p = in + static_cast<std::size_t>(l) *
                                         aesBlockSize;
        s0[l] = loadBe32(p) ^ rk[0];
        s1[l] = loadBe32(p + 4) ^ rk[1];
        s2[l] = loadBe32(p + 8) ^ rk[2];
        s3[l] = loadBe32(p + 12) ^ rk[3];
    }

    for (int round = 1; round < aesRounds; ++round) {
        rk += 4;
        for (int l = 0; l < 4; ++l) {
            std::uint32_t t0 = Te.t0[s0[l] >> 24] ^
                               Te.t1[(s1[l] >> 16) & 0xff] ^
                               Te.t2[(s2[l] >> 8) & 0xff] ^
                               Te.t3[s3[l] & 0xff] ^ rk[0];
            std::uint32_t t1 = Te.t0[s1[l] >> 24] ^
                               Te.t1[(s2[l] >> 16) & 0xff] ^
                               Te.t2[(s3[l] >> 8) & 0xff] ^
                               Te.t3[s0[l] & 0xff] ^ rk[1];
            std::uint32_t t2 = Te.t0[s2[l] >> 24] ^
                               Te.t1[(s3[l] >> 16) & 0xff] ^
                               Te.t2[(s0[l] >> 8) & 0xff] ^
                               Te.t3[s1[l] & 0xff] ^ rk[2];
            std::uint32_t t3 = Te.t0[s3[l] >> 24] ^
                               Te.t1[(s0[l] >> 16) & 0xff] ^
                               Te.t2[(s1[l] >> 8) & 0xff] ^
                               Te.t3[s2[l] & 0xff] ^ rk[3];
            s0[l] = t0;
            s1[l] = t1;
            s2[l] = t2;
            s3[l] = t3;
        }
    }

    rk += 4;
    for (int l = 0; l < 4; ++l) {
        std::uint8_t* p = out + static_cast<std::size_t>(l) *
                                    aesBlockSize;
        std::uint32_t t0 =
            (static_cast<std::uint32_t>(sbox[s0[l] >> 24]) << 24) |
            (static_cast<std::uint32_t>(sbox[(s1[l] >> 16) & 0xff])
             << 16) |
            (static_cast<std::uint32_t>(sbox[(s2[l] >> 8) & 0xff])
             << 8) |
            static_cast<std::uint32_t>(sbox[s3[l] & 0xff]);
        std::uint32_t t1 =
            (static_cast<std::uint32_t>(sbox[s1[l] >> 24]) << 24) |
            (static_cast<std::uint32_t>(sbox[(s2[l] >> 16) & 0xff])
             << 16) |
            (static_cast<std::uint32_t>(sbox[(s3[l] >> 8) & 0xff])
             << 8) |
            static_cast<std::uint32_t>(sbox[s0[l] & 0xff]);
        std::uint32_t t2 =
            (static_cast<std::uint32_t>(sbox[s2[l] >> 24]) << 24) |
            (static_cast<std::uint32_t>(sbox[(s3[l] >> 16) & 0xff])
             << 16) |
            (static_cast<std::uint32_t>(sbox[(s0[l] >> 8) & 0xff])
             << 8) |
            static_cast<std::uint32_t>(sbox[s1[l] & 0xff]);
        std::uint32_t t3 =
            (static_cast<std::uint32_t>(sbox[s3[l] >> 24]) << 24) |
            (static_cast<std::uint32_t>(sbox[(s0[l] >> 16) & 0xff])
             << 16) |
            (static_cast<std::uint32_t>(sbox[(s1[l] >> 8) & 0xff])
             << 8) |
            static_cast<std::uint32_t>(sbox[s2[l] & 0xff]);
        storeBe32(p, t0 ^ rk[0]);
        storeBe32(p + 4, t1 ^ rk[1]);
        storeBe32(p + 8, t2 ^ rk[2]);
        storeBe32(p + 12, t3 ^ rk[3]);
    }
}

} // namespace

void
aesBlockPortable(const AesRoundKeys& keys, const std::uint8_t* in,
                 std::uint8_t* out)
{
    const std::uint32_t* rk = keys.words.data();

    // State as four big-endian column words; row 0 is the MSB.
    std::uint32_t s0 = loadBe32(in) ^ rk[0];
    std::uint32_t s1 = loadBe32(in + 4) ^ rk[1];
    std::uint32_t s2 = loadBe32(in + 8) ^ rk[2];
    std::uint32_t s3 = loadBe32(in + 12) ^ rk[3];

    for (int round = 1; round < aesRounds; ++round) {
        rk += 4;
        std::uint32_t t0 = Te.t0[s0 >> 24] ^ Te.t1[(s1 >> 16) & 0xff] ^
                           Te.t2[(s2 >> 8) & 0xff] ^ Te.t3[s3 & 0xff] ^
                           rk[0];
        std::uint32_t t1 = Te.t0[s1 >> 24] ^ Te.t1[(s2 >> 16) & 0xff] ^
                           Te.t2[(s3 >> 8) & 0xff] ^ Te.t3[s0 & 0xff] ^
                           rk[1];
        std::uint32_t t2 = Te.t0[s2 >> 24] ^ Te.t1[(s3 >> 16) & 0xff] ^
                           Te.t2[(s0 >> 8) & 0xff] ^ Te.t3[s1 & 0xff] ^
                           rk[2];
        std::uint32_t t3 = Te.t0[s3 >> 24] ^ Te.t1[(s0 >> 16) & 0xff] ^
                           Te.t2[(s1 >> 8) & 0xff] ^ Te.t3[s2 & 0xff] ^
                           rk[3];
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
    }

    // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
    rk += 4;
    std::uint32_t t0 =
        (static_cast<std::uint32_t>(sbox[s0 >> 24]) << 24) |
        (static_cast<std::uint32_t>(sbox[(s1 >> 16) & 0xff]) << 16) |
        (static_cast<std::uint32_t>(sbox[(s2 >> 8) & 0xff]) << 8) |
        static_cast<std::uint32_t>(sbox[s3 & 0xff]);
    std::uint32_t t1 =
        (static_cast<std::uint32_t>(sbox[s1 >> 24]) << 24) |
        (static_cast<std::uint32_t>(sbox[(s2 >> 16) & 0xff]) << 16) |
        (static_cast<std::uint32_t>(sbox[(s3 >> 8) & 0xff]) << 8) |
        static_cast<std::uint32_t>(sbox[s0 & 0xff]);
    std::uint32_t t2 =
        (static_cast<std::uint32_t>(sbox[s2 >> 24]) << 24) |
        (static_cast<std::uint32_t>(sbox[(s3 >> 16) & 0xff]) << 16) |
        (static_cast<std::uint32_t>(sbox[(s0 >> 8) & 0xff]) << 8) |
        static_cast<std::uint32_t>(sbox[s1 & 0xff]);
    std::uint32_t t3 =
        (static_cast<std::uint32_t>(sbox[s3 >> 24]) << 24) |
        (static_cast<std::uint32_t>(sbox[(s0 >> 16) & 0xff]) << 16) |
        (static_cast<std::uint32_t>(sbox[(s1 >> 8) & 0xff]) << 8) |
        static_cast<std::uint32_t>(sbox[s2 & 0xff]);

    storeBe32(out, t0 ^ rk[0]);
    storeBe32(out + 4, t1 ^ rk[1]);
    storeBe32(out + 8, t2 ^ rk[2]);
    storeBe32(out + 12, t3 ^ rk[3]);
}

void
aesBlockReference(const AesRoundKeys& keys, const std::uint8_t* in,
                  std::uint8_t* out)
{
    std::uint8_t s[16];
    std::memcpy(s, in, 16);

    auto addRoundKey = [&](int round) {
        for (int i = 0; i < 16; ++i)
            s[i] ^= keys.bytes[round * 16 + i];
    };
    auto subBytes = [&] {
        for (auto& b : s)
            b = sbox[b];
    };
    auto shiftRows = [&] {
        std::uint8_t t[16];
        // State is column-major: s[col*4 + row].
        for (int col = 0; col < 4; ++col)
            for (int row = 0; row < 4; ++row)
                t[col * 4 + row] = s[((col + row) % 4) * 4 + row];
        std::memcpy(s, t, 16);
    };
    auto mixColumns = [&] {
        for (int col = 0; col < 4; ++col) {
            std::uint8_t* c = &s[col * 4];
            std::uint8_t a0 = c[0], a1 = c[1], a2 = c[2], a3 = c[3];
            std::uint8_t all = a0 ^ a1 ^ a2 ^ a3;
            c[0] = static_cast<std::uint8_t>(a0 ^ all ^ xtime(a0 ^ a1));
            c[1] = static_cast<std::uint8_t>(a1 ^ all ^ xtime(a1 ^ a2));
            c[2] = static_cast<std::uint8_t>(a2 ^ all ^ xtime(a2 ^ a3));
            c[3] = static_cast<std::uint8_t>(a3 ^ all ^ xtime(a3 ^ a0));
        }
    };

    addRoundKey(0);
    for (int round = 1; round < aesRounds; ++round) {
        subBytes();
        shiftRows();
        mixColumns();
        addRoundKey(round);
    }
    subBytes();
    shiftRows();
    addRoundKey(aesRounds);

    std::memcpy(out, s, 16);
}

void
aesBlocksPortable(const AesRoundKeys& keys, const std::uint8_t* in,
                  std::uint8_t* out, std::size_t nblocks)
{
    std::size_t b = 0;
    for (; b + 4 <= nblocks; b += 4)
        aesBlocks4Portable(keys, in + b * aesBlockSize,
                           out + b * aesBlockSize);
    for (; b < nblocks; ++b)
        aesBlockPortable(keys, in + b * aesBlockSize,
                         out + b * aesBlockSize);
}

} // namespace kernels

} // namespace osh::crypto
