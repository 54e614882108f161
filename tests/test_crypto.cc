/**
 * @file
 * Crypto validation against published test vectors:
 *   - AES-128: FIPS-197 appendix C and NIST SP 800-38A.
 *   - AES-CTR: NIST SP 800-38A F.5.1.
 *   - SHA-256: FIPS 180-4 / NIST CAVP short messages.
 *   - HMAC-SHA256: RFC 4231.
 * Every AES-CTR and SHA-256 kernel (reference, portable and, where the
 * host has the instructions, each hardware one: AES-NI and VAES for
 * CTR, SHA-NI for SHA-256) is run on the vectors, on the exact counter
 * semantics, and differentially against the reference.
 * Plus property tests (round trips, incrementality) and KeyManager
 * behaviour.
 */

#include "base/bytes.hh"
#include "base/rng.hh"
#include "crypto/aes.hh"
#include "crypto/ctr.hh"
#include "crypto/hmac.hh"
#include "crypto/kernels.hh"
#include "crypto/keys.hh"
#include "crypto/sha256.hh"

#include <gtest/gtest.h>

namespace osh::crypto
{
namespace
{

AesKey
keyFromHex(const std::string& hex)
{
    auto v = fromHex(hex);
    AesKey k{};
    std::copy(v.begin(), v.end(), k.begin());
    return k;
}

Iv
ivFromHex(const std::string& hex)
{
    auto v = fromHex(hex);
    Iv iv{};
    std::copy(v.begin(), v.end(), iv.begin());
    return iv;
}

/** The SHA-256 kernels a parameterized test runs. */
enum class Kernel
{
    Reference,
    Portable,
    Hardware,
};

const char*
nameOf(Kernel k)
{
    switch (k) {
      case Kernel::Reference:
        return "Reference";
      case Kernel::Portable:
        return "Portable";
      case Kernel::Hardware:
        return "Hardware";
    }
    return "Unknown";
}

void
PrintTo(Kernel k, std::ostream* os)
{
    *os << nameOf(k);
}

std::string
kernelName(const ::testing::TestParamInfo<Kernel>& info)
{
    return nameOf(info.param);
}

/**
 * An AES-CTR kernel a parameterized test runs, by name. Each hardware
 * kernel is its own case, so a host that selects VAES still runs the
 * AES-NI one. get() returns nullptr where this host cannot run it.
 */
struct CtrCase
{
    const char* name;
    kernels::AesCtrFn (*get)();
};

void
PrintTo(const CtrCase& c, std::ostream* os)
{
    *os << c.name;
}

const CtrCase ctrCases[] = {
    {"Reference", [] { return kernels::AesCtrFn{kernels::aesCtrReference}; }},
    {"Portable", [] { return kernels::AesCtrFn{kernels::aesCtrPortable}; }},
    {"Aesni", kernels::aesCtrAesni},
    {"Vaes", kernels::aesCtrVaes},
};

/** The SHA-256 compression kernel for @p k; nullptr when this host
 *  cannot run it. */
kernels::Sha256CompressFn
shaKernel(Kernel k)
{
    switch (k) {
      case Kernel::Reference:
        return kernels::sha256CompressReference;
      case Kernel::Portable:
        return kernels::sha256CompressPortable;
      case Kernel::Hardware:
        return kernels::sha256CompressHardware();
    }
    return nullptr;
}

/**
 * SHA-256 of @p data through one compression kernel, padded here (not
 * by Sha256) and with every block passed in a single call.
 */
Digest
hashWith(kernels::Sha256CompressFn compress,
         std::span<const std::uint8_t> data)
{
    std::vector<std::uint8_t> msg(data.begin(), data.end());
    msg.push_back(0x80);
    while (msg.size() % sha256BlockSize != 56)
        msg.push_back(0);
    std::uint8_t len[8];
    storeBe64(len, static_cast<std::uint64_t>(data.size()) * 8);
    msg.insert(msg.end(), len, len + 8);
    std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                              0xa54ff53a, 0x510e527f, 0x9b05688c,
                              0x1f83d9ab, 0x5be0cd19};
    compress(state, msg.data(), msg.size() / sha256BlockSize);
    Digest out;
    for (int i = 0; i < 8; ++i)
        storeBe32(out.data() + i * 4, state[i]);
    return out;
}

std::vector<std::uint8_t>
bytesOf(const std::string& s)
{
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

/** The single-block kernels every host runs. */
constexpr void (*blockKernels[])(const AesRoundKeys&, const std::uint8_t*,
                                 std::uint8_t*) = {
    kernels::aesBlockReference, kernels::aesBlockPortable};

TEST(Aes, Fips197VectorEveryBlockKernel)
{
    // FIPS-197 appendix C.1.
    Aes128 aes(keyFromHex("000102030405060708090a0b0c0d0e0f"));
    auto pt = fromHex("00112233445566778899aabbccddeeff");
    for (auto block : blockKernels) {
        std::uint8_t ct[16];
        block(aes.roundKeys(), pt.data(), ct);
        EXPECT_EQ(toHex(std::span<const std::uint8_t>(ct, 16)),
                  "69c4e0d86a7b0430d8cdb78070b4c55a");
    }
}

TEST(Aes, Sp80038aEcbVectorsEveryBlockKernel)
{
    // NIST SP 800-38A F.1.1 (ECB-AES128.Encrypt), on the byte-wise
    // reference and the T-table kernel.
    Aes128 aes(keyFromHex("2b7e151628aed2a6abf7158809cf4f3c"));
    struct { const char* pt; const char* ct; } cases[] = {
        {"6bc1bee22e409f96e93d7e117393172a",
         "3ad77bb40d7a3660a89ecaf32466ef97"},
        {"ae2d8a571e03ac9c9eb76fac45af8e51",
         "f5d3d58503b9699de785895a96fdbaaf"},
        {"30c81c46a35ce411e5fbc1191a0a52ef",
         "43b1cd7f598ece23881b00e3ed030688"},
        {"f69f2445df4f9b17ad2b417be66c3710",
         "7b0c785e27e8ad3f8223207104725dd4"},
    };
    for (const auto& c : cases) {
        auto pt = fromHex(c.pt);
        for (auto block : blockKernels) {
            std::uint8_t ct[16];
            block(aes.roundKeys(), pt.data(), ct);
            EXPECT_EQ(toHex(std::span<const std::uint8_t>(ct, 16)), c.ct);
        }
    }
}

TEST(Aes, InPlaceAliasedBuffers)
{
    Aes128 aes(keyFromHex("000102030405060708090a0b0c0d0e0f"));
    for (auto block : blockKernels) {
        auto buf = fromHex("00112233445566778899aabbccddeeff");
        block(aes.roundKeys(), buf.data(), buf.data());
        EXPECT_EQ(toHex(buf), "69c4e0d86a7b0430d8cdb78070b4c55a");
    }
}

TEST(Aes, TtableMatchesReferenceRandom)
{
    Rng rng(2026);
    for (int trial = 0; trial < 1000; ++trial) {
        AesKey key;
        rng.fill(key);
        Aes128 aes(key);
        AesBlock pt, fast, ref;
        rng.fill(pt);
        kernels::aesBlockPortable(aes.roundKeys(), pt.data(), fast.data());
        kernels::aesBlockReference(aes.roundKeys(), pt.data(), ref.data());
        ASSERT_EQ(fast, ref) << "trial " << trial;
        ASSERT_NE(fast, pt) << "trial " << trial;
    }
}

TEST(Aes, EncryptBlocksMatchesPerBlock)
{
    Rng rng(404);
    AesKey key;
    rng.fill(key);
    Aes128 aes(key);
    for (std::size_t nblocks : {1u, 2u, 3u, 7u, 8u, 9u, 16u, 256u}) {
        std::vector<std::uint8_t> in(nblocks * aesBlockSize);
        rng.fill(in);
        std::vector<std::uint8_t> bulk(in.size());
        kernels::aesBlocksPortable(aes.roundKeys(), in.data(), bulk.data(),
                                   nblocks);
        std::vector<std::uint8_t> single(in.size());
        for (std::size_t b = 0; b < nblocks; ++b)
            kernels::aesBlockPortable(aes.roundKeys(),
                                      in.data() + b * aesBlockSize,
                                      single.data() + b * aesBlockSize);
        EXPECT_EQ(bulk, single) << nblocks << " blocks";
        // Aliased in/out must give the same result.
        std::vector<std::uint8_t> aliased(in);
        kernels::aesBlocksPortable(aes.roundKeys(), aliased.data(),
                                   aliased.data(), nblocks);
        EXPECT_EQ(aliased, bulk) << nblocks << " blocks aliased";
    }
}

TEST(Aes, BulkInterleavedMatchesReferenceRandom)
{
    // 1000 random cases: the four-lane interleaved T-table kernel must
    // be byte-identical to the reference at every block count,
    // including the <4-block tail.
    Rng rng(0xb41c);
    for (int trial = 0; trial < 1000; ++trial) {
        AesKey key;
        rng.fill(key);
        Aes128 aes(key);
        std::size_t nblocks = 1 + static_cast<std::size_t>(
                                      rng.nextBounded(13));
        std::vector<std::uint8_t> in(nblocks * aesBlockSize);
        rng.fill(in);
        std::vector<std::uint8_t> a(in.size()), r(in.size());
        kernels::aesBlocksPortable(aes.roundKeys(), in.data(), a.data(),
                                   nblocks);
        for (std::size_t blk = 0; blk < nblocks; ++blk)
            kernels::aesBlockReference(aes.roundKeys(),
                                       in.data() + blk * aesBlockSize,
                                       r.data() + blk * aesBlockSize);
        ASSERT_EQ(a, r) << "trial " << trial << " blocks " << nblocks;
    }
}

TEST(Kernels, SelectionPrefersHardware)
{
    const kernels::Selection& s = kernels::selected();
    EXPECT_EQ(&s, &kernels::selected());
    // VAES where the host runs it, then AES-NI, then the portable one.
    kernels::AesCtrFn aes_hw = kernels::aesCtrHardware();
    kernels::AesCtrFn vaes = kernels::aesCtrVaes();
    EXPECT_EQ(aes_hw, vaes ? vaes : kernels::aesCtrAesni());
    EXPECT_EQ(s.aesCtr, aes_hw ? aes_hw : kernels::aesCtrPortable);
    kernels::Sha256CompressFn sha_hw = kernels::sha256CompressHardware();
    EXPECT_EQ(s.sha256Compress,
              sha_hw ? sha_hw : kernels::sha256CompressPortable);
    EXPECT_NE(s.aesCtrName, nullptr);
    EXPECT_NE(s.sha256CompressName, nullptr);
}

class CtrKernel : public ::testing::TestWithParam<CtrCase>
{
  protected:
    void
    SetUp() override
    {
        fn = GetParam().get();
        if (fn == nullptr)
            GTEST_SKIP() << "this host cannot run the " << GetParam().name
                         << " AES-CTR kernel (not x86-64, or CPUID "
                            "lacks its instructions)";
    }

    kernels::AesCtrFn fn = nullptr;
};

TEST_P(CtrKernel, Fips197Keystream)
{
    // FIPS-197 appendix C.1 as a keystream: the first CTR block is
    // E_k(IV). 256 bytes, so a batching kernel runs its batch path.
    Aes128 aes(keyFromHex("000102030405060708090a0b0c0d0e0f"));
    Iv iv = ivFromHex("00112233445566778899aabbccddeeff");
    std::vector<std::uint8_t> zeros(256, 0), ks(256);
    fn(aes.roundKeys(), iv, zeros.data(), ks.data(), ks.size());
    EXPECT_EQ(toHex(std::span<const std::uint8_t>(ks.data(), 16)),
              "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST_P(CtrKernel, Sp80038aF511)
{
    // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, in place and not.
    Aes128 aes(keyFromHex("2b7e151628aed2a6abf7158809cf4f3c"));
    Iv iv = ivFromHex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
    auto pt = fromHex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52ef"
        "f69f2445df4f9b17ad2b417be66c3710");
    const char* expect =
        "874d6191b620e3261bef6864990db6ce"
        "9806f66b7970fdff8617187bb9fffdff"
        "5ae4df3edbd5d35e5b4f09020db03eab"
        "1e031dda2fbe03d1792170a0f3009cee";
    std::vector<std::uint8_t> ct(pt.size());
    fn(aes.roundKeys(), iv, pt.data(), ct.data(), pt.size());
    EXPECT_EQ(toHex(ct), expect);
    fn(aes.roundKeys(), iv, pt.data(), pt.data(), pt.size());
    EXPECT_EQ(toHex(pt), expect);
}

TEST_P(CtrKernel, CounterSemanticsPinned)
{
    // Block i's counter is the IV's fixed high 64 bits followed by its
    // low 64 bits plus i, big-endian, wrapping modulo 2^64 with no
    // carry into byte 7. The expected keystream is built one block at
    // a time from the reference block cipher with each counter written
    // out explicitly. Lengths cover a partial tail, wraps inside an
    // 8-block AES-NI batch (low ...fffc: blocks 4+ have wrapped) and
    // inside a 16-block VAES batch (low ...fff6: blocks 10+), and one
    // VAES batch followed by every tail of 1-255 bytes, which the VAES
    // kernel hands to AES-NI (low ...fff0: the tail starts at the
    // wrap).
    Rng rng(0xc0de);
    AesKey key;
    rng.fill(key);
    Aes128 aes(key);
    const std::uint64_t lows[] = {
        0xfeull, 0xffull, 0xffffffffffffffffull, 0xfffffffffffffffcull,
        0xfffffffffffffff6ull, 0xfffffffffffffff0ull,
        0x00000000ffffffffull, 0x00ffffffffffffffull};
    std::vector<std::size_t> lens = {16, 48, 129, 200, 4096};
    for (std::size_t tail = 1; tail < 256; ++tail)
        lens.push_back(256 + tail);
    const std::uint64_t highs[] = {0, 0x0123456789abcdefull,
                                   0xffffffffffffffffull};
    for (std::uint64_t high : highs) {
        for (std::uint64_t low : lows) {
            Iv iv;
            storeBe64(iv.data(), high);
            storeBe64(iv.data() + 8, low);
            for (std::size_t len : lens) {
                std::vector<std::uint8_t> expect(len);
                for (std::size_t b = 0; b * aesBlockSize < len; ++b) {
                    AesBlock ctr, ks;
                    storeBe64(ctr.data(), high);
                    storeBe64(ctr.data() + 8, low + b);
                    kernels::aesBlockReference(aes.roundKeys(),
                                               ctr.data(), ks.data());
                    for (std::size_t i = 0;
                         i < aesBlockSize && b * aesBlockSize + i < len;
                         ++i)
                        expect[b * aesBlockSize + i] = ks[i];
                }
                std::vector<std::uint8_t> zeros(len, 0), got(len);
                fn(aes.roundKeys(), iv, zeros.data(), got.data(), len);
                ASSERT_EQ(got, expect)
                    << std::hex << "high " << high << " low " << low
                    << std::dec << " len " << len;
            }
        }
    }
}

TEST_P(CtrKernel, DifferentialVsReference)
{
    // 1000 random (key, IV, length, offset) cases: the kernel must be
    // byte-identical to the byte-wise reference, including unaligned
    // buffers, in-place operation and lengths that are not multiples
    // of the batch or block size.
    Rng rng(0xd1ff);
    std::vector<std::uint8_t> arena(4096 + 64);
    for (int trial = 0; trial < 1000; ++trial) {
        AesKey key;
        rng.fill(key);
        Aes128 aes(key);
        Iv iv;
        rng.fill(iv);
        std::size_t offset = static_cast<std::size_t>(rng.nextBounded(64));
        std::size_t len = static_cast<std::size_t>(
            rng.nextBounded(trial % 10 == 0 ? 4097 : 301));
        rng.fill(std::span<std::uint8_t>(arena.data() + offset, len));
        const std::uint8_t* pt = arena.data() + offset;
        std::vector<std::uint8_t> a(len), b(len), in_place(pt, pt + len);
        fn(aes.roundKeys(), iv, pt, a.data(), len);
        kernels::aesCtrReference(aes.roundKeys(), iv, pt, b.data(), len);
        ASSERT_EQ(a, b) << "trial " << trial << " len " << len
                        << " offset " << offset;
        fn(aes.roundKeys(), iv, in_place.data(), in_place.data(), len);
        ASSERT_EQ(in_place, b) << "trial " << trial << " in place";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, CtrKernel, ::testing::ValuesIn(ctrCases),
    [](const ::testing::TestParamInfo<CtrCase>& info) {
        return std::string(info.param.name);
    });

TEST(Ctr, Sp80038aF511)
{
    // The same NIST vector through the public entry point, whichever
    // kernel this host selected.
    Aes128 aes(keyFromHex("2b7e151628aed2a6abf7158809cf4f3c"));
    Iv iv = ivFromHex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
    auto pt = fromHex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52ef"
        "f69f2445df4f9b17ad2b417be66c3710");
    std::vector<std::uint8_t> ct(pt.size());
    aesCtrXcrypt(aes, iv, pt, ct);
    EXPECT_EQ(toHex(ct),
              "874d6191b620e3261bef6864990db6ce"
              "9806f66b7970fdff8617187bb9fffdff"
              "5ae4df3edbd5d35e5b4f09020db03eab"
              "1e031dda2fbe03d1792170a0f3009cee");
}

TEST(Ctr, RoundTripArbitraryLengths)
{
    Rng rng(77);
    AesKey key;
    rng.fill(key);
    Aes128 aes(key);
    for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 4096u}) {
        std::vector<std::uint8_t> pt(len);
        rng.fill(pt);
        Iv iv;
        rng.fill(iv);
        std::vector<std::uint8_t> ct(pt);
        aesCtrXcryptInPlace(aes, iv, ct);
        if (len >= 16) {
            EXPECT_NE(pt, ct);
        }
        aesCtrXcryptInPlace(aes, iv, ct);
        EXPECT_EQ(pt, ct);
    }
}

TEST(Ctr, DifferentIvsGiveDifferentCiphertext)
{
    Rng rng(9);
    AesKey key;
    rng.fill(key);
    Aes128 aes(key);
    std::vector<std::uint8_t> pt(64, 0xaa);
    Iv iv1{}, iv2{};
    iv2[15] = 1;
    std::vector<std::uint8_t> c1(pt), c2(pt);
    aesCtrXcryptInPlace(aes, iv1, c1);
    aesCtrXcryptInPlace(aes, iv2, c2);
    EXPECT_NE(c1, c2);
}

TEST(Ctr, CounterCarryPropagates)
{
    // IV ending in ff..ff must carry into higher counter bytes rather
    // than repeating the keystream block.
    AesKey key{};
    Aes128 aes(key);
    Iv iv{};
    for (int i = 8; i < 16; ++i)
        iv[static_cast<std::size_t>(i)] = 0xff;
    std::vector<std::uint8_t> zeros(48, 0);
    std::vector<std::uint8_t> ks(48);
    aesCtrXcrypt(aes, iv, zeros, ks);
    // Keystream blocks must be pairwise distinct.
    EXPECT_NE(std::vector<std::uint8_t>(ks.begin(), ks.begin() + 16),
              std::vector<std::uint8_t>(ks.begin() + 16, ks.begin() + 32));
    EXPECT_NE(std::vector<std::uint8_t>(ks.begin() + 16, ks.begin() + 32),
              std::vector<std::uint8_t>(ks.begin() + 32, ks.end()));
}

class ShaKernel : public ::testing::TestWithParam<Kernel>
{
  protected:
    void
    SetUp() override
    {
        fn = shaKernel(GetParam());
        if (fn == nullptr)
            GTEST_SKIP() << "this host has no SHA-256 hardware kernel "
                            "(not x86-64, or CPUID lacks SHA-NI)";
    }

    kernels::Sha256CompressFn fn = nullptr;
};

TEST_P(ShaKernel, Fips180Vectors)
{
    struct { std::string msg; const char* digest; } cases[] = {
        {"",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        {"abc",
         "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
        {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
         "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
        {std::string(1000000, 'a'),
         "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
    };
    for (const auto& c : cases)
        EXPECT_EQ(toHex(hashWith(fn, bytesOf(c.msg))), c.digest);
}

TEST_P(ShaKernel, DifferentialVsReference)
{
    // 1000 random (length, content) cases through the kernel, all
    // blocks in one call, against the plain FIPS 180-4 loop — across
    // block boundaries and the padding tail. The public Sha256 (the
    // host's selected kernel) must agree too.
    Rng rng(0x5a25);
    for (int trial = 0; trial < 1000; ++trial) {
        std::size_t len = static_cast<std::size_t>(
            rng.nextBounded(trial % 10 == 0 ? 4097 : 300));
        std::vector<std::uint8_t> data(len);
        rng.fill(data);
        Digest ref = hashWith(kernels::sha256CompressReference, data);
        ASSERT_EQ(hashWith(fn, data), ref)
            << "trial " << trial << " len " << len;
        ASSERT_EQ(Sha256::hash(data), ref)
            << "trial " << trial << " len " << len;
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, ShaKernel,
                         ::testing::Values(Kernel::Reference,
                                           Kernel::Portable,
                                           Kernel::Hardware),
                         kernelName);

TEST(Sha256, Fips180Vectors)
{
    struct { const char* msg; const char* digest; } cases[] = {
        {"",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        {"abc",
         "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
        {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
         "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
    };
    for (const auto& c : cases) {
        Sha256 ctx;
        ctx.update(std::string(c.msg));
        EXPECT_EQ(toHex(ctx.final()), c.digest);
    }
}

TEST(Sha256, MillionAs)
{
    // FIPS 180-4: one million repetitions of 'a'.
    Sha256 ctx;
    std::vector<std::uint8_t> chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        ctx.update(chunk);
    EXPECT_EQ(toHex(ctx.final()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    Rng rng(31);
    std::vector<std::uint8_t> data(1000);
    rng.fill(data);
    Digest oneshot = Sha256::hash(data);
    // Split at many odd boundaries.
    for (std::size_t split : {1u, 7u, 63u, 64u, 65u, 500u, 999u}) {
        Sha256 ctx;
        ctx.update(std::span<const std::uint8_t>(data.data(), split));
        // An empty span (null data) between two parts changes nothing.
        ctx.update(std::span<const std::uint8_t>());
        ctx.update(std::span<const std::uint8_t>(data.data() + split,
                                                 data.size() - split));
        EXPECT_EQ(ctx.final(), oneshot);
    }
}

TEST(Hmac, Rfc4231Case1)
{
    std::vector<std::uint8_t> key(20, 0x0b);
    std::string msg = "Hi There";
    auto mac = hmacSha256(key, std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
    EXPECT_EQ(toHex(mac),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2)
{
    std::string key = "Jefe";
    std::string msg = "what do ya want for nothing?";
    auto mac = hmacSha256(
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
    EXPECT_EQ(toHex(mac),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3)
{
    std::vector<std::uint8_t> key(20, 0xaa);
    std::vector<std::uint8_t> msg(50, 0xdd);
    auto mac = hmacSha256(key, msg);
    EXPECT_EQ(toHex(mac),
              "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey)
{
    // Key longer than the block size must be hashed first.
    std::vector<std::uint8_t> key(131, 0xaa);
    std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
    auto mac = hmacSha256(key, std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
    EXPECT_EQ(toHex(mac),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, MidstateMatchesOneShotRfc4231)
{
    // Every RFC 4231 vector must hold through the prepared-key
    // midstate path and the streaming context as well.
    struct { std::vector<std::uint8_t> key, msg; const char* mac; } cases[] = {
        {std::vector<std::uint8_t>(20, 0x0b),
         {'H', 'i', ' ', 'T', 'h', 'e', 'r', 'e'},
         "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
        {{'J', 'e', 'f', 'e'},
         {'w', 'h', 'a', 't', ' ', 'd', 'o', ' ', 'y', 'a', ' ', 'w',
          'a', 'n', 't', ' ', 'f', 'o', 'r', ' ', 'n', 'o', 't', 'h',
          'i', 'n', 'g', '?'},
         "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
        {std::vector<std::uint8_t>(20, 0xaa),
         std::vector<std::uint8_t>(50, 0xdd),
         "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
    };
    for (const auto& c : cases) {
        HmacKey prepared{std::span<const std::uint8_t>(c.key)};
        EXPECT_EQ(toHex(hmacSha256(prepared, c.msg)), c.mac);
        HmacSha256 ctx(prepared);
        for (std::uint8_t byte : c.msg)
            ctx.update(std::span<const std::uint8_t>(&byte, 1));
        EXPECT_EQ(toHex(ctx.final()), c.mac);
    }
}

TEST(Hmac, MidstateReusableAcrossMessages)
{
    // One prepared key, many MACs: each must equal the one-shot MAC,
    // including for keys longer than the block size (hashed first).
    Rng rng(555);
    for (std::size_t key_len : {1u, 32u, 64u, 65u, 131u}) {
        std::vector<std::uint8_t> key(key_len);
        rng.fill(key);
        HmacKey prepared{std::span<const std::uint8_t>(key)};
        for (std::size_t msg_len : {0u, 1u, 55u, 64u, 200u, 1096u}) {
            std::vector<std::uint8_t> msg(msg_len);
            rng.fill(msg);
            EXPECT_EQ(hmacSha256(prepared, msg), hmacSha256(key, msg))
                << "key " << key_len << " msg " << msg_len;
        }
    }
}

/** The MAC a handle's sealing key puts on one fixed message. */
Digest
sealingMac(const KeyHandle& handle)
{
    static constexpr std::uint8_t msg[] = {'o', 's', 'h', '-', 's', 'e',
                                           'a', 'l'};
    return hmacSha256(handle.sealingHmac(), msg);
}

TEST(Keys, StableDerivation)
{
    KeyManager km(1234);
    KeyHandle h = km.acquire(7);
    KeyHandle again = km.acquire(7);
    EXPECT_EQ(&h.cipher(), &again.cipher());
    EXPECT_EQ(&h.sealingHmac(), &again.sealingHmac());
    EXPECT_EQ(again.keyId(), 7u);
    EXPECT_EQ(km.derivedKeyCount(), 1u);
}

TEST(Keys, DistinctResourcesGetDistinctKeys)
{
    KeyManager km(1234);
    EXPECT_NE(km.acquire(1).cipher().roundKeys().bytes,
              km.acquire(2).cipher().roundKeys().bytes);
    EXPECT_EQ(km.derivedKeyCount(), 2u);
}

TEST(Keys, DifferentMasterSeedsDiffer)
{
    KeyManager a(1), b(2);
    EXPECT_NE(a.acquire(1).cipher().roundKeys().bytes,
              b.acquire(1).cipher().roundKeys().bytes);
    EXPECT_NE(sealingMac(a.acquire(1)), sealingMac(b.acquire(1)));
}

TEST(Keys, DistinctResourcesGetDistinctSealingKeys)
{
    KeyManager km(99);
    EXPECT_NE(sealingMac(km.acquire(1)), sealingMac(km.acquire(2)));
}

TEST(Keys, MaterialLivesAsLongAsItsHandles)
{
    KeyManager km(1234);
    KeyHandle h = km.acquire(7);
    Digest mac = sealingMac(h);
    {
        KeyHandle alias = h; // A fork clone copies the handle.
        h = KeyHandle();
        EXPECT_EQ(km.liveKeyCount(), 1u);
        EXPECT_EQ(sealingMac(alias), mac);
    }
    // The last handle died: the entry is gone, the count is not.
    EXPECT_EQ(km.liveKeyCount(), 0u);
    EXPECT_EQ(km.derivedKeyCount(), 1u);

    // Re-deriving gives the same key and counts again.
    KeyHandle again = km.acquire(7);
    EXPECT_EQ(sealingMac(again), mac);
    EXPECT_EQ(km.liveKeyCount(), 1u);
    EXPECT_EQ(km.derivedKeyCount(), 2u);
}

TEST(Keys, HandleMayOutliveItsManager)
{
    KeyHandle h;
    Digest mac{};
    {
        KeyManager km(5);
        h = km.acquire(3);
        mac = sealingMac(h);
    }
    EXPECT_TRUE(h.valid());
    EXPECT_EQ(sealingMac(h), mac);
}

// Parameterized property sweep: CTR round-trips across sizes and seeds.
class CtrRoundTrip : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CtrRoundTrip, Holds)
{
    auto [seed, len] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed));
    AesKey key;
    rng.fill(key);
    Aes128 aes(key);
    Iv iv;
    rng.fill(iv);
    std::vector<std::uint8_t> pt(static_cast<std::size_t>(len));
    rng.fill(pt);
    std::vector<std::uint8_t> ct(pt);
    aesCtrXcryptInPlace(aes, iv, ct);
    aesCtrXcryptInPlace(aes, iv, ct);
    EXPECT_EQ(ct, pt);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CtrRoundTrip,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(1, 16, 255, 4096)));

} // namespace
} // namespace osh::crypto
