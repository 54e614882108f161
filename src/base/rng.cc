#include "base/rng.hh"

#include "base/logging.hh"

namespace osh
{

namespace
{

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto& s : s_)
        s = splitmix64(sm);
}

std::uint64_t
Rng::next64()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    osh_assert(bound != 0, "nextBounded requires a nonzero bound");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next64();
        if (r >= threshold)
            return r % bound;
    }
}

double
Rng::nextDouble()
{
    return static_cast<double>(next64() >> 11) * 0x1.0p-53;
}

void
Rng::fill(std::span<std::uint8_t> out)
{
    std::size_t i = 0;
    while (i + 8 <= out.size()) {
        std::uint64_t v = next64();
        for (int b = 0; b < 8; ++b)
            out[i++] = static_cast<std::uint8_t>(v >> (8 * b));
    }
    if (i < out.size()) {
        std::uint64_t v = next64();
        for (int b = 0; i < out.size(); ++b)
            out[i++] = static_cast<std::uint8_t>(v >> (8 * b));
    }
}

} // namespace osh
