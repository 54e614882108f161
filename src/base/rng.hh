/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Everything in the simulator that needs randomness (workload data, IV
 * generation in the cloak engine, scheduler tie-breaking in tests) draws
 * from an explicitly seeded Rng so that runs are exactly reproducible.
 * The generator is xoshiro256** seeded via SplitMix64.
 */

#ifndef OSH_BASE_RNG_HH
#define OSH_BASE_RNG_HH

#include <cstdint>
#include <span>

namespace osh
{

/**
 * One SplitMix64 step: advances @p state and returns its next output.
 * The one mixer behind every private stream (workload data, the
 * virtual clock, the shim's nonces, the attack director).
 */
inline std::uint64_t
splitmix64(std::uint64_t& state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Deterministic xoshiro256** generator. */
class Rng
{
  public:
    /** Default seed ("OVERSHAD" in ASCII). */
    static constexpr std::uint64_t defaultSeed = 0x4f56455253484144ull;

    /** Construct from a 64-bit seed (expanded with SplitMix64). */
    explicit Rng(std::uint64_t seed = defaultSeed);

    /** Next uniformly distributed 64-bit value. */
    std::uint64_t next64();

    /** Uniform value in [0, bound); bound must be nonzero. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Fill a byte span with random data. */
    void fill(std::span<std::uint8_t> out);

  private:
    std::uint64_t s_[4];
};

} // namespace osh

#endif // OSH_BASE_RNG_HH
