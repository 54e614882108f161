/**
 * @file
 * The mutation harness's one generator. A decoder of bytes another
 * party controls must meet every mutant of a valid encoding with a
 * typed refusal or a decode that re-encodes to exactly the mutant:
 * anything else is a silent accept of bytes it did not write.
 */

#ifndef OSH_TESTS_MUTATE_HH
#define OSH_TESTS_MUTATE_HH

#include <cstdint>
#include <vector>

namespace osh::test
{

/** Call @p check with every single-bit flip of @p bytes, then with
 *  every proper prefix (a cut at every length). */
template <typename Check>
void
forEachMutant(const std::vector<std::uint8_t>& bytes, Check check)
{
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        std::vector<std::uint8_t> flipped = bytes;
        flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        check(flipped);
    }
    for (std::size_t len = 0; len < bytes.size(); ++len)
        check(std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + len));
}

} // namespace osh::test

#endif // OSH_TESTS_MUTATE_HH
