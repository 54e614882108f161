/**
 * @file
 * Lightweight named statistics counters.
 *
 * Each simulator component owns a StatGroup: a fixed set of counter
 * slots whose names the owner declares once, in one constexpr table.
 * Call sites name a counter by its literal, resolved to a slot index at
 * compile time (see StatNames), so incrementing never builds or searches
 * a string. Benchmarks and tests read counters by name; examples dump
 * whole groups. This is a deliberately tiny sibling of gem5's stats
 * package.
 */

#ifndef OSH_BASE_STATS_HH
#define OSH_BASE_STATS_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace osh
{

/** One counter of a StatGroup: its index in the group's name table. */
struct StatSlot
{
    std::uint16_t index;
};

/**
 * One owner's counter-name table, declared once next to the owner:
 *
 *     inline constexpr StatNames kernelStat{"forks", "swap_ins", ...};
 *     stats_.inc(kernelStat("swap_ins"));
 *
 * Calling the table with a name gives that counter's slot. The call
 * only runs at compile time: a name missing from the table reaches the
 * throw, which is not a constant expression, so a misspelt counter
 * fails the build.
 */
template <std::size_t N>
struct StatNames
{
    std::array<const char*, N> names;

    consteval StatSlot
    operator()(std::string_view name) const
    {
        for (std::size_t i = 0; i < N; ++i) {
            if (names[i] == name)
                return StatSlot{static_cast<std::uint16_t>(i)};
        }
        throw "unknown counter name";
    }
};

template <typename... Names>
StatNames(Names...) -> StatNames<sizeof...(Names)>;

/**
 * A named collection of counters belonging to one component. A counter
 * appears in dump() and snapshot() only once it has been incremented,
 * by any amount including 0; both list counters sorted by name.
 */
class StatGroup
{
  public:
    /**
     * @param name Component name used as a prefix when dumping.
     * @param names The owner's counter-name table; slot i is names[i].
     */
    StatGroup(std::string name, std::span<const char* const> names);

    /** Append a counter named at run time (a per-vCPU family). */
    StatSlot add(std::string name);

    /** Add @p delta to @p slot; even a 0 makes the slot appear. */
    void
    inc(StatSlot slot, std::uint64_t delta = 1)
    {
        Slot& s = slots_[slot.index];
        s.value += delta;
        s.touched = true;
    }

    /** Value of a named counter (0 if it was never incremented). */
    std::uint64_t value(std::string_view name) const;

    /** Render "group.counter value" lines, sorted by counter name. */
    std::string dump() const;

    const std::string& name() const { return name_; }

    /** Snapshot of all counters, sorted by name. */
    std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;

  private:
    struct Slot
    {
        std::string name;
        std::uint64_t value = 0;
        bool touched = false;
    };

    std::string name_;
    std::vector<Slot> slots_;
};

} // namespace osh

#endif // OSH_BASE_STATS_HH
