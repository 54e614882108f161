/**
 * @file
 * Lightweight named statistics counters.
 *
 * Each simulator component owns a StatGroup and registers named counters
 * in it. Benchmarks and tests read counters by name; examples dump whole
 * groups. This is a deliberately tiny sibling of gem5's stats package.
 */

#ifndef OSH_BASE_STATS_HH
#define OSH_BASE_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace osh
{

class StatGroup;

/** A single monotonically increasing counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t delta = 1) { value_ += delta; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** A named collection of counters belonging to one component. */
class StatGroup
{
  public:
    /** @param name Component name used as a prefix when dumping. */
    explicit StatGroup(std::string name);

    /**
     * Get or create the counter with the given name. References remain
     * valid for the lifetime of the group.
     */
    Counter& counter(const std::string& name);

    /** Value of a named counter (0 if it was never created). */
    std::uint64_t value(const std::string& name) const;

    /** Reset every counter in the group. */
    void resetAll();

    /** Render "group.counter value" lines, sorted by counter name. */
    std::string dump() const;

    const std::string& name() const { return name_; }

    /** Snapshot of all counters, sorted by name. */
    std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
};

/**
 * A counter of some StatGroup, looked up by name on first use and by
 * pointer after that: for counters bumped on every simulated access,
 * where building the name and searching the map would dominate. The
 * counter is created on first use, as a plain counter() call would, so
 * dump() output does not change. A copied slot starts unresolved, so
 * the copy of an owner never points into the original's group.
 */
class CounterSlot
{
  public:
    CounterSlot() = default;
    CounterSlot(const CounterSlot&) {}
    CounterSlot&
    operator=(const CounterSlot&)
    {
        counter_ = nullptr;
        return *this;
    }

    /** The counter @p name of @p group, which must be the same group
     *  on every call. */
    Counter&
    get(StatGroup& group, const char* name)
    {
        if (counter_ == nullptr)
            counter_ = &group.counter(name);
        return *counter_;
    }

  private:
    Counter* counter_ = nullptr;
};

} // namespace osh

#endif // OSH_BASE_STATS_HH
