#include "base/stats.hh"

#include "base/logging.hh"

#include <algorithm>

namespace osh
{

StatGroup::StatGroup(std::string name, std::span<const char* const> names)
    : name_(std::move(name))
{
    slots_.reserve(names.size());
    for (const char* n : names)
        slots_.push_back(Slot{n});
}

StatSlot
StatGroup::add(std::string name)
{
    slots_.push_back(Slot{std::move(name)});
    return StatSlot{static_cast<std::uint16_t>(slots_.size() - 1)};
}

std::uint64_t
StatGroup::value(std::string_view name) const
{
    for (const Slot& s : slots_) {
        if (s.name == name)
            return s.value;
    }
    return 0;
}

std::string
StatGroup::dump() const
{
    std::string out;
    for (const auto& [name, value] : snapshot()) {
        out += formatString("%s.%s %llu\n", name_.c_str(), name.c_str(),
                            static_cast<unsigned long long>(value));
    }
    return out;
}

std::vector<std::pair<std::string, std::uint64_t>>
StatGroup::snapshot() const
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const Slot& s : slots_) {
        if (s.touched)
            out.emplace_back(s.name, s.value);
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace osh
