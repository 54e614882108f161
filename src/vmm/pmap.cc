#include "vmm/pmap.hh"

#include "base/logging.hh"

namespace osh::vmm
{

constexpr StatNames pmapStat{"frames_backed"};

Pmap::Pmap(sim::Machine& machine, std::uint64_t guest_frames)
    : machine_(machine), backing_(guest_frames, badAddr),
      stats_("pmap", pmapStat.names)
{
    if (guest_frames > machine.memory().numFrames()) {
        osh_fatal("guest physical memory (%llu frames) exceeds machine "
                  "memory (%llu frames)",
                  static_cast<unsigned long long>(guest_frames),
                  static_cast<unsigned long long>(
                      machine.memory().numFrames()));
    }
}

Mpa
Pmap::translate(Gpa gpa)
{
    std::uint64_t frame = pageNumber(gpa);
    osh_assert(frame < backing_.size(),
               "gpa 0x%llx outside guest physical memory",
               static_cast<unsigned long long>(gpa));
    if (backing_[frame] == badAddr) {
        osh_assert(nextFrame_ < machine_.memory().numFrames(),
                   "machine out of frames backing guest memory");
        backing_[frame] = nextFrame_ * pageSize;
        ++nextFrame_;
        stats_.inc(pmapStat("frames_backed"));
    }
    return backing_[frame] + pageOffset(gpa);
}

bool
Pmap::isBacked(Gpa gpa) const
{
    std::uint64_t frame = pageNumber(gpa);
    return frame < backing_.size() && backing_[frame] != badAddr;
}

} // namespace osh::vmm
