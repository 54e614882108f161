#include "os/frames.hh"

#include "base/logging.hh"

namespace osh::os
{

constexpr StatNames framesStat{"allocations", "frees"};

FrameAllocator::FrameAllocator(std::uint64_t num_frames)
    : frames_(num_frames), freeCount_(num_frames),
      stats_("frames", framesStat.names)
{
    osh_assert(num_frames > 0, "need at least one guest frame");
    freeList_.reserve(num_frames);
    // Push in reverse so allocation proceeds from low addresses.
    for (std::uint64_t i = num_frames; i > 0; --i)
        freeList_.push_back(i - 1);
}

std::uint64_t
FrameAllocator::frameIndex(Gpa gpa) const
{
    std::uint64_t idx = pageNumber(gpa);
    osh_assert(idx < frames_.size(), "gpa 0x%llx out of range",
               static_cast<unsigned long long>(gpa));
    return idx;
}

std::optional<Gpa>
FrameAllocator::allocate(FrameUse use)
{
    if (freeList_.empty())
        return std::nullopt;
    std::uint64_t idx = freeList_.back();
    freeList_.pop_back();
    --freeCount_;
    FrameInfo& fi = frames_[idx];
    fi = FrameInfo{};
    fi.use = use;
    fi.refCount = 1;
    stats_.inc(framesStat("allocations"));
    return idx * pageSize;
}

void
FrameAllocator::ref(Gpa gpa)
{
    FrameInfo& fi = frames_[frameIndex(gpa)];
    osh_assert(fi.use != FrameUse::Free, "ref of free frame");
    ++fi.refCount;
}

bool
FrameAllocator::unref(Gpa gpa)
{
    std::uint64_t idx = frameIndex(gpa);
    FrameInfo& fi = frames_[idx];
    osh_assert(fi.use != FrameUse::Free && fi.refCount > 0,
               "unref of free frame 0x%llx",
               static_cast<unsigned long long>(gpa));
    if (--fi.refCount > 0)
        return false;
    fi = FrameInfo{};
    freeList_.push_back(idx);
    ++freeCount_;
    stats_.inc(framesStat("frees"));
    return true;
}

FrameInfo&
FrameAllocator::info(Gpa gpa)
{
    return frames_[frameIndex(gpa)];
}

const FrameInfo&
FrameAllocator::info(Gpa gpa) const
{
    return frames_[frameIndex(gpa)];
}

std::optional<Gpa>
FrameAllocator::nextEvictionCandidate()
{
    if (usedFrames() == 0)
        return std::nullopt;
    for (std::uint64_t scanned = 0; scanned < frames_.size(); ++scanned) {
        std::uint64_t idx = clockHand_;
        clockHand_ = (clockHand_ + 1) % frames_.size();
        if (frames_[idx].use != FrameUse::Free)
            return idx * pageSize;
    }
    return std::nullopt;
}

} // namespace osh::os
