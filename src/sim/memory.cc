#include "sim/memory.hh"

#include "base/bytes.hh"
#include "base/logging.hh"

#include <cerrno>
#include <cstring>

#include <sys/mman.h>

namespace osh::sim
{

MachineMemory::MachineMemory(std::uint64_t num_frames)
    : numFrames_(num_frames)
{
    osh_assert(num_frames > 0, "machine must have at least one frame");
    osh_assert(num_frames <= SIZE_MAX / pageSize,
               "machine memory size overflows the host address space");
    // Address space only: the host commits and zero-fills a page on its
    // first write. Not a vector or calloc: once a block this large is
    // freed, glibc raises its mmap threshold, so every later machine
    // would come from the heap and be zeroed up front again.
    void* p = ::mmap(nullptr, sizeBytes(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) {
        osh_panic("cannot map %llu bytes of machine memory: %s",
                  static_cast<unsigned long long>(sizeBytes()),
                  std::strerror(errno));
    }
    data_ = static_cast<std::uint8_t*>(p);
}

MachineMemory::~MachineMemory()
{
    ::munmap(data_, sizeBytes());
}

void
MachineMemory::check(Mpa addr, std::uint64_t len) const
{
    if (addr + len > sizeBytes() || addr + len < addr) {
        osh_panic("machine memory access out of range: "
                  "addr=0x%llx len=%llu size=%llu",
                  static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(len),
                  static_cast<unsigned long long>(sizeBytes()));
    }
}

void
MachineMemory::read(Mpa addr, std::span<std::uint8_t> out) const
{
    check(addr, out.size());
    std::memcpy(out.data(), data_ + addr, out.size());
}

void
MachineMemory::write(Mpa addr, std::span<const std::uint8_t> data)
{
    check(addr, data.size());
    std::memcpy(data_ + addr, data.data(), data.size());
}

std::uint8_t
MachineMemory::read8(Mpa addr) const
{
    check(addr, 1);
    return data_[addr];
}

std::uint16_t
MachineMemory::read16(Mpa addr) const
{
    check(addr, 2);
    return loadLe16(data_ + addr);
}

std::uint32_t
MachineMemory::read32(Mpa addr) const
{
    check(addr, 4);
    return loadLe32(data_ + addr);
}

std::uint64_t
MachineMemory::read64(Mpa addr) const
{
    check(addr, 8);
    return loadLe64(data_ + addr);
}

void
MachineMemory::write8(Mpa addr, std::uint8_t v)
{
    check(addr, 1);
    data_[addr] = v;
}

void
MachineMemory::write16(Mpa addr, std::uint16_t v)
{
    check(addr, 2);
    storeLe16(data_ + addr, v);
}

void
MachineMemory::write32(Mpa addr, std::uint32_t v)
{
    check(addr, 4);
    storeLe32(data_ + addr, v);
}

void
MachineMemory::write64(Mpa addr, std::uint64_t v)
{
    check(addr, 8);
    storeLe64(data_ + addr, v);
}

std::span<std::uint8_t>
MachineMemory::framePlain(Mpa frame_base)
{
    osh_assert(pageOffset(frame_base) == 0,
               "frame base must be page aligned");
    check(frame_base, pageSize);
    return {data_ + frame_base, pageSize};
}

std::span<const std::uint8_t>
MachineMemory::framePlain(Mpa frame_base) const
{
    osh_assert(pageOffset(frame_base) == 0,
               "frame base must be page aligned");
    check(frame_base, pageSize);
    return {data_ + frame_base, pageSize};
}

void
MachineMemory::zeroFrame(Mpa frame_base)
{
    auto frame = framePlain(frame_base);
    std::memset(frame.data(), 0, frame.size());
}

} // namespace osh::sim
