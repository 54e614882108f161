/**
 * @file
 * Guest virtual address-space layout.
 *
 * Fixed conventions shared by the kernel, the loader and the cloaked
 * shim. The kernel owns a direct map of all guest physical memory at
 * kernelBase (like Linux's physmap); applications live below userTop.
 * Cloaked applications additionally get two shim regions: a cloaked one
 * (thread contexts, shim-private data) and an uncloaked one (bounce
 * buffers the kernel is allowed to read during marshalled syscalls).
 */

#ifndef OSH_OS_LAYOUT_HH
#define OSH_OS_LAYOUT_HH

#include "base/types.hh"

namespace osh::os
{

/** Kernel direct map: VA = kernelBase + GPA. */
constexpr GuestVA kernelBase = 0x0000'8000'0000'0000ull;

/** Convert a GPA to its kernel direct-map VA. */
constexpr GuestVA
kernelVa(Gpa gpa)
{
    return kernelBase + gpa;
}

/** Top of user space. */
constexpr GuestVA userTop = 0x0000'7fff'ffff'f000ull;

/** Program image base (synthetic; nothing fetches from it). */
constexpr GuestVA codeBase = 0x0000'0000'0001'0000ull;

/** Heap / generic mmap arena (grows up). */
constexpr GuestVA mmapBase = 0x0000'0000'1000'0000ull;

/** File-mapping arena (grows up). */
constexpr GuestVA fileMapBase = 0x0000'0000'4000'0000ull;

/** End of the file-mapping arena. */
constexpr GuestVA shimCloakedBase = 0x0000'0000'6000'0000ull;

/** Base of the trampoline values below; nothing is mapped there (the
 *  shim maps its CTC page and bounce area from the mmap arena). */
constexpr GuestVA shimBounceBase = 0x0000'0000'6100'0000ull;

/** Stack: grows down from stackTop. */
constexpr GuestVA stackTop = 0x0000'0000'7ff0'0000ull;
constexpr std::uint64_t stackPages = 64;

/** PC/SP values the kernel sees after a scrubbed cloaked trap. */
constexpr GuestVA trampolinePc = shimBounceBase;
constexpr GuestVA trampolineSp = shimBounceBase + pageSize;

} // namespace osh::os

#endif // OSH_OS_LAYOUT_HH
