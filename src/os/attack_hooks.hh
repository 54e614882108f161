/**
 * @file
 * Injection points for a hostile guest kernel.
 *
 * AttackHooks is the kernel's one hostile seam: every attack a
 * compromised OS mounts in this simulator — the attack campaign's
 * director as well as hand-written attackers in tests and demos —
 * interposes through it on the kernel touchpoints of application
 * state: syscall entry (snoop/scribble/trap-frame probes), syscall
 * results (Iago-style forged return values), read() returns, the
 * SubmitBatch ring, swap-out/-in (tamper, replay, resurrection), slot
 * release (a hostile disk keeps copies the device itself scrubs), and
 * the fsync/exec boundaries where sealed metadata bundles are exposed.
 *
 * Every hook runs *inside* the kernel, in kernel mode, with the full
 * kernel view — exactly the vantage point of a compromised commodity
 * OS. Hooks default to no-ops; a kernel with no attacker installed
 * holds a plain AttackHooks instance and behaves honestly.
 */

#ifndef OSH_OS_ATTACK_HOOKS_HH
#define OSH_OS_ATTACK_HOOKS_HH

#include "base/types.hh"
#include "os/syscalls.hh"

#include <cstdint>
#include <span>
#include <string>

namespace osh::os
{

class Kernel;
class Thread;

using SwapSlot = std::uint64_t;
using InodeId = std::uint64_t;

/** Hostile-kernel interposition interface (see file comment). */
class AttackHooks
{
  public:
    virtual ~AttackHooks() = default;

    /**
     * A syscall trapped into the kernel. Runs after the trap-frame is
     * available and before dispatch, inside the kernel-mode guard: the
     * hook may read/write user memory through the kernel view, probe
     * the register file, or rewire guest translations.
     */
    virtual void onSyscallEntry(Kernel& kernel, Thread& thread)
    {
        (void)kernel;
        (void)thread;
    }

    /**
     * Syscall @p num (arguments @p args) was dispatched and is about to
     * return @p rv to the caller. A hostile kernel may forge the result
     * here (an Iago attack): a length larger than the request, a bogus
     * errno, an address the caller never asked for.
     */
    virtual void onSyscallReturn(Kernel& kernel, Thread& thread, Sys num,
                                 const SyscallArgs& args, std::int64_t& rv)
    {
        (void)kernel;
        (void)thread;
        (void)num;
        (void)args;
        (void)rv;
    }

    /**
     * read() is about to return @p len bytes copied to user @p buf; a
     * hostile kernel may rewrite them (buffer corruption).
     */
    virtual void onReadReturn(Kernel& kernel, Thread& thread, GuestVA buf,
                              std::uint64_t len)
    {
        (void)kernel;
        (void)thread;
        (void)buf;
        (void)len;
    }

    /**
     * A page was written to swap slot @p slot. @p replay_key identifies
     * the (asid, va page) owner so replay attacks can match versions.
     * The hook may tamper with the slot via Kernel::swap().rawSlot().
     */
    virtual void onSwapOut(Kernel& kernel, SwapSlot slot,
                           std::uint64_t replay_key)
    {
        (void)kernel;
        (void)slot;
        (void)replay_key;
    }

    /**
     * A page was read back from swap into @p page and is about to be
     * installed. The hook may substitute arbitrary bytes (replay /
     * resurrection from a hostile disk's own copies).
     */
    virtual void onSwapIn(Kernel& kernel, SwapSlot slot,
                          std::uint64_t replay_key,
                          std::span<std::uint8_t> page)
    {
        (void)kernel;
        (void)slot;
        (void)replay_key;
        (void)page;
    }

    /**
     * Slot @p slot is about to be released (and scrubbed by the
     * device). A hostile disk copies the bytes first, enabling
     * freed-slot resurrection regardless of the scrub.
     */
    virtual void onSwapRelease(Kernel& kernel, SwapSlot slot)
    {
        (void)kernel;
        (void)slot;
    }

    /**
     * A SubmitBatch ring passed range validation and is about to be
     * copied out of user memory (the kernel's single copy). The ring
     * lives in uncloaked memory, so a hostile kernel may rewrite
     * descriptors here — anything it plants is what the kernel will
     * faithfully dispatch, and the shim's completion validation must
     * catch the damage.
     */
    virtual void onBatchSubmit(Kernel& kernel, Thread& thread,
                               GuestVA sub_va, std::uint64_t count)
    {
        (void)kernel;
        (void)thread;
        (void)sub_va;
        (void)count;
    }

    /**
     * SubmitBatch wrote @p count completions to @p comp_va and is about
     * to return. A hostile kernel may forge results/echo tokens here —
     * after the kernel's writes, before the (cloaked) caller reads them.
     */
    virtual void onBatchComplete(Kernel& kernel, Thread& thread,
                                 GuestVA comp_va, std::uint64_t count)
    {
        (void)kernel;
        (void)thread;
        (void)comp_va;
        (void)count;
    }

    /**
     * fsync(@p inode) completed writeback. Sealed metadata bundles are
     * at rest now — the boundary where a hostile kernel corrupts,
     * truncates or rolls them back.
     */
    virtual void onFsync(Kernel& kernel, Thread& thread, InodeId inode)
    {
        (void)kernel;
        (void)thread;
        (void)inode;
    }

    /**
     * exec(@p program) rebuilt the process image (old domain already
     * torn down, its file metadata sealed); second sealed-bundle attack
     * boundary.
     */
    virtual void onExec(Kernel& kernel, Thread& thread,
                        const std::string& program)
    {
        (void)kernel;
        (void)thread;
        (void)program;
    }
};

} // namespace osh::os

#endif // OSH_OS_ATTACK_HOOKS_HH
