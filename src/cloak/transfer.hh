/**
 * @file
 * Secure control transfer.
 *
 * Every transition from a cloaked context into the kernel — system
 * call or asynchronous (timer) interrupt — is mediated here, exactly as
 * Overshadow's VMM mediates them:
 *
 *   1. the full register file is saved into the thread's cloaked
 *      thread context (CTC) page, and the VMM keeps a private copy of
 *      the serialized record;
 *   2. the registers the kernel does not need are scrubbed (for a
 *      syscall, r0..r5 carry the number and marshalled arguments; for
 *      an interrupt, nothing survives), and pc/sp are pointed at the
 *      uncloaked trampoline;
 *   3. the kernel runs;
 *   4. on return, the CTC is re-read, compared in constant time with
 *      the VMM-held copy, and the registers restored (with the syscall
 *      return value injected into r0).
 *
 * The CTC page is itself cloaked, so kernel tampering is caught both by
 * the page-integrity machinery and by the exact comparison. No hash is
 * needed on this path; a checkpoint records SHA-256 of the copy.
 */

#ifndef OSH_CLOAK_TRANSFER_HH
#define OSH_CLOAK_TRANSFER_HH

#include "base/types.hh"
#include "cloak/engine.hh"
#include "os/env.hh"

#include <functional>

namespace osh::cloak
{

/** Secure control transfer around a kernel entry. */
class SecureTransfer
{
  public:
    /** Wrap a system call (r0..r5 preserved for the kernel). */
    static std::int64_t aroundSyscall(CloakEngine& engine, DomainId domain,
                                      os::Env& env, os::Sys num,
                                      const os::SyscallArgs& args);

    /** Wrap an asynchronous interrupt (everything scrubbed). */
    static void aroundInterrupt(CloakEngine& engine, DomainId domain,
                                os::Env& env,
                                const std::function<void()>& kernel_work);

  private:
    static void saveToCtc(CloakEngine& engine, DomainId domain,
                          os::Env& env, GuestVA ctc_va);
    static void restoreFromCtc(CloakEngine& engine, DomainId domain,
                               os::Env& env, GuestVA ctc_va);
};

} // namespace osh::cloak

#endif // OSH_CLOAK_TRANSFER_HH
