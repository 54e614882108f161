/**
 * @file
 * Control-flow exceptions used to unwind guest threads.
 *
 * Guest programs are host C++ functions, so process exit and exec are
 * modelled as exceptions that unwind to the thread body installed by
 * the system layer. (vmm::ProcessKilled plays the same role for
 * involuntary termination.)
 */

#ifndef OSH_OS_EXCEPTIONS_HH
#define OSH_OS_EXCEPTIONS_HH

#include "base/types.hh"

namespace osh::os
{

/** Thrown by sys_exit to unwind the calling guest thread. */
struct ThreadExit
{
    int status;
};

/**
 * Thrown by the Env exec wrapper after the kernel prepared a new
 * program image; the thread body catches it and enters the new
 * program's main (the kernel already recorded its name and argv on
 * the Process).
 */
struct ExecRequested
{
};

} // namespace osh::os

#endif // OSH_OS_EXCEPTIONS_HH
