/**
 * @file
 * Guest workload programs.
 *
 * Stand-ins for the paper's evaluation workloads, matched by resource
 * profile rather than by name:
 *
 *   - compute kernels (matmul, sort, stream, pointer-chase, histogram,
 *     stencil): SPEC-CPU-like, almost no kernel interaction;
 *   - a file server: I/O-intensive request loop over a data file
 *     (Apache with static files);
 *   - a build driver: process-creation-heavy fork/spawn + pipe tree
 *     (parallel compilation);
 *   - microbenchmark helpers used by the syscall-latency table.
 *
 * Every program is registered cloaked; on a System with cloaking
 * disabled the same programs run as the native baseline. All programs
 * are deterministic given the system seed and write a result checksum
 * to /results/<name>, which tests compare across native and cloaked
 * runs (the transparency property).
 */

#ifndef OSH_WORKLOADS_WORKLOADS_HH
#define OSH_WORKLOADS_WORKLOADS_HH

#include "system/system.hh"

#include <cstdint>
#include <string>
#include <vector>

namespace osh::workloads
{

/** Register every workload program on a system. */
void registerAll(system::System& sys);

/**
 * Expected exit status of `wl.tenant <idx> <pages>` on a system seeded
 * @p system_seed — a pure host-side mirror of the tenant's computation,
 * so the scale bench and the SMP tests can verify ten thousand cloaked
 * tenants without reading guest files.
 */
int tenantStatus(std::uint64_t system_seed, std::uint64_t tenant_idx,
                 std::uint64_t pages = 2);

// Attack-campaign victims --------------------------------------------------
//
// wl.victim.{compute,fork,fileio,paging} plant a plaintext sentinel in
// cloaked memory (and, for fileio, a protected file), do work in their
// resource category, and self-verify. Exit protocol: 0 = clean run,
// victimStatusRefused = a protected-file open was refused (the engine
// rejected tampered sealed metadata), victimStatusCorrupt = the victim
// observed silently corrupted cloaked data (a defense failure), any
// other nonzero = harness/setup trouble.

/** Names of the attack-victim programs (campaign matrix columns). */
const std::vector<std::string>& victimNames();

/**
 * The 64-bit plaintext sentinel a victim plants for @p system_seed.
 * Host-side oracles derive the same value to scan kernel-visible state.
 */
std::uint64_t attackSentinel(std::uint64_t system_seed);

constexpr int victimStatusRefused = 42;
constexpr int victimStatusCorrupt = 7;

/**
 * The balanced 32-bit secret (16 ones, 16 zeros, seeded shuffle) that
 * wl.victim.timing encodes purely into cloak-cache *behavior* — dirty
 * vs clean signal pages, metadata-LRU residency — never into any
 * kernel-visible byte. Balance makes chance recovery exactly 50%, so
 * the campaign's timing oracle can claim LEAK only when its
 * threshold-recovered bits beat chance decisively (>= 24/32 matches).
 */
std::vector<std::uint8_t> timingSecretBits(std::uint64_t system_seed);

/** Read a guest file's contents from the host (for verification). */
std::string readGuestFile(system::System& sys, const std::string& path);

/** Read the 16-hex-digit checksum a workload wrote to /results/. */
std::string resultOf(system::System& sys, const std::string& name);

/** Write a guest file from the host (test fixtures). */
void writeGuestFile(system::System& sys, const std::string& path,
                    const std::string& contents);

} // namespace osh::workloads

#endif // OSH_WORKLOADS_WORKLOADS_HH
