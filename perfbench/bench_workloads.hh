/**
 * @file
 * The three workloads of the repository benchmark.
 *
 *   - tenants:   waves of short cloaked wl.tenant processes on 4 vCPUs;
 *   - fileserve: a cloaked server that writes a protected file, then
 *                serves 1 KiB range reads, serially or batched;
 *   - paging:    a cloaked pager touching a working set twice the
 *                guest frame budget.
 *
 * A workload says how a System is configured, which guest processes
 * make up one round, and how a finished round is checked. The harness
 * (perfbench.cc) owns timing, epochs and metrics; it never looks inside
 * a round.
 */

#ifndef OSH_PERFBENCH_BENCH_WORKLOADS_HH
#define OSH_PERFBENCH_BENCH_WORKLOADS_HH

#include "system/system.hh"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace osh::perfbench
{

/** One guest process a round launches. */
struct Launch
{
    std::string program;
    std::vector<std::string> argv;
};

/** Verdict on one finished round. */
struct RoundCheck
{
    std::uint64_t units = 0;  ///< Units the round attempted.
    std::uint64_t failed = 0; ///< Units killed or with a wrong result.
};

/** A benchmark workload (see the file comment). */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Builder holding the System fields this workload sets (the seed
     * plus what its description names); everything else is default.
     */
    virtual system::SystemConfig::Builder configure() const = 0;

    /** Register guest programs on a freshly built System. */
    virtual void install(system::System& sys) = 0;

    /** Timed rounds per epoch; round index roundsPerEpoch() is the
     *  warm-up round that runs first. */
    virtual std::uint64_t roundsPerEpoch() const = 0;

    /** The processes of round @p r (a pure function of seed and r). */
    virtual std::vector<Launch> round(std::uint64_t r) const = 0;

    /**
     * Check round @p r after System::run returned. While recording
     * (the native reference epoch), digests become the expectation of
     * later epochs; afterwards they are compared with it.
     */
    virtual RoundCheck check(system::System& sys, std::uint64_t r,
                             const std::vector<Pid>& pids) = 0;

    /** Stop recording expectations; from now on check() compares. */
    virtual void freezeExpectations() = 0;

    /** Spoil the expectation of round 0 (the oracle's self-test). */
    virtual void corruptExpectation() = 0;
};

/** Names accepted by makeWorkload(). */
const std::vector<std::string>& workloadNames();

/** The workload called @p name for inputs seeded by @p seed (nullptr
 *  for an unknown name). */
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed);

} // namespace osh::perfbench

#endif // OSH_PERFBENCH_BENCH_WORKLOADS_HH
