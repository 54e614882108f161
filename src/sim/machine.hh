/**
 * @file
 * The simulated machine: physical memory plus the cycle cost model.
 *
 * This is the bottom layer of the stack. The VMM owns a Machine; the
 * guest OS and applications only ever reach memory through the VMM's
 * translation machinery.
 */

#ifndef OSH_SIM_MACHINE_HH
#define OSH_SIM_MACHINE_HH

#include "base/rng.hh"
#include "base/types.hh"
#include "sim/cost_model.hh"
#include "sim/memory.hh"
#include "trace/trace.hh"

#include <cstdint>

namespace osh::sim
{

/** Static configuration of a simulated machine. */
struct MachineConfig
{
    /** Machine memory size in 4 KiB frames (default 16 MiB). */
    std::uint64_t numFrames = 4096;

    /** Deterministic seed for all simulation randomness. */
    std::uint64_t seed = Rng::defaultSeed;

    /** Event tracing / metrics configuration. */
    trace::TraceConfig trace;
};

/** A simulated physical machine. */
class Machine
{
  public:
    explicit Machine(const MachineConfig& config = {});

    MachineMemory& memory() { return memory_; }
    const MachineMemory& memory() const { return memory_; }

    CostModel& cost() { return cost_; }
    const CostModel& cost() const { return cost_; }

    /** Machine-level RNG (IV generation etc.); deterministic. */
    Rng& rng() { return rng_; }

    /**
     * The machine-wide tracing handle. Always a valid object; whether
     * it records is controlled by MachineConfig::trace.enabled (and
     * the OSH_TRACE compile switch).
     */
    trace::Tracer& tracer() { return tracer_; }
    const trace::Tracer& tracer() const { return tracer_; }

    const MachineConfig& config() const { return config_; }

  private:
    MachineConfig config_;
    MachineMemory memory_;
    CostModel cost_;
    Rng rng_;
    trace::Tracer tracer_;
};

} // namespace osh::sim

#endif // OSH_SIM_MACHINE_HH
