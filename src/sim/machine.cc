#include "sim/machine.hh"

namespace osh::sim
{

Machine::Machine(const MachineConfig& config)
    : config_(config), memory_(config.numFrames), rng_(config.seed),
      tracer_(config.trace)
{
    tracer_.bindClock(cost_.cycleCounter());
}

} // namespace osh::sim
