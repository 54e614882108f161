#include "sim/cost_model.hh"

namespace osh::sim
{

void
CostModel::charge(Cycles c, const char* event)
{
    cycles_ += c;
    events_[event].get(stats_, event).inc();
}

} // namespace osh::sim
