#include "sim/cost_model.hh"

namespace osh::sim
{

CostModel::CostModel(const CostParams& params)
    : params_(params), stats_("cost")
{
}

void
CostModel::charge(Cycles c, const char* event)
{
    cycles_ += c;
    events_[event].get(stats_, event).inc();
}

} // namespace osh::sim
