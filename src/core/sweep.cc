#include "core/sweep.hh"

#include "sim/logging.hh"

namespace emmcsim::core {

unsigned
effectiveJobs(unsigned requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

std::vector<CaseResult>
runCases(const std::vector<SweepCase> &cases, unsigned jobs)
{
    return runOrdered(cases.size(), jobs, [&cases](std::size_t i) {
        const SweepCase &c = cases[i];
        EMMCSIM_ASSERT(c.trace != nullptr,
                       "SweepCase \"" + c.label + "\" has no trace");
        return runCase(*c.trace, c.kind, c.opts);
    });
}

} // namespace emmcsim::core
