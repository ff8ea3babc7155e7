/**
 * @file
 * Automated checks of the paper's six observed characteristics over a
 * set of traces (Section III). Each check reports the supporting
 * counts so benches can print them and tests can assert them.
 */

#ifndef EMMCSIM_ANALYSIS_CHARACTERISTICS_HH
#define EMMCSIM_ANALYSIS_CHARACTERISTICS_HH

#include <cstdint>
#include <vector>

#include "trace/trace.hh"

namespace emmcsim::analysis {

/** Evaluation of Characteristics 1-6 across a trace set. */
struct CharacteristicsReport
{
    std::size_t traces = 0;

    /** C1: traces with write-request percentage above 50%. */
    std::size_t writeDominant = 0;
    /** C1: of those, traces with write percentage above 90%. */
    std::size_t writeAbove90 = 0;

    /** C2: traces where single-page (4KB) requests exceed 40%. */
    std::size_t smallMajority = 0;

    /** C3: traces where >=60% of requests are served immediately
     *  (needs replayed traces; 0 otherwise). */
    std::size_t highNoWait = 0;

    /** C5: traces with spatial locality below 48%. */
    std::size_t weakSpatial = 0;
    /** C5: traces where temporal >= spatial locality. */
    std::size_t temporalAboveSpatial = 0;

    /** C6: traces with mean inter-arrival of at least 200 ms. */
    std::size_t longMeanGap = 0;
    /** C6: traces with >20% of inter-arrivals above 16 ms. */
    std::size_t heavyGapTail = 0;
};

/** Evaluate the characteristics over @p traces. */
CharacteristicsReport
evaluateCharacteristics(const std::vector<trace::Trace> &traces);

} // namespace emmcsim::analysis

#endif // EMMCSIM_ANALYSIS_CHARACTERISTICS_HH
