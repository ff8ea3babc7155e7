#include "analysis/characteristics.hh"

#include "analysis/distributions.hh"
#include "analysis/locality.hh"
#include "analysis/size_stats.hh"
#include "analysis/timing_stats.hh"

namespace emmcsim::analysis {

CharacteristicsReport
evaluateCharacteristics(const std::vector<trace::Trace> &traces)
{
    CharacteristicsReport rep;
    rep.traces = traces.size();
    for (const auto &t : traces) {
        SizeStats ss = computeSizeStats(t);
        TimingStats ts = computeTimingStats(t);

        if (ss.writeReqPct > 50.0) {
            ++rep.writeDominant;
            if (ss.writeReqPct > 90.0)
                ++rep.writeAbove90;
        }

        if (smallRequestFraction(t) > 0.40)
            ++rep.smallMajority;

        if (ts.replayed && ts.noWaitPct >= 60.0)
            ++rep.highNoWait;

        if (ts.spatialPct < 48.0)
            ++rep.weakSpatial;
        if (ts.temporalPct >= ts.spatialPct)
            ++rep.temporalAboveSpatial;

        if (ts.meanInterArrivalMs >= 200.0)
            ++rep.longMeanGap;
        if (interArrivalTailFraction(t, 16.0) > 0.20)
            ++rep.heavyGapTail;
    }
    return rep;
}

} // namespace emmcsim::analysis
