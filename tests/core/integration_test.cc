/**
 * @file
 * Cross-module integration tests: the paper's headline relationships
 * must hold end-to-end on scaled-down replays of the real profiles.
 *
 * These use the full Table V devices, so each test constructs a few
 * hundred MB of device state; traces are scaled down to keep runtime
 * in check while preserving the distributions.
 */

#include <gtest/gtest.h>

#include "analysis/characteristics.hh"
#include "analysis/distributions.hh"
#include "analysis/timing_stats.hh"
#include "core/experiment.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace emmcsim;
using namespace emmcsim::core;

namespace {

trace::Trace
genTrace(const std::string &name, double scale, std::uint64_t seed = 1)
{
    const workload::AppProfile *p = workload::findProfile(name);
    EXPECT_NE(p, nullptr);
    workload::TraceGenerator g(*p, seed);
    return g.generate(scale);
}

} // namespace

TEST(Integration, Fig8HpsBeats4psOnDataIntensiveTrace)
{
    trace::Trace t = genTrace("Booting", 0.05);
    CaseResult r4 = runCase(t, SchemeKind::PS4);
    CaseResult rh = runCase(t, SchemeKind::HPS);
    // The paper reports up to 86% MRT reduction on Booting; at small
    // scale we require at least a decisive win.
    EXPECT_LT(rh.meanResponseMs, 0.6 * r4.meanResponseMs);
}

TEST(Integration, Fig8HpsTracks8psOnResponseTime)
{
    trace::Trace t = genTrace("Booting", 0.05);
    CaseResult r8 = runCase(t, SchemeKind::PS8);
    CaseResult rh = runCase(t, SchemeKind::HPS);
    // "The 8PS scheme has a very similar performance to HPS."
    EXPECT_NEAR(rh.meanResponseMs, r8.meanResponseMs,
                0.15 * r8.meanResponseMs);
}

TEST(Integration, Fig9HpsMatches4psSpaceUtilization)
{
    trace::Trace t = genTrace("Music", 0.1);
    CaseResult r4 = runCase(t, SchemeKind::PS4);
    CaseResult rh = runCase(t, SchemeKind::HPS);
    // HPS always achieves the same space utilization as 4PS (both
    // pay zero padding on 4KB-aligned streams).
    EXPECT_DOUBLE_EQ(r4.spaceUtilization, 1.0);
    EXPECT_DOUBLE_EQ(rh.spaceUtilization, 1.0);
}

TEST(Integration, Fig9EightPsWastesSpaceOnSmallWrites)
{
    trace::Trace t = genTrace("Music", 0.1);
    CaseResult r8 = runCase(t, SchemeKind::PS8);
    // Music is the paper's worst case for 8PS (24.2% HPS advantage);
    // expect clearly sub-unity utilization.
    EXPECT_LT(r8.spaceUtilization, 0.9);
    EXPECT_GT(r8.spaceUtilization, 0.5);
}

TEST(Integration, ReplayedTraceFeedsTimingStats)
{
    trace::Trace t = genTrace("Messaging", 0.2);
    CaseResult res = runCase(t, SchemeKind::PS4);
    analysis::TimingStats ts =
        analysis::computeTimingStats(res.replayed);
    EXPECT_TRUE(ts.replayed);
    EXPECT_NEAR(ts.meanResponseMs, res.meanResponseMs, 1e-6);
    EXPECT_NEAR(ts.noWaitPct, res.noWaitPct, 1e-6);
}

TEST(Integration, PowerModeRaisesServiceTimeOfSparseTrace)
{
    // YouTube has sub-1-req/s arrivals: with power mode on, most
    // requests pay the warm-up inside service time (Characteristic 4).
    trace::Trace t = genTrace("YouTube", 0.2);
    ExperimentOptions off;
    ExperimentOptions on;
    on.powerMode = true;
    CaseResult r_off = runCase(t, SchemeKind::PS4, off);
    CaseResult r_on = runCase(t, SchemeKind::PS4, on);
    EXPECT_GT(r_on.meanServiceMs, r_off.meanServiceMs + 2.0);
    EXPECT_GT(r_on.powerWakeups, 0u);
}

TEST(Integration, PrefillAgesDeviceIntoGc)
{
    // A prefilled device must garbage-collect under write pressure;
    // a brand-new one must not.
    trace::Trace t = genTrace("Installing", 0.05);
    ExperimentOptions fresh;
    fresh.capacityScale = 1.0 / 64.0; // ~512MB device
    ExperimentOptions aged = fresh;
    aged.prefill = 0.7;
    CaseResult r_new = runCase(t, SchemeKind::PS4, fresh);
    CaseResult r_aged = runCase(t, SchemeKind::PS4, aged);
    EXPECT_EQ(r_new.gcBlockingRounds, 0u);
    EXPECT_GT(r_aged.gcBlockingRounds, 0u);
    // GC latency shows up in the aged device's response times.
    EXPECT_GT(r_aged.meanResponseMs, r_new.meanResponseMs);
}

TEST(Integration, PackingImprovesWriteThroughput)
{
    // Packing amortizes the per-command overhead: the same write
    // burst drains sooner (Fig 3's motivation). Per-request MRT can
    // rise because packed requests share the pack's completion time.
    trace::Trace t = genTrace("Radio", 0.1);
    ExperimentOptions packed;
    ExperimentOptions unpacked;
    unpacked.packing = false;
    CaseResult rp = runCase(t, SchemeKind::PS4, packed);
    CaseResult ru = runCase(t, SchemeKind::PS4, unpacked);
    EXPECT_GT(rp.packedCommands, 0u);
    EXPECT_EQ(ru.packedCommands, 0u);
    sim::Time makespan_p = rp.replayed.duration();
    sim::Time makespan_u = ru.replayed.duration();
    EXPECT_LE(makespan_p, makespan_u);
}

TEST(Integration, ResponseDistributionComputableFromCase)
{
    trace::Trace t = genTrace("Twitter", 0.05);
    CaseResult res = runCase(t, SchemeKind::HPS);
    sim::Histogram h = analysis::responseDistribution(res.replayed);
    EXPECT_EQ(h.total(), res.requests);
}

TEST(Integration, E1SlcModeSpeedsUpSmallRequestApps)
{
    // Implication 5: SLC-mode 4KB pool serves the dominant small
    // requests faster than the MLC HPS device, with no padding loss.
    trace::Trace t = genTrace("Messaging", 0.3);
    CaseResult hps = runCase(t, SchemeKind::HPS);
    CaseResult slc = runCase(t, SchemeKind::HSLC);
    EXPECT_LT(slc.meanResponseMs, hps.meanResponseMs);
    EXPECT_DOUBLE_EQ(slc.spaceUtilization, 1.0);
}

TEST(Integration, CharacteristicsHoldOnGeneratedSet)
{
    // Section III's six characteristics must hold on the regenerated
    // individual traces (small scale for test speed).
    ExperimentOptions opts;
    opts.powerMode = true;
    std::vector<trace::Trace> replayed;
    for (const workload::AppProfile &p :
         workload::individualProfiles()) {
        workload::TraceGenerator g(p, 3);
        replayed.push_back(
            runCase(g.generate(0.15), SchemeKind::PS4, opts).replayed);
    }
    analysis::CharacteristicsReport rep =
        analysis::evaluateCharacteristics(replayed);
    EXPECT_GE(rep.writeDominant, 14u);   // paper: 15/18
    EXPECT_GE(rep.writeAbove90, 5u);     // paper: 6
    EXPECT_GE(rep.smallMajority, 14u);   // paper: 15/18
    EXPECT_GE(rep.highNoWait, 11u);      // paper: 15/18 at >=63%
    EXPECT_GE(rep.weakSpatial, 17u);     // paper: all below 48% (YouTube
                                         // sits at 47.6% and can cross
                                         // the line at small scale)
    EXPECT_GE(rep.longMeanGap, 12u);     // paper: 13/18
    EXPECT_GE(rep.heavyGapTail, 10u);    // paper: 10/18
}
