/**
 * @file
 * Analysis-module tests: locality definitions, Table III / Table IV
 * computations, and figure bucket distributions on hand-built traces.
 */

#include <gtest/gtest.h>

#include "analysis/characteristics.hh"
#include "analysis/correlation.hh"
#include "analysis/distributions.hh"
#include "analysis/locality.hh"
#include "analysis/size_stats.hh"
#include "analysis/throughput.hh"
#include "analysis/timing_stats.hh"

using namespace emmcsim;
using namespace emmcsim::analysis;

namespace {

trace::TraceRecord
rec(sim::Time arrival_ms, std::uint64_t unit, std::uint64_t units,
    bool write)
{
    trace::TraceRecord r;
    r.arrival = sim::milliseconds(arrival_ms);
    r.lbaSector = emmcsim::units::unitToLba(
        emmcsim::units::UnitAddr{static_cast<std::int64_t>(unit)});
    r.sizeBytes = emmcsim::units::unitsToBytes(units);
    r.op = write ? trace::OpType::Write : trace::OpType::Read;
    return r;
}

} // namespace

TEST(Locality, EmptyTrace)
{
    trace::Trace t;
    LocalityResult res = computeLocality(t);
    EXPECT_DOUBLE_EQ(res.spatial, 0.0);
    EXPECT_DOUBLE_EQ(res.temporal, 0.0);
}

TEST(Locality, PureSequentialHasFullSpatial)
{
    trace::Trace t("seq");
    t.push(rec(0, 0, 2, false));
    t.push(rec(1, 2, 2, false));
    t.push(rec(2, 4, 2, false));
    LocalityResult res = computeLocality(t);
    // 2 of 3 requests continue their predecessor.
    EXPECT_NEAR(res.spatial, 2.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(res.temporal, 0.0);
}

TEST(Locality, ReaccessCountsTemporalHits)
{
    trace::Trace t("reuse");
    t.push(rec(0, 0, 1, true));
    t.push(rec(1, 100, 1, true));
    t.push(rec(2, 0, 1, true));   // hit
    t.push(rec(3, 100, 1, true)); // hit
    t.push(rec(4, 0, 1, true));   // hit
    LocalityResult res = computeLocality(t);
    EXPECT_EQ(res.addressHits, 3u);
    EXPECT_NEAR(res.temporal, 0.6, 1e-12);
}

TEST(Locality, SequentialRequiresExactAdjacency)
{
    trace::Trace t("gap");
    t.push(rec(0, 0, 1, false));
    t.push(rec(1, 2, 1, false)); // gap of one unit: not sequential
    LocalityResult res = computeLocality(t);
    EXPECT_EQ(res.sequentialRequests, 0u);
}

TEST(Locality, ZeroAndLargestStartAddressesHit)
{
    // LBA 0 and the largest LBAs are starts like any other.
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    trace::Trace t("extremes");
    sim::Time at = 0;
    for (const std::uint64_t lba :
         {std::uint64_t{0}, kMax, kMax - 1, std::uint64_t{0}, kMax,
          kMax - 1, std::uint64_t{1}}) {
        trace::TraceRecord r;
        r.arrival = at++;
        r.lbaSector = emmcsim::units::Lba{lba};
        r.sizeBytes = emmcsim::units::Bytes{4096};
        r.op = trace::OpType::Read;
        t.push(r);
    }
    LocalityResult res = computeLocality(t);
    EXPECT_EQ(res.addressHits, 3u);
    EXPECT_EQ(res.sequentialRequests, 0u);
}

TEST(SizeStats, Table3Columns)
{
    trace::Trace t("x");
    t.push(rec(0, 0, 1, false));  // 4KB read
    t.push(rec(1, 8, 3, true));   // 12KB write
    t.push(rec(2, 16, 4, true));  // 16KB write
    SizeStats s = computeSizeStats(t);
    EXPECT_EQ(s.requests, 3u);
    EXPECT_DOUBLE_EQ(s.dataSizeKb, 32.0);
    EXPECT_DOUBLE_EQ(s.maxSizeKb, 16.0);
    EXPECT_NEAR(s.aveSizeKb, 32.0 / 3.0, 1e-9);
    EXPECT_DOUBLE_EQ(s.aveReadKb, 4.0);
    EXPECT_DOUBLE_EQ(s.aveWriteKb, 14.0);
    EXPECT_NEAR(s.writeReqPct, 200.0 / 3.0, 1e-9);
    EXPECT_DOUBLE_EQ(s.writeSizePct, 100.0 * 28.0 / 32.0);
}

TEST(SizeStats, EmptyTraceSafe)
{
    trace::Trace t("empty");
    SizeStats s = computeSizeStats(t);
    EXPECT_EQ(s.requests, 0u);
    EXPECT_DOUBLE_EQ(s.dataSizeKb, 0.0);
}

TEST(TimingStats, ArrivalAndAccessRates)
{
    trace::Trace t("rates");
    t.push(rec(0, 0, 1, false));
    t.push(rec(500, 8, 1, false));
    t.push(rec(1000, 16, 2, true)); // duration 1 s
    TimingStats s = computeTimingStats(t);
    EXPECT_NEAR(s.durationSec, 1.0, 1e-9);
    EXPECT_NEAR(s.arrivalRate, 3.0, 1e-9);
    EXPECT_NEAR(s.accessRateKbps, 16.0, 1e-9);
    EXPECT_FALSE(s.replayed);
    EXPECT_NEAR(s.meanInterArrivalMs, 500.0, 1e-9);
}

TEST(TimingStats, ReplayedColumns)
{
    trace::Trace t("replayed");
    for (int i = 0; i < 4; ++i) {
        trace::TraceRecord r = rec(i * 10, 0, 1, false);
        r.serviceStart = r.arrival + (i == 2 ? sim::milliseconds(1) : 0);
        r.finish = r.serviceStart + sim::milliseconds(2);
        t.push(r);
    }
    TimingStats s = computeTimingStats(t);
    EXPECT_TRUE(s.replayed);
    EXPECT_NEAR(s.noWaitPct, 75.0, 1e-9);
    EXPECT_NEAR(s.meanServiceMs, 2.0, 1e-9);
    EXPECT_NEAR(s.meanResponseMs, 2.25, 1e-9);
}

TEST(Distributions, SizeBucketsMatchFig4Ranges)
{
    trace::Trace t("sizes");
    t.push(rec(0, 0, 1, false));    // 4KB    -> bucket 0
    t.push(rec(1, 0, 2, false));    // 8KB    -> bucket 1
    t.push(rec(2, 0, 4, false));    // 16KB   -> bucket 2
    t.push(rec(3, 0, 16, false));   // 64KB   -> bucket 3
    t.push(rec(4, 0, 64, false));   // 256KB  -> bucket 4
    t.push(rec(5, 0, 256, true));   // 1MB    -> bucket 5
    t.push(rec(6, 0, 512, true));   // 2MB    -> overflow
    sim::Histogram h = sizeDistribution(t);
    ASSERT_EQ(h.bucketCount(), sizeBucketLabels().size());
    for (std::size_t i = 0; i < h.bucketCount(); ++i)
        EXPECT_EQ(h.bucketCountAt(i), 1u) << i;
}

TEST(Distributions, SmallRequestFraction)
{
    trace::Trace t("small");
    t.push(rec(0, 0, 1, false));
    t.push(rec(1, 0, 1, true));
    t.push(rec(2, 0, 4, true));
    EXPECT_NEAR(smallRequestFraction(t), 2.0 / 3.0, 1e-12);
}

TEST(Distributions, ResponseBucketsArePowersOfTwo)
{
    const auto &bounds = responseBucketBoundsMs();
    ASSERT_EQ(bounds.size(), 8u);
    for (std::size_t i = 1; i < bounds.size(); ++i)
        EXPECT_DOUBLE_EQ(bounds[i], bounds[i - 1] * 2.0);
}

TEST(Distributions, ResponseDistributionCounts)
{
    trace::Trace t("resp");
    for (int i = 0; i < 3; ++i) {
        trace::TraceRecord r = rec(i, 0, 1, false);
        r.serviceStart = r.arrival;
        r.finish = r.arrival + sim::microseconds(1500 * (i + 1));
        t.push(r); // 1.5ms, 3ms, 4.5ms
    }
    sim::Histogram h = responseDistribution(t);
    EXPECT_EQ(h.bucketCountAt(1), 1u); // 1-2ms
    EXPECT_EQ(h.bucketCountAt(2), 1u); // 2-4ms
    EXPECT_EQ(h.bucketCountAt(3), 1u); // 4-8ms
}

TEST(Distributions, InterArrivalDistributionAndTail)
{
    trace::Trace t("gaps");
    t.push(rec(0, 0, 1, false));
    t.push(rec(1, 0, 1, false));    // 1ms gap
    t.push(rec(101, 0, 1, false));  // 100ms gap
    sim::Histogram h = interArrivalDistribution(t);
    EXPECT_EQ(h.total(), 2u);
    EXPECT_EQ(h.bucketCountAt(0), 1u); // <=1ms
    EXPECT_EQ(h.bucketCountAt(4), 1u); // 64-256ms
    EXPECT_NEAR(interArrivalTailFraction(t, 16.0), 0.5, 1e-12);
}

TEST(Distributions, LabelsMatchBucketCounts)
{
    EXPECT_EQ(sizeBucketLabels().size(), sizeBucketBoundsKb().size() + 1);
    EXPECT_EQ(responseBucketLabels().size(),
              responseBucketBoundsMs().size() + 1);
    EXPECT_EQ(interArrivalBucketLabels().size(),
              interArrivalBucketBoundsMs().size() + 1);
}

TEST(Throughput, PerRequestMean)
{
    trace::Trace t("tp");
    trace::TraceRecord r = rec(0, 0, 256, false); // 1MB read
    r.serviceStart = r.arrival;
    r.finish = r.arrival + sim::milliseconds(10); // 100 MB/s
    t.push(r);
    EXPECT_NEAR(meanRequestThroughputMBps(t, false), 104.8576, 1e-3);
    EXPECT_DOUBLE_EQ(meanRequestThroughputMBps(t, true), 0.0);
}

TEST(Throughput, SustainedUsesBusyWindow)
{
    trace::Trace t("tp2");
    for (int i = 0; i < 2; ++i) {
        trace::TraceRecord r = rec(i * 10, 0, 256, true);
        r.serviceStart = r.arrival;
        r.finish = r.arrival + sim::milliseconds(10);
        t.push(r);
    }
    // 2MB in 20ms => ~104.9 MB/s.
    EXPECT_NEAR(sustainedThroughputMBps(t), 104.8576, 1e-3);
}

TEST(Characteristics, DetectsWriteDominance)
{
    trace::Trace wd("writey");
    for (int i = 0; i < 10; ++i)
        wd.push(rec(i * 1000, static_cast<std::uint64_t>(i) * 100, 1,
                    i != 0)); // 90% writes
    CharacteristicsReport rep = evaluateCharacteristics({wd});
    EXPECT_EQ(rep.traces, 1u);
    EXPECT_EQ(rep.writeDominant, 1u);
    EXPECT_EQ(rep.smallMajority, 1u);
    EXPECT_EQ(rep.longMeanGap, 1u);   // 1s gaps
    EXPECT_EQ(rep.heavyGapTail, 1u);  // all gaps > 16ms
    EXPECT_EQ(rep.weakSpatial, 1u);
}

TEST(Correlation, PearsonPerfectAndInverse)
{
    std::vector<double> x = {1, 2, 3, 4, 5};
    std::vector<double> y = {2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
    std::vector<double> z = {10, 8, 6, 4, 2};
    EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(Correlation, DegenerateInputs)
{
    EXPECT_DOUBLE_EQ(pearson({}, {}), 0.0);
    EXPECT_DOUBLE_EQ(pearson({1, 2}, {1}), 0.0);
    EXPECT_DOUBLE_EQ(pearson({3, 3, 3}, {1, 2, 3}), 0.0);
}

TEST(Correlation, SizeResponseTracksServiceModel)
{
    // Synthetic replay where response = k * size: perfect correlation.
    trace::Trace t("corr");
    for (int i = 1; i <= 20; ++i) {
        trace::TraceRecord r = rec(i, 0, static_cast<std::uint64_t>(i),
                                   false);
        r.serviceStart = r.arrival;
        r.finish = r.arrival + sim::microseconds(100) * i;
        t.push(r);
    }
    EXPECT_NEAR(sizeResponseCorrelation(t), 1.0, 1e-9);
    EXPECT_NEAR(sizeServiceCorrelation(t), 1.0, 1e-9);
}
