/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/stats.hh"

using namespace emmcsim::sim;

TEST(OnlineStats, EmptyDefaults)
{
    OnlineStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(OnlineStats, SingleSample)
{
    OnlineStats s;
    s.add(42.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    EXPECT_DOUBLE_EQ(s.min(), 42.0);
    EXPECT_DOUBLE_EQ(s.max(), 42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MeanAndVariance)
{
    OnlineStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeMatchesCombined)
{
    OnlineStats a;
    OnlineStats b;
    OnlineStats all;
    for (int i = 0; i < 10; ++i) {
        a.add(i);
        all.add(i);
    }
    for (int i = 10; i < 30; ++i) {
        b.add(i * 0.5);
        all.add(i * 0.5);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty)
{
    OnlineStats a;
    a.add(1.0);
    OnlineStats empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(OnlineStats, ResetClears)
{
    OnlineStats s;
    s.add(5.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Histogram, BucketAssignmentInclusiveUpperBound)
{
    Histogram h({4.0, 8.0, 16.0});
    h.add(4.0);  // bucket 0 (<= 4)
    h.add(4.1);  // bucket 1
    h.add(8.0);  // bucket 1 (<= 8)
    h.add(16.0); // bucket 2
    h.add(16.5); // overflow bucket 3
    EXPECT_EQ(h.bucketCountAt(0), 1u);
    EXPECT_EQ(h.bucketCountAt(1), 2u);
    EXPECT_EQ(h.bucketCountAt(2), 1u);
    EXPECT_EQ(h.bucketCountAt(3), 1u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, FractionsSumToOne)
{
    Histogram h({1.0, 2.0, 3.0});
    for (double x : {0.5, 1.5, 2.5, 3.5, 0.1, 2.9})
        h.add(x);
    double sum = 0.0;
    for (double f : h.fractions())
        sum += f;
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Histogram, EmptyHistogramFractionsZero)
{
    Histogram h({1.0});
    EXPECT_DOUBLE_EQ(h.fractionAt(0), 0.0);
    EXPECT_DOUBLE_EQ(h.fractionAt(1), 0.0);
}

TEST(Histogram, AddNWeightsSamples)
{
    Histogram h({10.0});
    h.addN(5.0, 7);
    EXPECT_EQ(h.bucketCountAt(0), 7u);
    EXPECT_EQ(h.total(), 7u);
}

TEST(Histogram, OverflowBoundIsInfinite)
{
    Histogram h({1.0, 2.0});
    EXPECT_DOUBLE_EQ(h.upperBoundAt(0), 1.0);
    EXPECT_DOUBLE_EQ(h.upperBoundAt(1), 2.0);
    EXPECT_TRUE(std::isinf(h.upperBoundAt(2)));
}

TEST(Histogram, ResetZeroes)
{
    Histogram h({1.0});
    h.add(0.5);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.bucketCountAt(0), 0u);
}

TEST(Histogram, NoBoundsMeansSingleBucket)
{
    Histogram h({});
    h.add(-5.0);
    h.add(1e12);
    EXPECT_EQ(h.bucketCount(), 1u);
    EXPECT_EQ(h.bucketCountAt(0), 2u);
}

TEST(Percentiles, EmptyReturnsZero)
{
    const std::vector<double> none;
    EXPECT_DOUBLE_EQ(percentile<double>(none, 50), 0.0);
}

namespace {

/** The ascending samples lo, lo + 1, ..., hi. */
std::vector<double>
ascending(int lo, int hi)
{
    std::vector<double> v;
    for (int i = lo; i <= hi; ++i)
        v.push_back(i);
    return v;
}

} // namespace

TEST(Percentiles, NearestRank)
{
    const std::vector<double> v = ascending(1, 100);
    EXPECT_DOUBLE_EQ(percentile<double>(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile<double>(v, 50), 50.0);
    EXPECT_DOUBLE_EQ(percentile<double>(v, 95), 95.0);
    EXPECT_DOUBLE_EQ(percentile<double>(v, 100), 100.0);
}

TEST(Percentiles, UnsortedInput)
{
    // percentile() reads a sorted span: callers sort first, as
    // runCase does. p20 of 5 samples sits exactly on rank 1.
    std::vector<double> v = {5.0, 1.0, 4.0, 2.0, 3.0};
    std::sort(v.begin(), v.end());
    EXPECT_DOUBLE_EQ(percentile<double>(v, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile<double>(v, 20), 1.0);
}

TEST(Percentiles, P999OfAThousandIsNotOneRankHigh)
{
    // 99.9 / 100 * 1000 rounds to 999.0000000000001; ceil() of that
    // is rank 1000.
    const std::vector<double> v = ascending(1, 1000);
    EXPECT_EQ(nearestRank(99.9, 1000), 999u);
    EXPECT_DOUBLE_EQ(percentile<double>(v, 99.9), 999.0);
    EXPECT_DOUBLE_EQ(percentile<double>(v, 99.95), 1000.0);
}

TEST(FormatDouble, FixedDecimals)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(2.0, 0), "2");
    EXPECT_EQ(formatDouble(-1.5, 1), "-1.5");
}

TEST(HistogramPercentile, EmptyIsZero)
{
    Histogram h({1.0, 2.0});
    EXPECT_DOUBLE_EQ(h.percentileEstimate(50), 0.0);
    EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(HistogramPercentile, InterpolatesWithinBucket)
{
    // 100 samples all in the (1, 2] bucket: every quantile lands
    // inside it, linearly interpolated between the bucket bounds.
    Histogram h({1.0, 2.0, 4.0});
    h.addN(1.5, 100);
    const double p50 = h.percentileEstimate(50);
    EXPECT_GT(p50, 1.0);
    EXPECT_LE(p50, 2.0);
    EXPECT_LT(h.percentileEstimate(1), p50);
    EXPECT_LE(h.percentileEstimate(100), 2.0);
}

TEST(HistogramPercentile, SpreadSamplesOrdered)
{
    Histogram h({1.0, 2.0, 4.0, 8.0});
    h.addN(0.5, 50);
    h.addN(1.5, 30);
    h.addN(3.0, 15);
    h.addN(6.0, 5);
    const double p50 = h.percentileEstimate(50);
    const double p95 = h.percentileEstimate(95);
    const double p99 = h.percentileEstimate(99);
    EXPECT_LE(p50, 1.0);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_LE(p99, 8.0);
}

TEST(HistogramPercentile, P999IsNotOneRankHigh)
{
    // 1000 samples in [0, 10): rank 999 of 1000 interpolates to 9.99.
    Histogram h({10.0});
    h.addN(5.0, 1000);
    EXPECT_DOUBLE_EQ(h.percentileEstimate(99.9), 9.99);
}

TEST(HistogramPercentile, OverflowBucketClampsToLastBound)
{
    Histogram h({1.0, 2.0});
    h.addN(100.0, 10);
    EXPECT_DOUBLE_EQ(h.percentileEstimate(99), 2.0);
}

TEST(HistogramPercentile, ZeroPercentileIsLowerEdge)
{
    // p=0 mirrors percentile(sorted, 0) = min: the lower edge of
    // the first occupied bucket, not an interpolated interior point.
    Histogram h({1.0, 2.0, 4.0});
    h.addN(1.5, 10);
    EXPECT_DOUBLE_EQ(h.percentileEstimate(0), 1.0);
    Histogram first({1.0, 2.0});
    first.addN(0.5, 3);
    EXPECT_DOUBLE_EQ(first.percentileEstimate(0), 0.0);
}

TEST(HistogramPercentile, SingleSampleEveryPercentile)
{
    Histogram h({1.0, 2.0, 4.0});
    h.add(3.0); // bucket (2, 4]
    EXPECT_DOUBLE_EQ(h.percentileEstimate(0), 2.0);
    EXPECT_DOUBLE_EQ(h.percentileEstimate(50), 4.0);
    EXPECT_DOUBLE_EQ(h.percentileEstimate(100), 4.0);
}

TEST(HistogramPercentile, EmptyIsZeroForAllP)
{
    Histogram h({1.0, 2.0});
    EXPECT_DOUBLE_EQ(h.percentileEstimate(0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentileEstimate(100), 0.0);
    Histogram catchall({});
    EXPECT_DOUBLE_EQ(catchall.percentileEstimate(50), 0.0);
}

TEST(Percentiles, SingleSampleEveryPercentile)
{
    const std::vector<double> one = {3.5};
    EXPECT_DOUBLE_EQ(percentile<double>(one, 0), 3.5);
    EXPECT_DOUBLE_EQ(percentile<double>(one, 50), 3.5);
    EXPECT_DOUBLE_EQ(percentile<double>(one, 100), 3.5);
}

TEST(Percentiles, EmptyReturnsZeroAtExtremes)
{
    const std::vector<double> none;
    EXPECT_DOUBLE_EQ(percentile<double>(none, 0), 0.0);
    EXPECT_DOUBLE_EQ(percentile<double>(none, 100), 0.0);
}

// The sweep aggregates per-worker accumulators in whatever grouping
// the collection loop produces, so merge must be associative with
// empty operands acting as identities.

TEST(OnlineStats, MergeEmptyBothSidesIsIdentity)
{
    OnlineStats a;
    for (double x : {2.0, 4.0, 9.0})
        a.add(x);
    const OnlineStats before = a;
    OnlineStats empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), before.count());
    EXPECT_DOUBLE_EQ(a.mean(), before.mean());
    EXPECT_DOUBLE_EQ(a.variance(), before.variance());
    EXPECT_DOUBLE_EQ(a.min(), before.min());
    EXPECT_DOUBLE_EQ(a.max(), before.max());
    EXPECT_DOUBLE_EQ(a.sum(), before.sum());

    OnlineStats lhs;
    lhs.merge(a);
    EXPECT_EQ(lhs.count(), a.count());
    EXPECT_DOUBLE_EQ(lhs.mean(), a.mean());
    EXPECT_DOUBLE_EQ(lhs.variance(), a.variance());
}

TEST(OnlineStats, MergeIsAssociative)
{
    auto fill = [](OnlineStats &s, int lo, int hi, double scale) {
        for (int i = lo; i < hi; ++i)
            s.add(i * scale);
    };
    OnlineStats a1, b1, c1, a2, b2, c2;
    fill(a1, 0, 13, 1.0);
    fill(a2, 0, 13, 1.0);
    fill(b1, 13, 40, 0.25);
    fill(b2, 13, 40, 0.25);
    fill(c1, 40, 55, -2.0);
    fill(c2, 40, 55, -2.0);

    // (a + b) + c
    a1.merge(b1);
    a1.merge(c1);
    // a + (b + c)
    b2.merge(c2);
    a2.merge(b2);

    EXPECT_EQ(a1.count(), a2.count());
    EXPECT_DOUBLE_EQ(a1.min(), a2.min());
    EXPECT_DOUBLE_EQ(a1.max(), a2.max());
    EXPECT_NEAR(a1.mean(), a2.mean(), 1e-12);
    EXPECT_NEAR(a1.variance(), a2.variance(), 1e-9);
    EXPECT_NEAR(a1.sum(), a2.sum(), 1e-9);
}

