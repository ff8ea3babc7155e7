/**
 * @file
 * Statistics primitives: online summary stats and bucketed histograms.
 *
 * These back every table and figure reproduction: OnlineStats produces
 * the mean/min/max columns, Histogram the Fig 4/5/6 distributions.
 */

#ifndef EMMCSIM_SIM_STATS_HH
#define EMMCSIM_SIM_STATS_HH

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace emmcsim::sim {

/**
 * Streaming count/mean/variance/min/max accumulator (Welford's method).
 */
class OnlineStats
{
  public:
    OnlineStats() = default;

    /** Fold one sample into the accumulator. */
    void add(double x);

    /**
     * Merge another accumulator into this one (Chan's parallel
     * update). An empty operand on either side is an identity, and
     * the operation is associative up to floating-point rounding —
     * the properties the sweep relies on to aggregate per-worker
     * accumulators in any grouping.
     */
    void merge(const OnlineStats &other);

    /** Remove all samples. */
    void reset();

    std::uint64_t count() const { return count_; }
    /** Mean of the samples; 0 when empty. */
    double mean() const { return count_ ? mean_ : 0.0; }
    /** Population variance; 0 when fewer than 2 samples. */
    double variance() const;
    /** Population standard deviation. */
    double stddev() const;
    /** Sum of all samples. */
    double sum() const { return sum_; }
    /** Smallest sample; +inf when empty. */
    double min() const { return min_; }
    /** Largest sample; -inf when empty. */
    double max() const { return max_; }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Response/service-time histogram bounds in ms, spanning flash-read to
 * multi-second GC-stall territory (roughly log-spaced, like the
 * paper's CDFs). The observer's latency histograms and the streaming
 * replay's tail estimate both bucket with these.
 */
std::vector<double> latencyBoundsMs();

/**
 * A histogram over explicit, caller-supplied bucket upper bounds.
 *
 * Buckets are [prev_bound, bound); a final implicit overflow bucket
 * catches samples >= the last bound. This matches how the paper buckets
 * request sizes (Fig 4) and times (Figs 5, 6): a fixed set of ranges
 * with an open-ended tail.
 */
class Histogram
{
  public:
    /**
     * @param upper_bounds Strictly increasing bucket upper bounds.
     *        An empty vector yields a single catch-all bucket.
     */
    explicit Histogram(std::vector<double> upper_bounds);

    /** Fold one sample into its bucket. */
    void add(double x);

    /** Add @p n samples of value @p x. */
    void addN(double x, std::uint64_t n);

    /** Number of buckets including the overflow bucket. */
    std::size_t bucketCount() const { return counts_.size(); }

    /** Raw count in bucket @p i. */
    std::uint64_t bucketCountAt(std::size_t i) const { return counts_[i]; }

    /** Fraction of all samples in bucket @p i; 0 when empty. */
    double fractionAt(std::size_t i) const;

    /** Total number of samples. */
    std::uint64_t total() const { return total_; }

    /** Upper bound of bucket @p i; +inf for the overflow bucket. */
    double upperBoundAt(std::size_t i) const;

    /** All per-bucket fractions, in bucket order. */
    std::vector<double> fractions() const;

    /**
     * Percentile estimate from the bucket counts alone: find the
     * bucket holding the nearest-rank sample and interpolate linearly
     * inside it. The first bucket interpolates from min(0, bound);
     * samples landing in the open-ended overflow bucket report the
     * last finite bound (the estimate saturates there — callers that
     * need an exact tail must keep the samples, see percentile()).
     *
     * Edge cases are pinned down because sweep workers merge these
     * into figure tails: an empty histogram returns 0 for every p;
     * p=0 returns the lower edge of the first occupied bucket
     * (mirroring percentile(sorted, 0) = min); p=100 returns
     * the upper bound of the last occupied bucket (saturating to the
     * last finite bound for overflow samples); a single sample
     * reports its bucket's upper bound for every p > 0.
     *
     * @param p in [0, 100] (asserted). Returns 0 when empty.
     */
    double percentileEstimate(double p) const;

    /** @name Latency-quantile shorthands (bucket-bound estimates). @{ */
    double p50() const { return percentileEstimate(50.0); }
    double p95() const { return percentileEstimate(95.0); }
    double p99() const { return percentileEstimate(99.0); }
    /** @} */

    /** Zero all buckets. */
    void reset();

  private:
    std::vector<double> bounds_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/**
 * 1-based nearest rank of percentile @p p among @p n sorted samples:
 * the smallest r with r / n >= p / 100, and 1 for p = 0. 0 when
 * @p n is 0.
 *
 * @param p in [0, 100] (asserted).
 */
std::size_t nearestRank(double p, std::size_t n);

/**
 * Nearest-rank percentile of @p sorted (ascending): p=0 is the
 * minimum, p=100 the maximum, and a single sample is every
 * percentile. T{} when empty.
 */
template <typename T>
T
percentile(std::span<const T> sorted, double p)
{
    const std::size_t rank = nearestRank(p, sorted.size());
    return rank == 0 ? T{} : sorted[rank - 1];
}

/** Format @p x with @p decimals digits (reporting helper). */
std::string formatDouble(double x, int decimals);

} // namespace emmcsim::sim

#endif // EMMCSIM_SIM_STATS_HH
