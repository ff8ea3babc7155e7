#include "sim/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/logging.hh"

namespace emmcsim::sim {

std::vector<double>
latencyBoundsMs()
{
    return {0.05, 0.1,  0.2,  0.5,   1.0,   2.0,    5.0,    10.0,
            20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0};
}

void
OnlineStats::add(double x)
{
    ++count_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
OnlineStats::merge(const OnlineStats &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    double na = static_cast<double>(count_);
    double nb = static_cast<double>(other.count_);
    double delta = other.mean_ - mean_;
    double n = na + nb;
    mean_ += delta * nb / n;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
OnlineStats::reset()
{
    *this = OnlineStats();
}

double
OnlineStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
OnlineStats::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds))
{
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
        EMMCSIM_ASSERT(bounds_[i] > bounds_[i - 1],
                       "histogram bounds must be strictly increasing");
    }
    counts_.assign(bounds_.size() + 1, 0);
}

void
Histogram::add(double x)
{
    addN(x, 1);
}

void
Histogram::addN(double x, std::uint64_t n)
{
    // Bucket i holds samples in (bounds[i-1], bounds[i]]: the paper's
    // ranges are inclusive on the upper end ("<= 4KB"), so find the
    // first bound >= x.
    auto ge = std::lower_bound(bounds_.begin(), bounds_.end(), x);
    auto idx = static_cast<std::size_t>(ge - bounds_.begin());
    counts_[idx] += n;
    total_ += n;
}

double
Histogram::fractionAt(std::size_t i) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(counts_[i]) / static_cast<double>(total_);
}

double
Histogram::upperBoundAt(std::size_t i) const
{
    if (i < bounds_.size())
        return bounds_[i];
    return std::numeric_limits<double>::infinity();
}

std::vector<double>
Histogram::fractions() const
{
    std::vector<double> out(counts_.size());
    for (std::size_t i = 0; i < counts_.size(); ++i)
        out[i] = fractionAt(i);
    return out;
}

double
Histogram::percentileEstimate(double p) const
{
    EMMCSIM_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range");
    if (total_ == 0)
        return 0.0;
    // Nearest-rank target, then linear interpolation within the
    // bucket that holds it (the rank percentile() uses, so estimates
    // converge on the exact answer as buckets shrink). p=0 maps to
    // rank 1 with no interpolation offset: the estimate is the lower
    // edge of the first occupied bucket, matching percentile() of the
    // minimum sample.
    const std::uint64_t rank = nearestRank(p, total_);
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        if (before + counts_[i] < rank) {
            before += counts_[i];
            continue;
        }
        if (i >= bounds_.size())
            return bounds_.empty() ? 0.0 : bounds_.back();
        const double hi = bounds_[i];
        const double lo =
            i > 0 ? bounds_[i - 1] : std::min(0.0, bounds_[0]);
        if (p <= 0.0)
            return lo;
        const double within = static_cast<double>(rank - before) /
                              static_cast<double>(counts_[i]);
        return lo + within * (hi - lo);
    }
    return bounds_.empty() ? 0.0 : bounds_.back();
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
}

std::size_t
nearestRank(double p, std::size_t n)
{
    EMMCSIM_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range");
    if (n == 0)
        return 0;
    // Not ceil(p / 100 * n): the product can round up past an exact
    // integer (p99.9 of 1000 samples gives 999.0000000000001), which
    // lands one rank too high. Truncate, then step up only when the
    // rank's own percentage is still below p.
    const auto dn = static_cast<double>(n);
    auto rank = static_cast<std::size_t>(std::max(1.0, p / 100.0 * dn));
    if (rank < n && static_cast<double>(rank) * 100.0 / dn < p)
        ++rank;
    return std::min(rank, n);
}

std::string
formatDouble(double x, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, x);
    return std::string(buf);
}

} // namespace emmcsim::sim
