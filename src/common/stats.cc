#include "stats.hh"

#include <algorithm>
#include <cmath>

#include "logging.hh"

namespace alphapim
{

void
RunningStats::add(double x)
{
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
RunningStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
geometricMean(const std::vector<double> &values)
{
    ALPHA_ASSERT(!values.empty(), "geometric mean of an empty set");
    double log_sum = 0.0;
    for (double v : values) {
        ALPHA_ASSERT(v > 0.0, "geometric mean requires positive samples");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
percentile(std::vector<double> values, double p)
{
    std::sort(values.begin(), values.end());
    return sortedPercentile(values, p);
}

double
sortedPercentile(const std::vector<double> &sorted, double p)
{
    ALPHA_ASSERT(p >= 0.0 && p <= 100.0,
                 "percentile rank outside [0, 100]");
    if (sorted.empty())
        return std::nan("");
    const double rank =
        p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Histogram::Histogram(std::size_t bins, double upper)
    : weights_(bins, 0.0), upper_(upper)
{
    ALPHA_ASSERT(bins > 0, "histogram needs at least one bin");
    ALPHA_ASSERT(upper > 0.0, "histogram upper bound must be positive");
}

void
Histogram::add(double x, double weight)
{
    const double clamped = std::clamp(x, 0.0, upper_);
    auto idx = static_cast<std::size_t>(
        clamped / upper_ * static_cast<double>(weights_.size()));
    if (idx >= weights_.size())
        idx = weights_.size() - 1;
    weights_[idx] += weight;
    total_ += weight;
    weightedSum_ += x * weight;
}

} // namespace alphapim
