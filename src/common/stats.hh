/**
 * @file
 * Small statistics helpers used across the characterization harness:
 * single-pass mean/stddev (Welford), geometric means, and fixed-width
 * histograms for profiler outputs.
 */

#ifndef ALPHA_PIM_COMMON_STATS_HH
#define ALPHA_PIM_COMMON_STATS_HH

#include <cstddef>
#include <vector>

namespace alphapim
{

/**
 * Online mean / variance accumulator (Welford's algorithm).
 * Numerically stable for the long degree sequences that graph
 * characterization produces.
 */
class RunningStats
{
  public:
    /** Fold one sample into the accumulator. */
    void add(double x);

    /** Number of samples seen. */
    std::size_t count() const { return count_; }

    /** Arithmetic mean (0 when empty). */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Population variance (0 when fewer than two samples). */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

    /** Smallest sample seen (+inf when empty). */
    double min() const { return min_; }

    /** Largest sample seen (-inf when empty). */
    double max() const { return max_; }

    /** Sum of all samples. */
    double sum() const { return sum_; }

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 1.0 / 0.0;
    double max_ = -1.0 / 0.0;
};

/**
 * Geometric mean of a sample set. Zero or negative samples would make
 * the geomean undefined, so they are rejected with a panic; callers
 * normalizing execution times never produce them.
 */
double geometricMean(const std::vector<double> &values);

/**
 * Linear-interpolation percentile (the "type 7" estimator that numpy
 * and R default to) of an unsorted sample set. `p` is in [0, 100];
 * p=50 is the median. Deterministic for a given sample multiset.
 * Returns NaN when `values` is empty.
 */
double percentile(std::vector<double> values, double p);

/** percentile() of a sample set already sorted ascending, without
 * the copy and sort. */
double sortedPercentile(const std::vector<double> &sorted, double p);

/**
 * Fixed-bin histogram over [0, upperBound). Samples at or above the
 * bound land in the final bin. Used for active-thread-count profiles.
 */
class Histogram
{
  public:
    /** @param bins number of bins; @param upper exclusive upper bound */
    Histogram(std::size_t bins, double upper);

    /** Record one weighted sample. */
    void add(double x, double weight = 1.0);

    /** Weight accumulated in bin i. */
    double binWeight(std::size_t i) const { return weights_.at(i); }

    /** Number of bins. */
    std::size_t bins() const { return weights_.size(); }

    /** Total recorded weight. */
    double totalWeight() const { return total_; }

    /** Weighted mean of recorded samples. */
    double mean() const { return total_ > 0 ? weightedSum_ / total_ : 0; }

  private:
    std::vector<double> weights_;
    double upper_;
    double total_ = 0.0;
    double weightedSum_ = 0.0;
};

} // namespace alphapim

#endif // ALPHA_PIM_COMMON_STATS_HH
