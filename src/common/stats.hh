/**
 * @file
 * Lightweight statistics containers: running summaries and
 * histograms. Hardware models accumulate into these and
 * benches/tests read them back, so every number printed by a bench is
 * traceable to a stat updated by the simulator.
 */

#ifndef RAPIDNN_COMMON_STATS_HH
#define RAPIDNN_COMMON_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rapidnn {

/** Running scalar summary: count, sum, min, max, mean, stddev. */
class Summary
{
  public:
    /** Record one observation. */
    void
    add(double x)
    {
        if (_count == 0) {
            _min = _max = x;
        } else {
            _min = std::min(_min, x);
            _max = std::max(_max, x);
        }
        ++_count;
        _sum += x;
        _sumSq += x * x;
    }

    uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double min() const { return _min; }
    double max() const { return _max; }
    double mean() const { return _count ? _sum / _count : 0.0; }

    double
    variance() const
    {
        if (_count < 2)
            return 0.0;
        double m = mean();
        // Guard tiny negative values produced by cancellation.
        return std::max(0.0, _sumSq / _count - m * m);
    }

    double stddev() const { return std::sqrt(variance()); }

    void
    merge(const Summary &o)
    {
        if (o._count == 0)
            return;
        if (_count == 0) {
            *this = o;
            return;
        }
        _min = std::min(_min, o._min);
        _max = std::max(_max, o._max);
        _count += o._count;
        _sum += o._sum;
        _sumSq += o._sumSq;
    }

    void reset() { *this = Summary(); }

  private:
    uint64_t _count = 0;
    double _sum = 0.0;
    double _sumSq = 0.0;
    double _min = 0.0;
    double _max = 0.0;
};

/**
 * Exact q-quantile (0 <= q <= 1) of a sample, with linear
 * interpolation between order statistics: the value at position
 * q * (n - 1) of the sorted sample. Selects the two order statistics
 * it reads with nth_element (O(n), no full sort). Reorders xs;
 * repeated calls on the same vector stay correct.
 */
inline double
percentileInPlace(std::vector<double> &xs, double q)
{
    if (xs.empty())
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double pos = q * static_cast<double>(xs.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    const auto loIt = xs.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(xs.begin(), loIt, xs.end());
    const double low = *loIt;
    // Everything after lo is >= xs[lo]; the next order statistic is
    // the smallest of them.
    const double high = lo + 1 < xs.size()
        ? *std::min_element(loIt + 1, xs.end()) : low;
    return low + (high - low) * frac;
}

/** percentileInPlace() on a copy, leaving the caller's sample as is. */
inline double
percentile(std::vector<double> xs, double q)
{
    return percentileInPlace(xs, q);
}

/** Fixed-range linear histogram. */
class Histogram
{
  public:
    Histogram() : Histogram(0.0, 1.0, 10) {}

    Histogram(double lo, double hi, size_t bins)
        : _lo(lo), _hi(hi), _bins(bins, 0)
    {
    }

    void
    add(double x)
    {
        _summary.add(x);
        if (_bins.empty())
            return;
        double t = (x - _lo) / (_hi - _lo);
        auto bin = static_cast<int64_t>(t * static_cast<double>(_bins.size()));
        bin = std::clamp<int64_t>(bin, 0,
                                  static_cast<int64_t>(_bins.size()) - 1);
        ++_bins[static_cast<size_t>(bin)];
    }

    const std::vector<uint64_t> &bins() const { return _bins; }
    const Summary &summary() const { return _summary; }
    double lo() const { return _lo; }
    double hi() const { return _hi; }

    /** Lower edge of bin i. */
    double
    binLeft(size_t i) const
    {
        return _lo + (_hi - _lo) * static_cast<double>(i)
                   / static_cast<double>(_bins.size());
    }

  private:
    double _lo;
    double _hi;
    std::vector<uint64_t> _bins;
    Summary _summary;
};

} // namespace rapidnn

#endif // RAPIDNN_COMMON_STATS_HH
