/**
 * @file
 * Deterministic random number generation used across the library.
 *
 * All stochastic components (dataset synthesis, weight init, input
 * sampling, dropout, Monte-Carlo circuit variation) draw from an Rng so
 * that every experiment in the repository is reproducible from a seed.
 */

#ifndef RAPIDNN_COMMON_RNG_HH
#define RAPIDNN_COMMON_RNG_HH

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace rapidnn {

/**
 * A seeded random source wrapping std::mt19937_64 with the handful of
 * distributions the library needs.
 */
class Rng
{
  public:
    /** Construct from an explicit seed (default fixed for repeatability). */
    explicit Rng(uint64_t seed = 0x5eed5eedULL) : _engine(seed) {}

    /** Uniform real in [lo, hi). */
    double
    uniform(double lo = 0.0, double hi = 1.0)
    {
        std::uniform_real_distribution<double> dist(lo, hi);
        return dist(_engine);
    }

    /** Gaussian with the given mean and standard deviation. */
    double
    gaussian(double mean = 0.0, double stddev = 1.0)
    {
        std::normal_distribution<double> dist(mean, stddev);
        return dist(_engine);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    uniformInt(int64_t lo, int64_t hi)
    {
        std::uniform_int_distribution<int64_t> dist(lo, hi);
        return dist(_engine);
    }

    /** Bernoulli trial with probability p of true. */
    bool bernoulli(double p) { return uniform() < p; }

    /** Sample k distinct indices from [0, n) (k <= n). */
    std::vector<size_t>
    sampleIndices(size_t n, size_t k)
    {
        std::vector<size_t> idx(n);
        for (size_t i = 0; i < n; ++i)
            idx[i] = i;
        // Partial Fisher-Yates: only the first k draws are needed.
        for (size_t i = 0; i < k && i + 1 < n; ++i) {
            size_t j = static_cast<size_t>(
                uniformInt(static_cast<int64_t>(i),
                           static_cast<int64_t>(n - 1)));
            std::swap(idx[i], idx[j]);
        }
        idx.resize(k < n ? k : n);
        return idx;
    }

    /** Shuffle a vector in place. */
    template <typename T>
    void
    shuffle(std::vector<T> &values)
    {
        std::shuffle(values.begin(), values.end(), _engine);
    }

    /** Derive an independent child generator (for parallel components). */
    Rng
    fork()
    {
        return Rng(_engine());
    }

    /** Access the underlying engine for std:: distribution interop. */
    std::mt19937_64 &engine() { return _engine; }

  private:
    std::mt19937_64 _engine;
};

} // namespace rapidnn

#endif // RAPIDNN_COMMON_RNG_HH
