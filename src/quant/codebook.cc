#include "quant/codebook.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/bitops.hh"
#include "common/check.hh"

namespace rapidnn::quant {

Codebook::Codebook(std::vector<double> values)
{
    // Codebook values can arrive from outside the process (model
    // files), so reject the inputs that would break the sorted-index
    // contract cleanly: emptiness and non-finite values (NaN breaks
    // strict weak ordering, so sort order — and with it every encoded
    // comparison — would be unspecified).
    RAPIDNN_CHECK(!values.empty(), "empty codebook");
    for (double v : values)
        RAPIDNN_CHECK(std::isfinite(v), "non-finite codebook value");
    std::sort(values.begin(), values.end());
    _values = std::move(values);
}

Codebook
Codebook::fromSorted(Array<double> values)
{
    RAPIDNN_CHECK(!values.empty(), "empty codebook");
    for (size_t i = 0; i < values.size(); ++i) {
        RAPIDNN_CHECK(std::isfinite(values[i]),
                      "non-finite codebook value");
        RAPIDNN_CHECK(i == 0 || values[i - 1] <= values[i],
                      "codebook values not sorted ascending");
    }
    Codebook cb;
    cb._values = std::move(values);
    return cb;
}

size_t
nearestCentroid(const double *centroids, size_t count, double x)
{
    RAPIDNN_ASSERT(count > 0, "nearestCentroid on empty codebook");
    // Binary search on the sorted centroid list, then compare neighbours.
    const double *last = centroids + count;
    const double *it = std::lower_bound(centroids, last, x);
    if (it == centroids)
        return 0;
    if (it == last)
        return count - 1;
    const size_t hi = static_cast<size_t>(it - centroids);
    const size_t lo = hi - 1;
    return (x - centroids[lo]) <= (centroids[hi] - x) ? lo : hi;
}

uint32_t
Codebook::bits() const
{
    return indexBits(_values.size());
}

TreeCodebook::TreeCodebook(const std::vector<double> &samples, size_t depth)
{
    // Both arguments are caller-supplied configuration, not library
    // invariants: fail cleanly on misuse. NaN would break the sort's
    // strict weak ordering.
    RAPIDNN_CHECK(!samples.empty(), "TreeCodebook on empty samples");
    RAPIDNN_CHECK(depth >= 1 && depth <= 16, "unreasonable tree depth ",
                  depth);
    for (double s : samples)
        RAPIDNN_CHECK(std::isfinite(s), "non-finite TreeCodebook sample");

    // Recursive binary splits. In 1-D every cluster is an interval of
    // the sorted samples, so a level is a list of [begin, end) ranges
    // and the best 2-way split of a range is the cut that minimizes the
    // two sides' WCSS, i.e. maximizes S_L^2/n_L + S_R^2/n_R over the
    // values centered on the range's mean (centering keeps the sums
    // free of cancellation). Each side's centroid is its mean: Lloyd's
    // fixed point, reached exactly. A range of equal values keeps one
    // entry. Ranges stay in ascending order, so level l lists the 2^l
    // leaf centroids left to right.
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::pair<size_t, size_t>> ranges = {{0, sorted.size()}};

    for (size_t lvl = 1; lvl <= depth; ++lvl) {
        std::vector<std::pair<size_t, size_t>> next;
        std::vector<double> centroids;
        next.reserve(ranges.size() * 2);
        for (const auto &[begin, end] : ranges) {
            if (sorted[begin] == sorted[end - 1]) {
                centroids.push_back(sorted[begin]);
                next.emplace_back(begin, end);
                continue;
            }
            double mean = 0.0;
            for (size_t i = begin; i < end; ++i)
                mean += sorted[i];
            mean /= double(end - begin);
            double total = 0.0;
            for (size_t i = begin; i < end; ++i)
                total += sorted[i] - mean;

            // Cuts only between distinct values; a tie keeps the
            // lowest cut.
            size_t cut = 0;
            double cutLeft = 0.0;
            double best = -1.0;
            double left = 0.0;
            for (size_t i = begin + 1; i < end; ++i) {
                left += sorted[i - 1] - mean;
                if (sorted[i - 1] == sorted[i])
                    continue;
                const double right = total - left;
                const double score = left * left / double(i - begin)
                    + right * right / double(end - i);
                if (score > best) {
                    best = score;
                    cut = i;
                    cutLeft = left;
                }
            }
            centroids.push_back(mean + cutLeft / double(cut - begin));
            centroids.push_back(mean + (total - cutLeft) / double(end - cut));
            next.emplace_back(begin, cut);
            next.emplace_back(cut, end);
        }
        _levels.emplace_back(std::move(centroids));
        ranges = std::move(next);
    }
}

size_t
TreeCodebook::levelForEntries(size_t entries) const
{
    // Deepest level whose entry count does not exceed the request, so a
    // "w = 16" configuration never uses more than 16 table rows.
    size_t chosen = 1;
    for (size_t lvl = 1; lvl <= depth(); ++lvl) {
        if (level(lvl).size() <= entries)
            chosen = lvl;
        else
            break;
    }
    return chosen;
}

bool
TreeCodebook::refinementHolds() const
{
    // Each level must be no coarser than its parent and per-level sorted
    // (sortedness is a Codebook constructor invariant; check growth).
    for (size_t lvl = 2; lvl <= depth(); ++lvl)
        if (level(lvl).size() < level(lvl - 1).size())
            return false;
    return true;
}

} // namespace rapidnn::quant
