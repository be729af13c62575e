/**
 * @file
 * Multi-level (tree) codebooks of representative values.
 *
 * The composer builds codebooks as binary trees by recursive 2-way
 * k-means (paper Section 3.1, Figure 5): level L holds 2^L centroids,
 * each level refining its parent's clusters. In 1-D every cluster is
 * an interval of the sorted samples, so each 2-way split is exact: the
 * cut with the least two-sided WCSS. Per-level centroids are
 * sorted before encoding so that comparisons on encoded indices equal
 * comparisons on the underlying values — the property that lets the
 * accelerator run max/min pooling directly on encoded data.
 */

#ifndef RAPIDNN_QUANT_CODEBOOK_HH
#define RAPIDNN_QUANT_CODEBOOK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/array.hh"
#include "common/check.hh"

namespace rapidnn::quant {

/** Index of the centroid nearest to x (centroids sorted ascending). */
size_t nearestCentroid(const double *centroids, size_t count, double x);

/**
 * A flat codebook: a sorted list of representative values. Encoding a
 * value means finding the nearest representative's index.
 */
class Codebook
{
  public:
    Codebook() = default;
    explicit Codebook(std::vector<double> values);

    /**
     * Adopt an already-sorted value sequence — typically a view into a
     * memory-mapped model blob — without copying. The sorted-ascending
     * and all-finite contracts the sorting constructor establishes are
     * verified (the bytes are untrusted), not re-created.
     */
    static Codebook fromSorted(Array<double> values);

    /** Number of representatives (0 for an unbuilt codebook). */
    size_t size() const { return _values.size(); }
    bool empty() const { return _values.empty(); }

    /** True when `code` is a valid encoded index for this codebook. */
    bool contains(size_t code) const { return code < _values.size(); }

    /**
     * Representative for an encoded index. Codes can originate outside
     * the process (serialized models), so the range check is always on
     * and fails cleanly rather than throwing or indexing out of range.
     */
    double
    value(size_t index) const
    {
        RAPIDNN_CHECK(contains(index), "code ", index,
                      " outside codebook of ", _values.size());
        return _values[index];
    }
    const Array<double> &values() const { return _values; }

    /** Encode: index of the nearest representative. */
    size_t
    encode(double x) const
    {
        return nearestCentroid(_values.data(), _values.size(), x);
    }

    /** Decode-encode round trip: nearest representative value. */
    double quantize(double x) const { return _values[encode(x)]; }

    /** Bits needed to store an encoded index. */
    uint32_t bits() const;

  private:
    Array<double> _values;  //!< sorted ascending; owned or blob view
};

/**
 * A tree codebook: per-level flat codebooks of 2^level entries built by
 * recursive binary k-means, each split exact. Level indices run from 1
 * (two entries) to depth() (the finest resolution). Selecting a level
 * trades accuracy against memory, which is the accelerator's runtime
 * tuning knob.
 */
class TreeCodebook
{
  public:
    TreeCodebook() = default;

    /**
     * Build from samples (all finite).
     * @param samples scalar population to represent.
     * @param depth number of levels; the finest has 2^depth entries.
     */
    TreeCodebook(const std::vector<double> &samples, size_t depth);

    /** Number of levels (finest level == depth()). */
    size_t depth() const { return _levels.size(); }

    /** The flat codebook at a level in [1, depth()]. */
    const Codebook &level(size_t lvl) const { return _levels.at(lvl - 1); }

    /** The finest-resolution codebook. */
    const Codebook &
    finest() const
    {
        return _levels.back();
    }

    /**
     * The level whose entry count is at least `entries` (clamped to the
     * deepest level). Used to honour "w = 16"-style configurations.
     */
    size_t levelForEntries(size_t entries) const;

    /**
     * Hierarchical-prefix property check: the code of a value at level
     * l, shifted right by (depth-l)... is NOT required by this design;
     * instead each level is independently sorted (paper Figure 5b sorts
     * per level). This helper verifies the refinement property: each
     * level-l cluster is split into contiguous level-(l+1) clusters.
     */
    bool refinementHolds() const;

  private:
    std::vector<Codebook> _levels;
};

} // namespace rapidnn::quant

#endif // RAPIDNN_QUANT_CODEBOOK_HH
