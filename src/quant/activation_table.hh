/**
 * @file
 * Step-wise approximation of activation functions as lookup tables
 * (paper Section 2.2, Figure 2c).
 *
 * A table stores (y, z) coordinate pairs of the function over a clipped
 * domain [A, B]; evaluation returns the z of the nearest stored y. Point
 * placement is either linear or *non-linear*: density proportional to
 * the local derivative magnitude, so regions where the function bends
 * get more points (the paper's accuracy-preserving refinement).
 */

#ifndef RAPIDNN_QUANT_ACTIVATION_TABLE_HH
#define RAPIDNN_QUANT_ACTIVATION_TABLE_HH

#include <functional>
#include <vector>

#include "common/array.hh"
#include "nn/activation.hh"

namespace rapidnn::quant {

/** Point-placement strategy for activation tables. */
enum class TableSpacing { Linear, DerivativeWeighted };

/**
 * A lookup-table model of a scalar function.
 */
class ActivationTable
{
  public:
    ActivationTable() = default;

    /**
     * Build a table for an activation function.
     * @param kind the function to model.
     * @param rows number of (y, z) pairs (the paper uses 64).
     * @param spacing point-placement strategy.
     * @param lo domain lower clip A (defaults from the function).
     * @param hi domain upper clip B.
     */
    static ActivationTable build(nn::ActKind kind, size_t rows,
                                 TableSpacing spacing,
                                 double lo, double hi);

    /** Build with the function's default saturation domain. */
    static ActivationTable build(nn::ActKind kind, size_t rows,
                                 TableSpacing spacing =
                                     TableSpacing::DerivativeWeighted);

    /**
     * Adopt parallel (y, z) row sequences without copying — typically
     * views into a memory-mapped model blob. The rows are untrusted:
     * sortedness and the >= 2 row minimum fail cleanly (RAPIDNN_CHECK)
     * instead of asserting.
     */
    static ActivationTable fromViews(Array<double> inputs,
                                     Array<double> outputs);

    /**
     * Build a table for an arbitrary scalar function over [lo, hi]
     * (used for encoding tables and tests).
     */
    static ActivationTable buildCustom(
        const std::function<double(double)> &fn,
        const std::function<double(double)> &derivative,
        size_t rows, TableSpacing spacing, double lo, double hi);

    /** Table evaluation: z of the row whose y is nearest the input. */
    double lookup(double y) const;

    /** Index of the row whose y is nearest the input. */
    size_t lookupRow(double y) const;

    size_t rows() const { return _y.size(); }
    const Array<double> &inputs() const { return _y; }
    const Array<double> &outputs() const { return _z; }
    double domainLo() const { return _lo; }
    double domainHi() const { return _hi; }

    /**
     * Worst-case |table(y) - fn(y)| sampled densely over the domain
     * (for accuracy studies and tests).
     */
    double maxError(const std::function<double(double)> &fn,
                    size_t probes = 4096) const;

  private:
    Array<double> _y;  //!< sorted row keys; owned or blob view
    Array<double> _z;  //!< row outputs; owned or blob view
    double _lo = 0.0;
    double _hi = 0.0;
};

} // namespace rapidnn::quant

#endif // RAPIDNN_QUANT_ACTIVATION_TABLE_HH
