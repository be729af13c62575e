#include "quant/activation_table.hh"

#include <cmath>

#include "common/check.hh"
#include "quant/codebook.hh"

namespace rapidnn::quant {

ActivationTable
ActivationTable::fromViews(Array<double> inputs, Array<double> outputs)
{
    RAPIDNN_CHECK(inputs.size() == outputs.size() && inputs.size() >= 2,
                  "activation table needs >= 2 parallel rows, got ",
                  inputs.size(), " and ", outputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
        RAPIDNN_CHECK(std::isfinite(inputs[i]),
                      "non-finite activation table key");
        RAPIDNN_CHECK(i == 0 || inputs[i - 1] <= inputs[i],
                      "activation table keys not sorted");
    }
    ActivationTable table;
    table._lo = inputs.front();
    table._hi = inputs.back();
    table._y = std::move(inputs);
    table._z = std::move(outputs);
    return table;
}

ActivationTable
ActivationTable::buildCustom(const std::function<double(double)> &fn,
                             const std::function<double(double)> &derivative,
                             size_t rows, TableSpacing spacing, double lo,
                             double hi)
{
    RAPIDNN_ASSERT(rows >= 2, "activation table needs >= 2 rows");
    RAPIDNN_ASSERT(hi > lo, "degenerate activation domain");

    ActivationTable table;
    table._lo = lo;
    table._hi = hi;
    std::vector<double> ys(rows);

    if (spacing == TableSpacing::Linear) {
        for (size_t i = 0; i < rows; ++i)
            ys[i] = lo + (hi - lo) * double(i) / double(rows - 1);
    } else {
        // Derivative-weighted placement: integrate |f'| numerically to
        // get an importance CDF, then place rows at equal CDF quantiles.
        // A small uniform floor keeps flat regions represented.
        const size_t grid = 4096;
        std::vector<double> cdf(grid + 1, 0.0);
        const double step = (hi - lo) / double(grid);
        double floorWeight = 0.0;
        for (size_t i = 0; i < grid; ++i) {
            const double y = lo + (double(i) + 0.5) * step;
            floorWeight = std::max(floorWeight,
                                   std::abs(derivative(y)));
        }
        floorWeight = std::max(1e-9, 0.02 * floorWeight);
        for (size_t i = 0; i < grid; ++i) {
            const double y = lo + (double(i) + 0.5) * step;
            cdf[i + 1] = cdf[i]
                       + std::max(std::abs(derivative(y)), floorWeight);
        }
        const double total = cdf.back();
        size_t cursor = 0;
        for (size_t i = 0; i < rows; ++i) {
            const double target =
                total * double(i) / double(rows - 1);
            // target can round a hair above cdf.back() for the final
            // row, so the cursor must stop at the last cell (grid - 1)
            // to keep cdf[cursor + 1] in range.
            while (cursor + 1 < grid && cdf[cursor + 1] < target)
                ++cursor;
            // Linear interpolation within the grid cell.
            const double cellLo = cdf[cursor];
            const double cellHi = cdf[cursor + 1];
            const double frac = cellHi > cellLo
                ? (target - cellLo) / (cellHi - cellLo) : 0.0;
            ys[i] = lo + (double(cursor) + frac) * step;
        }
        ys.front() = lo;
        ys.back() = hi;
    }

    std::vector<double> zs(rows);
    for (size_t i = 0; i < rows; ++i)
        zs[i] = fn(ys[i]);
    table._y = std::move(ys);
    table._z = std::move(zs);
    return table;
}

ActivationTable
ActivationTable::build(nn::ActKind kind, size_t rows, TableSpacing spacing,
                       double lo, double hi)
{
    return buildCustom(
        [kind](double y) { return nn::actForward(kind, y); },
        [kind](double y) { return nn::actDerivative(kind, y); },
        rows, spacing, lo, hi);
}

ActivationTable
ActivationTable::build(nn::ActKind kind, size_t rows, TableSpacing spacing)
{
    double lo, hi;
    nn::actDefaultDomain(kind, lo, hi);
    return build(kind, rows, spacing, lo, hi);
}

size_t
ActivationTable::lookupRow(double y) const
{
    RAPIDNN_ASSERT(!_y.empty(), "lookup on unbuilt table");
    return nearestCentroid(_y.data(), _y.size(), y);
}

double
ActivationTable::lookup(double y) const
{
    return _z[lookupRow(y)];
}

double
ActivationTable::maxError(const std::function<double(double)> &fn,
                          size_t probes) const
{
    double worst = 0.0;
    for (size_t i = 0; i < probes; ++i) {
        const double y =
            _lo + (_hi - _lo) * double(i) / double(probes - 1);
        worst = std::max(worst, std::abs(lookup(y) - fn(y)));
    }
    return worst;
}

} // namespace rapidnn::quant
