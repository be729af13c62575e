#include "telemetry/telemetry.hh"

namespace rapidnn::telemetry {

std::vector<double>
latencyBucketsSeconds()
{
    return {25e-6, 50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3,
            5e-3,  1e-2,  2.5e-2, 5e-2,   1e-1,   2.5e-1, 1.0};
}

std::vector<double>
stageBucketsSeconds()
{
    return {1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4,
            2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 1e-1};
}

std::vector<double>
batchSizeBuckets()
{
    return {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0};
}

std::vector<double>
utilizationBuckets()
{
    return {0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0};
}

void
dumpAll(std::ostream &out)
{
    out << renderPrometheus(Registry::global());
}

} // namespace rapidnn::telemetry
