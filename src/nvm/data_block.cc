#include "nvm/data_block.hh"

#include <cmath>

#include "common/check.hh"

namespace rapidnn::nvm {

OpCost
DataBlock::streamOutCost(const CostModel &model, size_t words,
                         size_t lanes)
{
    RAPIDNN_ASSERT(lanes >= 1, "streamOut needs lanes");
    const auto cycles = static_cast<uint64_t>(std::ceil(
        static_cast<double>(words) / static_cast<double>(lanes)));
    return {cycles,
            model.crossbarReadEnergy * static_cast<double>(words)};
}

OpCost
DataBlock::writeBackCost(const CostModel &model, size_t words)
{
    // A word write switches up to 32 cells.
    return {static_cast<uint64_t>(words),
            model.norEnergyPerBit * (32.0 * double(words))};
}

} // namespace rapidnn::nvm
