/**
 * @file
 * Data-block tests: the stream-out and write-back costs of paper
 * Figure 1's input/result crossbar memories.
 */

#include <gtest/gtest.h>

#include "nvm/data_block.hh"

namespace rapidnn::nvm {
namespace {

TEST(DataBlock, StreamOutScalesWithLanes)
{
    CostModel model;
    const OpCost narrow = DataBlock::streamOutCost(model, 1024, 32);
    const OpCost wide = DataBlock::streamOutCost(model, 1024, 1024);
    EXPECT_EQ(narrow.cycles, 32u);
    EXPECT_EQ(wide.cycles, 1u);
    // Same words moved, same energy.
    EXPECT_DOUBLE_EQ(narrow.energy.j(), wide.energy.j());
}

TEST(DataBlock, WriteBackCostPerWord)
{
    CostModel model;
    const OpCost ten = DataBlock::writeBackCost(model, 10);
    const OpCost twenty = DataBlock::writeBackCost(model, 20);
    EXPECT_EQ(ten.cycles, 10u);
    EXPECT_NEAR(twenty.energy.j() / ten.energy.j(), 2.0, 1e-9);
}

} // namespace
} // namespace rapidnn::nvm
