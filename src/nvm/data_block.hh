/**
 * @file
 * Data blocks: the conventional crossbar memories that hold the input
 * dataset and receive the accelerator's results (paper Figure 1 and
 * Section 2.1: "The data block is a typical crossbar memory which
 * stores an input dataset... Once the inference is completed, the
 * accelerator writes the computed results back to the crossbar
 * memory").
 *
 * The chip model charges read energy per input word streamed out and
 * write energy per result word written back, the terms it folds into
 * its per-inference "other" phase. The costs depend only on the cost
 * model, so no store is materialized.
 */

#ifndef RAPIDNN_NVM_DATA_BLOCK_HH
#define RAPIDNN_NVM_DATA_BLOCK_HH

#include <cstddef>

#include "nvm/cost_model.hh"
#include "nvm/op_cost.hh"

namespace rapidnn::nvm {

/** The data block's transfer costs. */
class DataBlock
{
  public:
    /**
     * Cost of streaming `words` words out over `lanes` parallel
     * bitlines (input broadcast into the RNA FIFOs).
     */
    static OpCost streamOutCost(const CostModel &model, size_t words,
                                size_t lanes);

    /** Cost of writing back `words` result words. */
    static OpCost writeBackCost(const CostModel &model, size_t words);
};

} // namespace rapidnn::nvm

#endif // RAPIDNN_NVM_DATA_BLOCK_HH
