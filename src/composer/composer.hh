/**
 * @file
 * The DNN composer: the offline software pipeline that reinterprets a
 * trained network for the in-memory accelerator (paper Section 3 and
 * Figure 4): parameter clustering -> quality estimation -> retraining
 * -> accelerator configuration.
 */

#ifndef RAPIDNN_COMPOSER_COMPOSER_HH
#define RAPIDNN_COMPOSER_COMPOSER_HH

#include <vector>

#include "common/stats.hh"
#include "composer/reinterpreted_model.hh"
#include "nn/trainer.hh"
#include "quant/activation_table.hh"

namespace rapidnn::composer {

/** Composer configuration (the paper's tuning knobs). */
struct ComposerConfig
{
    /** w, entries per weight codebook (at most kMaxWeightEntries). */
    size_t weightClusters = 64;
    size_t inputClusters = 64;   //!< u, entries per input codebook
    size_t activationRows = 64;  //!< q, activation table rows
    quant::TableSpacing spacing =
        quant::TableSpacing::DerivativeWeighted;
    /** Codebook tree depth; levels give 2..2^depth entries. */
    size_t treeDepth = 7;
    /** Maximum clustering/retraining iterations (paper uses 5). */
    size_t maxIterations = 5;
    /** Target quality loss epsilon (paper uses 0). */
    double epsilon = 0.0;
    /** SGD epochs per retraining round. */
    size_t retrainEpochs = 2;
    nn::TrainConfig retrainConfig{.epochs = 2, .batchSize = 32,
                                  .learningRate = 0.02, .momentum = 0.9,
                                  .shuffleSeed = 23};
    /** Fraction of training data sampled for input clustering (the
     *  paper reports 2 % suffices). */
    double inputSampleFraction = 0.1;
    /**
     * RNA sharing fraction (Section 5.6): the fraction of conv output
     * channels that share one RNA block — and therefore one codebook —
     * with a neighbour. FC neurons of a layer already share identical
     * tables, so sharing costs accuracy only where it merges distinct
     * per-channel conv codebooks.
     */
    double sharingFraction = 0.0;
    /** Samples used for error estimation (0 = whole validation set). */
    size_t validationCap = 0;
    /** Seeds input sampling and retraining (codebooks need none). */
    uint64_t seed = 7;
};

/** One clustering/retraining iteration record (paper Figure 6d). */
struct IterationRecord
{
    size_t iteration;
    double clusteredError;  //!< reinterpreted-model validation error
    double deltaE;          //!< clusteredError - baselineError
};

/** Everything a composer run produces. */
struct ComposeResult
{
    ReinterpretedModel model;
    double baselineError = 0.0;   //!< float model validation error
    double clusteredError = 0.0;  //!< final reinterpreted-model error
    double deltaE = 0.0;
    std::vector<IterationRecord> history;
    size_t epochsRun = 0;         //!< total retraining epochs (Table 3)
    double composeSeconds = 0.0;  //!< wall time of the pipeline (Table 3)
    /** Weight snapshots of the first dense/conv layer (Figure 6). */
    Histogram weightsBefore;
    Histogram weightsAfter;
};

/**
 * Drives the full reinterpretation pipeline over a trained network.
 * The network is modified in place (weights are projected onto their
 * cluster centroids and retrained).
 */
class Composer
{
  public:
    /** Fatal when config.weightClusters exceeds kMaxWeightEntries. */
    explicit Composer(ComposerConfig config);

    /**
     * Reinterpret a trained network.
     * @param net trained float model (modified in place).
     * @param train training data (codebooks, retraining).
     * @param validation held-out data (error estimation).
     */
    ComposeResult compose(nn::Network &net, const nn::Dataset &train,
                          const nn::Dataset &validation);

    /**
     * Build the reinterpreted model from the network's current weights
     * without any retraining (one-shot reinterpretation).
     */
    ReinterpretedModel reinterpret(nn::Network &net,
                                   const nn::Dataset &train);

    /**
     * Project every compute layer's weights onto their codebook
     * centroids (clustered per layer, per channel for conv, per matrix
     * for recurrent), recursing into residual blocks. Returns the
     * number of parameters rewritten.
     */
    size_t projectWeights(nn::Network &net);

    const ComposerConfig &config() const { return _config; }

  private:
    ComposerConfig _config;

    /** Captured per-compute-layer tensors from an instrumented run. */
    struct LayerCapture
    {
        std::vector<double> inputs;  //!< sampled input activations
        double preActLo = 0.0;       //!< observed weighted-sum range
        double preActHi = 0.0;
    };

    /** Everything the instrumented run collects (DFS layer order). */
    struct CaptureSet
    {
        std::vector<LayerCapture> compute;  //!< per compute layer
        /** Post-skip-add value ranges, one per residual block. */
        std::vector<std::pair<double, double>> residualRanges;
        /** Sampled hidden-state values, one per recurrent layer. */
        std::vector<std::vector<double>> recurrentStates;
    };

    CaptureSet captureLayerInputs(nn::Network &net,
                                  const nn::Dataset &train);
};

} // namespace rapidnn::composer

#endif // RAPIDNN_COMPOSER_COMPOSER_HH
