/**
 * @file
 * Layer-shape descriptions of networks, independent of trained weights.
 *
 * The hardware performance/energy models (RAPIDNN and the baselines)
 * consume only shapes: per-layer neuron counts, fan-ins and MAC counts.
 * Shapes come either from a live `Network` (the trainable stand-ins) or
 * from the catalog of published ImageNet topologies (AlexNet, VGG-16,
 * GoogLeNet, ResNet-152) used by Figures 15/16 and Tables 3/4.
 */

#ifndef RAPIDNN_NN_TOPOLOGY_HH
#define RAPIDNN_NN_TOPOLOGY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "nn/network.hh"
#include "nn/synthetic.hh"

namespace rapidnn::nn {

/** Shape summary of one compute layer. */
struct LayerShape
{
    LayerKind kind;     //!< Dense, Conv2D, pooling, or Recurrent
    size_t neurons;     //!< output values computed, over all steps
    size_t fanIn;       //!< inputs accumulated per output value
    size_t params;      //!< trainable parameter count
    /** Multiply-accumulates for this layer (0 for pooling). */
    uint64_t
    macs() const
    {
        if (kind == LayerKind::MaxPool2D || kind == LayerKind::AvgPool2D)
            return 0;
        return static_cast<uint64_t>(neurons) * fanIn;
    }
    /**
     * Distinct "hardware neurons" the RNA mapper must allocate: for a
     * conv layer, all positions of one output channel share one RNA
     * table, so the distinct count is the channel count.
     */
    size_t distinctNeurons;
    /** Sequential steps the neurons run in: a recurrent layer's
     *  unrolled steps (the feedback hazard serializes them), 1 for
     *  every other layer. */
    size_t steps = 1;

    /** Output values one step computes. */
    size_t stepNeurons() const { return neurons / steps; }
};

/** Shape summary of a whole network. */
struct NetworkShape
{
    std::string name;
    std::vector<LayerShape> layers;

    uint64_t totalMacs() const;
    uint64_t totalOps() const;  //!< 2 * MACs + pooling compares
    size_t totalParams() const;
    size_t maxFanIn() const;
    bool hasConvolution() const;
};

/**
 * Extract the shape of a live network given its input feature shape
 * ([F] or [C, H, W]).
 */
NetworkShape shapeOfNetwork(const Network &net, const Shape &inputShape,
                            const std::string &name);

/** Published ImageNet topologies used in the paper's comparisons. */
enum class ImageNetModel { AlexNet, Vgg16, GoogLeNet, ResNet152 };

/** Printable name ("AlexNet", ...). */
std::string imageNetModelName(ImageNetModel m);

/** All four, in the paper's order. */
const std::vector<ImageNetModel> &allImageNetModels();

/** Catalog shape of a published topology (224x224x3 input). */
NetworkShape imageNetShape(ImageNetModel m);

/**
 * Paper-scale (Table 2) shapes of the six evaluation benchmarks, used
 * by the performance models: MNIST/ISOLET/HAR as 512-wide MLPs, the
 * CIFAR models as the paper's CNN at 32x32, ImageNet as VGG-16.
 */
NetworkShape paperBenchmarkShape(Benchmark b);

} // namespace rapidnn::nn

#endif // RAPIDNN_NN_TOPOLOGY_HH
