/**
 * @file
 * The reinterpreted (neuron-to-memory transformed) DNN model.
 *
 * This is the output of the DNN composer and the configuration payload
 * of the RNA accelerator: every compute layer is re-expressed as
 * codebooks, encoded weights, pre-computed product tables, an
 * activation lookup table and an encoding table targeting the next
 * layer's input codebook (paper Sections 2.2 and 3.3).
 *
 * The class evaluates the encoded model in software ("error
 * estimation", Section 3.2), performing bit-exact the same table
 * lookups the hardware performs; the RNA simulator consumes the same
 * structures and adds timing/energy.
 */

#ifndef RAPIDNN_COMPOSER_REINTERPRETED_MODEL_HH
#define RAPIDNN_COMPOSER_REINTERPRETED_MODEL_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/array.hh"
#include "nn/dataset.hh"
#include "nn/network.hh"
#include "quant/activation_table.hh"
#include "quant/codebook.hh"
#include "quant/encoder.hh"

namespace rapidnn::composer {

/**
 * The most entries a weight codebook (a recurrent feedback path's
 * too) may hold: the chip's tally packs weight codes into 8 bits. The
 * paper's codebooks hold 4 to 128 entries. The composer, the blob
 * loader and Chip::configure each refuse more.
 */
inline constexpr size_t kMaxWeightEntries = 256;

/** Kinds of reinterpreted layers the accelerator executes. */
enum class RLayerKind
{
    Dense,
    Conv,
    MaxPool,
    AvgPool,
    Flatten,
    Residual,
    Recurrent,
};

/**
 * A reinterpreted compute layer (Dense or Conv) plus the structural
 * layers (pooling, flatten) the dataflow needs.
 *
 * For Dense layers there is one weight codebook; for Conv layers one
 * per output channel (paper Section 3.1). Product tables hold all
 * codebook-pair products: productTable[channel][w * u + uIdx].
 */
struct RLayer
{
    RLayerKind kind;

    // --- compute layers (Dense / Conv) ---
    size_t inCount = 0;      //!< dense fan-in, or conv inC*k*k
    size_t outCount = 0;     //!< dense out features, or conv outC
    size_t kernel = 0;       //!< conv kernel edge (0 for dense)
    size_t inChannels = 0;   //!< conv input channels
    bool samePadding = true; //!< conv padding policy

    quant::Codebook inputCodebook;               //!< u entries
    std::vector<quant::Codebook> weightCodebooks; //!< 1 (dense) or outC
    /** Encoded weights: dense [in*out] (i*out+j); conv [outC][inC*k*k]. */
    std::vector<Array<uint16_t>> weightCodes;
    Array<float> bias;
    /** Pre-computed products, one table per weight codebook. */
    std::vector<Array<double>> productTables;

    std::optional<quant::ActivationTable> activation; //!< absent = linear
    nn::ActKind activationKind = nn::ActKind::Identity;
    /** Encoder into the next compute layer's input codebook; empty for
     *  the final layer (raw logits leave the accelerator). */
    quant::Encoder outputEncoder;

    // --- structural layers ---
    size_t poolWindow = 0;   //!< pooling window (MaxPool / AvgPool)

    /**
     * Residual blocks (paper Section 4.3): the controller parks the
     * block's encoded inputs in the RNA input FIFOs, runs the inner
     * stack, and folds the decoded skip values into the final
     * weighted accumulation as one extra addend before activation/
     * encoding. `inner` holds the nested reinterpreted layers; the
     * last inner compute layer leaves its outputs raw and this
     * composite's outputEncoder encodes the summed result.
     */
    std::vector<RLayer> inner;

    /**
     * Recurrent (Elman) layers (paper Section 4.3): the neuron's own
     * previous-step encoded output loops back through its input FIFO.
     * The x operand uses inputCodebook/weightCodebooks/productTables
     * as usual; the hidden-state operand has its own codebook, encoded
     * recurrent weights, and product table. `steps` is the unrolled
     * sequence length.
     */
    size_t steps = 0;
    quant::Codebook stateCodebook;
    std::vector<quant::Codebook> stateWeightCodebooks;
    std::vector<Array<uint16_t>> stateWeightCodes;
    std::vector<Array<double>> stateProductTables;

    /** Hidden-state product lookup (recurrent layers). */
    double
    stateProduct(size_t wCode, size_t hCode) const
    {
        return stateProductTables[0][wCode * stateCodebook.size()
                                     + hCode];
    }

    /** Entries in the weight codebook(s) (w). */
    size_t weightEntries() const
    {
        return weightCodebooks.empty() ? 0 : weightCodebooks[0].size();
    }
    /** Entries in the input codebook (u). */
    size_t inputEntries() const { return inputCodebook.size(); }

    /** Product of a weight code and input code via the stored table. */
    double
    product(size_t channel, size_t wCode, size_t uCode) const
    {
        return productTables[channel][wCode * inputEntries() + uCode];
    }
};

/** Encoded activation map travelling between reinterpreted layers. */
struct EncodedTensor
{
    nn::Shape shape;              //!< [F] or [C, H, W]
    std::vector<uint16_t> codes;  //!< indices into the consumer codebook
};

/**
 * The whole reinterpreted network: a virtual input-encoding layer
 * followed by reinterpreted compute/structural layers.
 */
class ReinterpretedModel
{
  public:
    ReinterpretedModel() = default;

    std::vector<RLayer> &layers() { return _layers; }
    const std::vector<RLayer> &layers() const { return _layers; }

    /** The virtual layer encoding raw inputs (paper Section 2.2). */
    quant::Encoder &inputEncoder() { return _inputEncoder; }
    const quant::Encoder &inputEncoder() const { return _inputEncoder; }

    /** Run one sample through the encoded model; returns raw logits. */
    std::vector<double> forward(const nn::Tensor &x) const;

    /** Predicted class for one sample. */
    int predict(const nn::Tensor &x) const;

    /** Classification error rate over a dataset. */
    double errorRate(const nn::Dataset &data) const;

    /**
     * Total table storage in bytes: encoded weights at log2(w) bits,
     * product tables, activation tables and encoder entries at 32-bit
     * precision (paper Figure 12 "memory usage").
     */
    size_t memoryBytes() const;

    /** Short description, e.g. "dense(784->512) w=64 u=16 | ...". */
    std::string describe() const;

    /**
     * The input shape the model is deployed for ([F] or [C, H, W]).
     * Required to write a blob and to configure a chip: the chip
     * derives its execution layout (conv gather plans, workspace
     * arenas) at this shape and accepts inputs of this shape only.
     * The composer records the training set's feature shape.
     */
    const nn::Shape &canonicalInputShape() const { return _inputShape; }
    void setCanonicalInputShape(nn::Shape shape)
    {
        _inputShape = std::move(shape);
    }

  private:
    quant::Encoder _inputEncoder;
    std::vector<RLayer> _layers;
    nn::Shape _inputShape;

    EncodedTensor forwardEncoded(const RLayer &layer,
                                 const EncodedTensor &input,
                                 std::vector<double> *rawOut) const;
};

/** Output shape of one layer for a given input shape. */
nn::Shape layerOutputShape(const RLayer &layer, const nn::Shape &in);

/**
 * Walk a layer stack (recursing into residual inner stacks) calling
 * fn(layer, inShape, outShape) in execution order. The chip derives
 * each layer's execution layout and sizes its workspace with it.
 */
void walkLayerShapes(
    const std::vector<RLayer> &layers, const nn::Shape &input,
    const std::function<void(const RLayer &, const nn::Shape &,
                             const nn::Shape &)> &fn);

} // namespace rapidnn::composer

#endif // RAPIDNN_COMPOSER_REINTERPRETED_MODEL_HH
