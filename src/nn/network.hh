/**
 * @file
 * Network: an ordered stack of layers plus the precision-switch
 * machinery that RPS relies on.
 *
 * A Network is bound to a PrecisionSet. setPrecision(q) fake-quantizes
 * all weights/activations at q bits and selects the SBN bank for q;
 * setPrecision(0) restores full precision (bank 0). Networks therefore
 * hold set.size()+1 SBN banks: bank 0 for full precision, banks 1..n
 * for each candidate precision.
 */

#ifndef TWOINONE_NN_NETWORK_HH
#define TWOINONE_NN_NETWORK_HH

#include <memory>
#include <vector>

#include "nn/activation.hh"
#include "nn/layer.hh"
#include "quant/precision.hh"
#include "serve/execution_plan.hh"

namespace twoinone {

/**
 * Machine-readable construction spec of a whole network: the bound
 * candidate precisions plus each layer's LayerSpec, in network order.
 * The serialized architecture section of a model checkpoint —
 * model_zoo's buildFromSpec() reconstructs an identically shaped
 * Network from it without C++ code changes.
 */
struct NetworkSpec
{
    std::vector<int> precisions;
    std::vector<LayerSpec> layers;
};

/**
 * Sequential network with precision switching.
 */
class Network
{
  public:
    Network() = default;

    /** Bind the candidate precision set (defines SBN bank mapping). */
    explicit Network(PrecisionSet set) : precisionSet_(std::move(set)) {}

    Network(Network &&) = default;
    Network &operator=(Network &&) = default;

    /** Append a layer (takes ownership). */
    void add(LayerPtr layer);

    /** Number of layers. */
    size_t numLayers() const { return layers_.size(); }

    /** Access layer i. */
    Layer &layer(size_t i);

    /** Full forward pass. */
    Tensor forward(const Tensor &x, bool train);

    /**
     * Inference forward on the integer-code datapath: the network
     * input is quantized first (at max(actBits, 16), so the stem conv
     * consumes integer codes without measurable input noise),
     * ActQuant layers emit QuantTensor codes (static scales when
     * calibrated), Conv2d / Linear consume them through the integer
     * GEMM kernels, and float-domain layers compose through the dense
     * view. Matches forward() within the rounding tolerance
     * documented in the README's quantized-execution section. This
     * per-layer loop is the reference a compiled quantized plan is
     * bit-identical to.
     */
    Tensor forwardQuantized(const Tensor &x);

    /** Full backward pass; returns gradient wrt the network input. */
    Tensor backward(const Tensor &grad_out);

    /** All learnable parameters. */
    std::vector<Parameter *> parameters();

    /** All weight-quantizing layers (Conv2d/Linear, recursively), in
     * network order — the cache targets of RpsEngine. */
    std::vector<WeightQuantizedLayer *> weightQuantizedLayers();

    /** All activation quantizers (recursively), in network order —
     * the calibration targets. */
    std::vector<ActQuant *> actQuantLayers();

    /** The network's construction spec (precisions + layer specs). */
    NetworkSpec spec() const;

    /** Collect every layer's serializable state, named
     * "layers.<i>.<...>" in network order — the checkpoint writer's
     * and loader's shared view of the model (see StateEntry). */
    void collectState(StateDict &out);

    /** Every layer's post-restore invariant check (Layer::checkState):
     * empty when consistent, else the first violation found, prefixed
     * with the offending layer's index. */
    std::string checkState() const;

    /** Zero all parameter gradients. */
    void zeroGrad();

    /** Number of learnable scalars. */
    size_t parameterCount();

    /** The bound candidate set. */
    const PrecisionSet &precisionSet() const { return precisionSet_; }

    /** Number of SBN banks networks built against this set need. */
    int bnBanks() const;

    /**
     * Switch the active precision.
     *
     * @param bits Candidate precision (must be in the bound set) or 0
     *             for full precision.
     */
    void setPrecision(int bits);

    /** Currently active precision (0 = full). */
    int activePrecision() const { return activeBits_; }

    /** Predicted class per row for a batch (eval forward). */
    std::vector<int> predict(const Tensor &x);

    /** Predicted class per row, via the integer datapath. */
    std::vector<int> predictQuantized(const Tensor &x);

    /** The input quantizer feeding the stem conv on the integer
     * datapath (not part of the layer stack; applied only by
     * forwardQuantized / the quantized plan). */
    ActQuant &inputQuant() { return *inputQuant_; }

    /**
     * Compile this network into an execution plan: one flat,
     * allocation-free step list over a preallocated arena, executing
     * at whatever precision is active when run (see
     * serve/execution_plan.hh). @p precisions are the candidates the
     * warm-up dry passes size buffers for (must be within the bound
     * set); @p max_input_shape is the largest [N, C, H, W] batch the
     * plan will serve. @p warm_all = false defers each candidate's
     * warm-up to its first real run (lazy compilation — see
     * ExecutionPlan::compile).
     */
    std::unique_ptr<serve::ExecutionPlan>
    compile(const PrecisionSet &precisions, serve::PlanMode mode,
            const std::vector<int> &max_input_shape,
            bool warm_all = true);

  private:
    PrecisionSet precisionSet_;
    std::vector<LayerPtr> layers_;
    int activeBits_ = 0;

    /** Heap-allocated so compiled plan steps can hold a stable
     * pointer across Network moves; pinned to the unit image range
     * (dataset images and the attacks' perturbed inputs live in
     * [0, 1]), so input quantization needs no per-batch reduction and
     * is independent of batch composition. */
    std::unique_ptr<ActQuant> inputQuant_ = makeInputQuant();

    static std::unique_ptr<ActQuant>
    makeInputQuant()
    {
        auto q = std::make_unique<ActQuant>();
        q->setFixedRange(1.0f);
        return q;
    }
};

} // namespace twoinone

#endif // TWOINONE_NN_NETWORK_HH
