/**
 * @file
 * Layer abstraction for the DNN substrate.
 *
 * Every layer implements an explicit forward pass (caching whatever it
 * needs) and an explicit backward pass returning the gradient with
 * respect to its input while accumulating parameter gradients. Both
 * adversarial attacks (input gradients) and training (parameter
 * gradients) are served by the same backward path.
 *
 * Quantization is threaded through layers via QuantState: layers that
 * hold weights fake-quantize them in forward when weightBits > 0, and
 * ActQuant layers fake-quantize activations when actBits > 0. SBN
 * layers switch their statistics bank on QuantState::bnIndex.
 */

#ifndef TWOINONE_NN_LAYER_HH
#define TWOINONE_NN_LAYER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "quant/linear_quantizer.hh"
#include "quant/quant_tensor.hh"
#include "tensor/gemm.hh"
#include "tensor/tensor.hh"

namespace twoinone {

class ActQuant;

namespace serve {
class PlanBuilder;
}

/**
 * Operand staging of the integer GEMMs: im2col columns at the
 * narrowest operand width, the exact accumulators, and the wide
 * Linear path's lo/hi split. One GEMM uses it at a time, so a
 * compiled plan shares one block across all its steps
 * (serve/execution_plan.hh).
 */
struct IntGemmScratch
{
    std::vector<uint8_t> a8;
    std::vector<uint16_t> a16;
    std::vector<int64_t> acc;
    /** Staging buffer of igemmPackedWideTransA's lo/hi activation
     * split (the Linear wide path). */
    std::vector<uint16_t> wide16;

    size_t bytes() const
    {
        return a8.size() * sizeof(uint8_t) +
               a16.size() * sizeof(uint16_t) +
               acc.size() * sizeof(int64_t) +
               wide16.size() * sizeof(uint16_t);
    }
};

/**
 * A layer's locally built tile-packed weights (gemm::packWeights) —
 * used when no engine-owned pack holding the codes in play is
 * installed (uncached precisions, detached engines) — plus the key
 * of the codes it was packed from, so repeated forwards against
 * unchanged weights (the serving steady state) skip the repack: same
 * source buffer, same precision, same master-weight version. A
 * re-quantization into the same buffer at the same (bits, version)
 * reproduces identical codes, so a pointer match cannot go stale
 * without a version bump.
 */
struct PackScratch
{
    gemm::PackedIntWeights wpack;
    const void *packedFrom = nullptr;
    int packedBits = 0;
    uint64_t packedVersion = 0;
};

/**
 * Machine-readable construction spec of a layer: a kind tag plus the
 * integer constructor arguments. The serializable counterpart of
 * describe() — model_zoo's buildLayerFromSpec() reconstructs the layer
 * from it (fresh weights; checkpoint loading then restores the state),
 * so a persisted network round-trips without C++ code changes.
 */
struct LayerSpec
{
    std::string kind;
    std::vector<int> args;
};

/**
 * One serializable piece of layer state, referenced *in place*: the
 * checkpoint writer reads through the pointer and the loader writes
 * back through the same pointer on a freshly built layer, so one
 * collection pass serves both directions. Exactly one payload pointer
 * is set per entry. Names are stable ("layers.3.bn1.bank2.gamma") —
 * they are the checkpoint's lookup keys across sessions.
 */
struct StateEntry
{
    std::string name;
    /** f32 tensor payload (weights, BN statistics). */
    Tensor *tensor = nullptr;
    /** f32 vector payload (calibration range maxima). */
    std::vector<float> *floats = nullptr;
    /** u8 vector payload (per-bank trained/recorded flags). */
    std::vector<char> *flags = nullptr;
    /** Single-bool payload (mode switches, e.g. static scale). */
    bool *flag = nullptr;
};

using StateDict = std::vector<StateEntry>;

/**
 * The active quantization configuration of a network.
 */
struct QuantState
{
    /** Weight precision; 0 disables weight quantization. */
    int weightBits = 0;
    /** Activation precision; 0 disables activation quantization. */
    int actBits = 0;
    /** Which switchable-BN statistics bank is active. */
    int bnIndex = 0;
};

/**
 * A learnable parameter: master value plus accumulated gradient.
 *
 * version counts committed updates to value: the optimizer bumps it
 * after every applied step, and caches keyed on the master weights
 * (RpsEngine) compare it against the version they quantized to skip
 * re-quantizing untouched layers. Code that mutates value directly
 * (tests, manual surgery) should call bumpVersion() — or fall back to
 * a full cache refresh.
 */
struct Parameter
{
    Tensor value;
    Tensor grad;
    uint64_t version = 0;

    explicit Parameter(Tensor v)
        : value(std::move(v)), grad(Tensor::zeros(value.shape()))
    {
    }

    void bumpVersion() { ++version; }
};

/**
 * Interface of layers that fake-quantize a weight tensor (Conv2d,
 * Linear). RpsEngine discovers these through
 * Layer::collectWeightQuantized and installs pre-quantized weight
 * codes (and their tile pack) so a precision switch becomes a cache
 * install instead of a re-quantization pass over the master weights.
 */
class WeightQuantizedLayer
{
  public:
    virtual ~WeightQuantizedLayer() = default;

    /** The master (full-precision) weight tensor. */
    virtual const Tensor &masterWeight() const = 0;

    /** Version counter of the master weights (Parameter::version) —
     * the staleness signal RpsEngine's dirty refresh keys on. */
    virtual uint64_t masterWeightVersion() const = 0;

    /**
     * Install externally owned canonical integer weight codes, or
     * clear them with nullptr. While installed and matching the
     * layer's active weightBits, the integer plan steps consume them
     * directly and the float forward/backward dequantize them instead
     * of re-running fakeQuantSymmetric; at any other active precision
     * the layer falls back to re-quantizing the masters. The pointee
     * must stay valid and in sync with the master weights while
     * installed; nothing points into it once it is cleared.
     */
    void setWeightCodes(const QuantTensor *codes) { weightCodes_ = codes; }

    /** The installed integer weight codes (nullptr when none). */
    const QuantTensor *weightCodes() const { return weightCodes_; }

    /**
     * Install engine-owned tile-packed weights alongside the codes
     * (or clear with nullptr). When present and matching the active
     * precision, the integer forward skips its local scratch repack
     * and feeds the packed SIMD kernels directly — the pack is built
     * once per (layer, precision) by RpsEngine. Same lifetime/sync
     * contract as setWeightCodes.
     */
    void setWeightPacked(const gemm::PackedIntWeights *packed)
    {
        weightPacked_ = packed;
    }

    /** The installed tile-packed weights (nullptr when none). */
    const gemm::PackedIntWeights *weightPacked() const
    {
        return weightPacked_;
    }

    /** Reduction-order tag of this layer's packs
     * (PackedIntWeights::taps): kernel * kernel for convs, whose
     * columns are tap-major, 1 for Linear. */
    virtual int packTaps() const { return 1; }

    /** Pack @p codes (this layer's weight codes at some precision)
     * in the layout its integer forward reads — the one packing rule
     * the engine's cells and the layer's local scratch pack share. */
    void packCodes(const QuantTensor &codes,
                   gemm::PackedIntWeights &out) const;

    /** @name Cache accounting
     * Counted per quantized-weight lookup (forward and backward, any
     * path) while the active precision is quantized: a hit used an
     * installed entry, a miss re-quantized the masters. Atomic:
     * serving-plan replicas look weights up concurrently from
     * multiple pool threads. */
    /** @{ */
    uint64_t cacheHits() const
    {
        return cacheHits_.load(std::memory_order_relaxed);
    }
    uint64_t cacheMisses() const
    {
        return cacheMisses_.load(std::memory_order_relaxed);
    }
    void resetCacheStats()
    {
        cacheHits_.store(0, std::memory_order_relaxed);
        cacheMisses_.store(0, std::memory_order_relaxed);
    }
    /** @} */

    /**
     * Record the integer operands of the next quantized forward
     * (weights and activations as consumed) for the bit-serial
     * cross-checks; clearing also drops the recorded copies.
     */
    void setQuantTrace(bool on);

    /** Last traced integer operands (valid after a traced quantized
     * plan forward whose step took the integer path). */
    const QuantTensor &tracedWeightCodes() const { return tracedW_; }
    const QuantTensor &tracedActCodes() const { return tracedA_; }
    /** Last traced integer accumulator outputs, row-major in the
     * layer's output shape. */
    const std::vector<int64_t> &tracedAccumulators() const
    {
        return tracedAcc_;
    }

  protected:
    /**
     * The float weights to run on at @p bits, written into the
     * caller-owned @p out: the installed codes dequantized when they
     * match @p bits, else LinearQuantizer::fakeQuantSymmetric of the
     * masters (bit-identical values; the masters themselves at
     * @p bits <= 0). Returns the grid scale, which the backward hands
     * to accumulateSteGrad.
     */
    float quantizedWeight(int bits, Tensor &out) const;

    /**
     * The STE weight-gradient update: @p grad[i] += @p dw[i] * mask[i]
     * over the masters, where mask[i] = steMaskSigned(master[i],
     * @p scale, qmax) is the STE mask of the (@p bits, @p scale) grid
     * the forward ran on (all ones at @p bits <= 0) — the mask
     * fakeQuantSymmetric returns for the same weights, NaN and
     * subnormal scales included.
     */
    void accumulateSteGrad(const float *dw, int bits, float scale,
                           Tensor &grad) const;

    /**
     * The integer weight codes to run on: the installed codes when
     * they match @p bits, else a fresh quantization stored in
     * @p local. Same hit/miss accounting as quantizedWeight.
     */
    const QuantTensor &quantizedCodes(int bits, QuantTensor &local) const;

    /**
     * The tile-packed form of @p wq (an @p m x @p k code matrix) for
     * the packed integer kernels: the installed engine pack when it
     * holds exactly these codes in this layer's layout, else
     * @p s.wpack, repacked only when its cache key no longer matches
     * @p wq.
     */
    const gemm::PackedIntWeights &packedWeights(const QuantTensor &wq,
                                                int m, int k,
                                                PackScratch &s) const;

    bool quantTrace_ = false;
    QuantTensor tracedW_;
    QuantTensor tracedA_;
    std::vector<int64_t> tracedAcc_;

  private:
    const QuantTensor *weightCodes_ = nullptr;
    const gemm::PackedIntWeights *weightPacked_ = nullptr;
    mutable std::atomic<uint64_t> cacheHits_{0};
    mutable std::atomic<uint64_t> cacheMisses_{0};
};

/**
 * Abstract base class of all layers.
 */
class Layer
{
  public:
    virtual ~Layer() = default;

    /**
     * Run the layer forward.
     *
     * @param x Input activations.
     * @param train Training mode (affects BN statistics and caching).
     * @return Output activations.
     */
    virtual Tensor forward(const Tensor &x, bool train) = 0;

    /**
     * Run the layer backward.
     *
     * @param grad_out Gradient of the loss wrt this layer's output.
     * @return Gradient of the loss wrt this layer's input.
     *
     * Parameter gradients are *accumulated* into Parameter::grad.
     */
    virtual Tensor backward(const Tensor &grad_out) = 0;

    /**
     * Emit this layer's inference steps into a plan under
     * construction (serve/execution_plan.hh): read the builder's
     * current value id, append steps computing this layer's output
     * into arena values, and leave the output id on top. This is the
     * layer's only inference path besides forward(): float plans
     * (PlanMode::Float) must be bit-identical to forward(eval), and
     * quantized plans (PlanMode::Quantized) run the integer datapath
     * — Network::forwardQuantized is an unfused quantized plan.
     * Emitted steps must not touch the layer's forward caches: plan
     * replicas run concurrently over the same layers.
     */
    virtual void emitPlanSteps(serve::PlanBuilder &b) = 0;

    /**
     * The layer's construction spec (see LayerSpec): enough to
     * rebuild an identically shaped layer through model_zoo's
     * buildLayerFromSpec. Composites return one spec for the whole
     * block.
     */
    virtual LayerSpec spec() const = 0;

    /**
     * Collect this layer's serializable state under @p prefix (see
     * StateEntry): master weights, BN banks + trained flags,
     * calibration range banks. Default: stateless. Entries reference
     * the live members, so the same pass serves checkpoint save (read
     * through the pointers) and load (write through them). Loading
     * writes parameters in place without bumping Parameter::version —
     * restore state before attaching an RpsEngine, or refresh() after.
     */
    virtual void collectState(const std::string &prefix, StateDict &out);

    /**
     * Post-restore invariant check: returns an empty string when the
     * layer's state is consistent, else a description of the
     * violation. The checkpoint loader runs this after writing
     * restored blobs through collectState's pointers — tensor blobs
     * are shape-checked at restore, but vector/flag blobs take
     * whatever length the artifact carried, and a checksum-valid yet
     * inconsistent artifact must fail the load, not abort (or read
     * out of bounds) at inference. @p required_banks is the bank
     * count the network's candidate set demands (Network::bnBanks):
     * switching to any candidate indexes SBN statistics and
     * calibration banks up to that bound. Default: no vector state,
     * always consistent.
     */
    virtual std::string
    checkState(int required_banks) const
    {
        (void)required_banks;
        return std::string();
    }

    /** Collect pointers to all learnable parameters (default: none). */
    virtual void collectParameters(std::vector<Parameter *> &out);

    /** Collect the weight-quantizing layers inside this layer
     * (default: none; composites recurse). */
    virtual void collectWeightQuantized(std::vector<WeightQuantizedLayer *> &out);

    /** Collect the activation-quantizer layers inside this layer
     * (default: none; composites recurse) — the calibration targets. */
    virtual void collectActQuant(std::vector<ActQuant *> &out);

    /** Zero all accumulated parameter gradients. */
    void zeroGrad();

    /** Propagate the active quantization state (default: store it). */
    virtual void setQuantState(const QuantState &qs) { quant_ = qs; }

    /** The layer's current quantization state. */
    const QuantState &quantState() const { return quant_; }

    /** Short human-readable description for debugging. */
    virtual std::string describe() const = 0;

  protected:
    QuantState quant_;
};

using LayerPtr = std::unique_ptr<Layer>;

} // namespace twoinone

#endif // TWOINONE_NN_LAYER_HH
