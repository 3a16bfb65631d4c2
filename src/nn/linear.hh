/**
 * @file
 * Fully connected layer with quantization-aware forward/backward.
 */

#ifndef TWOINONE_NN_LINEAR_HH
#define TWOINONE_NN_LINEAR_HH

#include "nn/layer.hh"

namespace twoinone {

/**
 * Linear: y = x W^T + b over rank-2 inputs [N, in].
 */
class Linear : public Layer, public WeightQuantizedLayer
{
  public:
    /**
     * @param in_features Input feature count.
     * @param out_features Output feature count.
     * @param bias Whether to learn a bias.
     * @param rng Initialization stream (He normal).
     */
    Linear(int in_features, int out_features, bool bias, Rng &rng);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

    /** Quantized plans run inferQuantInto when the input carries
     * codes and weight quantization is on, else inferFloatInto. */
    void emitPlanSteps(serve::PlanBuilder &b) override;

    /** @name Allocation-free plan kernels */
    /** @{ */
    /** Float inference forward into a caller-owned buffer (weights
     * dequantized from the installed codes / freshly fake-quantized
     * into @p wq_scratch; the masters directly at full precision). */
    void inferFloatInto(const Tensor &x, Tensor &wq_scratch, Tensor &out);
    /** Wide integer inference forward over unsigned activation codes
     * of up to 30 bits (the classifier head sits behind
     * GlobalAvgPool, whose integer partial sums outgrow 16 bits):
     * the packed wide-split igemm (gemm::igemmPackedWideTransA) +
     * fused dequant/bias into @p out, accumulating through @p s
     * (weights packed as in Conv2d::inferQuantInto, locally into
     * @p ps). */
    void inferQuantInto(const QuantTensor &xq, const QuantTensor &wq,
                        PackScratch &ps, IntGemmScratch &s, Tensor &out);
    /** @} */

    void collectParameters(std::vector<Parameter *> &out) override;
    void collectWeightQuantized(
        std::vector<WeightQuantizedLayer *> &out) override;
    std::string describe() const override;
    LayerSpec spec() const override;
    void collectState(const std::string &prefix, StateDict &out) override;

    const Tensor &masterWeight() const override { return weight_.value; }
    uint64_t masterWeightVersion() const override
    {
        return weight_.version;
    }

    Parameter &weight() { return weight_; }
    Parameter &bias() { return bias_; }

    int inFeatures() const { return inFeatures_; }
    int outFeatures() const { return outFeatures_; }

  private:
    int inFeatures_;
    int outFeatures_;
    bool hasBias_;
    Parameter weight_; // [out, in]
    Parameter bias_;   // [out]

    Tensor cachedInput_;
    // Quantized weights of the last forward/backward, and the
    // forward's grid for the backward's STE mask (see Conv2d).
    Tensor wq_;
    int wqBits_ = 0;
    float wqScale_ = 0.0f;

    /** The batch-parallel bias add shared by forward() and
     * inferFloatInto(). */
    void addBiasRows(Tensor &out) const;
};

} // namespace twoinone

#endif // TWOINONE_NN_LINEAR_HH
