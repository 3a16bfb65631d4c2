/**
 * @file
 * 2-D convolution layer with im2col forward and explicit backward.
 *
 * Master weights stay full precision; when QuantState::weightBits > 0
 * the forward pass runs on fake-quantized weights and the backward pass
 * routes the weight gradient through the straight-through estimator
 * back onto the master weights (standard quantization-aware training,
 * as used by the paper's linear quantizer [34]).
 */

#ifndef TWOINONE_NN_CONV2D_HH
#define TWOINONE_NN_CONV2D_HH

#include "nn/layer.hh"

namespace twoinone {

/**
 * Conv2d: NCHW convolution, square kernel, zero padding, no dilation.
 */
class Conv2d : public Layer, public WeightQuantizedLayer
{
  public:
    /**
     * @param in_channels Input channel count C.
     * @param out_channels Output channel count K.
     * @param kernel Kernel side length (R = S = kernel).
     * @param stride Stride in both spatial dims.
     * @param padding Zero padding in both spatial dims.
     * @param bias Whether to learn a per-output-channel bias.
     * @param rng Weight initialization stream (He normal).
     */
    Conv2d(int in_channels, int out_channels, int kernel, int stride,
           int padding, bool bias, Rng &rng);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

    /** Convs pack tap-major: kernel * kernel taps. */
    int packTaps() const override { return kernel_ * kernel_; }

    void emitPlanSteps(serve::PlanBuilder &b) override;

    /** @name Allocation-free plan kernels */
    /** @{ */
    /**
     * Float inference forward into caller-owned buffers: weights
     * dequantized from the installed codes / freshly fake-quantized
     * into @p wq_scratch (the masters directly at full precision),
     * im2col into @p cols, fused GEMM+bias into @p out.
     */
    void inferFloatInto(const Tensor &x, Tensor &wq_scratch, Tensor &cols,
                        Tensor &out);
    /**
     * Integer inference forward over channel-last input codes (border
     * at least this conv's padding): tap-copy im2col at the narrowest
     * operand width (uint8 when both sides fit 8 bits, uint16
     * otherwise), exact accumulation through the tile-packed kernels
     * (gemm::igemmPackedTransB) and dequantization with the combined
     * scale, bias fused, into @p out, staging through @p s. The
     * weights are the engine-installed tap-major pack when it holds
     * @p wq, else a pack built in @p ps and kept across calls while
     * the weights stand still.
     */
    void inferQuantInto(const ChannelLastCodes &x, const QuantTensor &wq,
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

    /** Weight tensor shape [K, C, R, S]. */
    Parameter &weight() { return weight_; }
    /** Bias tensor shape [K] (empty when bias disabled). */
    Parameter &bias() { return bias_; }

    int inChannels() const { return inChannels_; }
    int outChannels() const { return outChannels_; }
    int kernel() const { return kernel_; }
    int stride() const { return stride_; }
    int padding() const { return padding_; }

    /** Output spatial size for a given input size. */
    int outSize(int in_size) const;

  private:
    int inChannels_;
    int outChannels_;
    int kernel_;
    int stride_;
    int padding_;
    bool hasBias_;

    Parameter weight_;
    Parameter bias_;

    // Forward caches for backward. cachedCols_/dcolsBuf_/dwBuf_ are
    // reused across iterations (Tensor::ensure) instead of being
    // reallocated every step. The forward's weight grid (wqBits_,
    // wqScale_) and the masters determine the backward's STE mask.
    Tensor cachedCols_;    // im2col matrix [N*OH*OW, C*R*S]
    Tensor wq_;            // quantized weights of the last fwd/bwd
    int wqBits_ = 0;
    float wqScale_ = 0.0f;
    Tensor dcolsBuf_;      // input-gradient columns [N*OH*OW, C*R*S]
    Tensor dwBuf_;         // weight-gradient GEMM output [K, C*R*S]
    std::vector<int> cachedInShape_;
    int cachedOh_ = 0;
    int cachedOw_ = 0;

    /** The fused per-image GEMM+bias loop shared by forward() and
     * inferFloatInto(): out[K, OH*OW] slabs from W[K, patch] x
     * cols[OH*OW, patch]^T. @p out must already have its shape. */
    void runFloatGemm(const float *w2d, int n, int oh, int ow,
                      const Tensor &cols, Tensor &out) const;

    /**
     * im2col into the reused cols buffer: [N,C,H,W] ->
     * [N*OH*OW, C*R*S], parallel over the batch dimension.
     */
    void im2colInto(const Tensor &x, int oh, int ow, Tensor &cols) const;

    /**
     * col2im: scatter-accumulate cols [N*OH*OW, C*R*S] into the
     * zero-initialized x [N,C,H,W], parallel over the batch dimension
     * (each image's slab is disjoint).
     */
    void col2imInto(const Tensor &cols, int oh, int ow, Tensor &x) const;
};

} // namespace twoinone

#endif // TWOINONE_NN_CONV2D_HH
