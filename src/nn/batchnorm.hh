/**
 * @file
 * Switchable batch normalization (SBN).
 *
 * The paper equips RPS-trained models with switchable BN [25, 35]: one
 * independent bank of (gamma, beta, running mean, running var) per
 * candidate precision, so each precision sees statistics that match
 * its own quantization noise. A plain BatchNorm2d is the special case
 * of a single bank. The active bank is selected through
 * QuantState::bnIndex.
 *
 * At inference the BN multiply/add folds into the linear quantizer's
 * scale and the model bias (paper Sec. 2.4), so SBN adds no module to
 * the accelerator; here we keep it explicit for training fidelity.
 */

#ifndef TWOINONE_NN_BATCHNORM_HH
#define TWOINONE_NN_BATCHNORM_HH

#include "nn/layer.hh"

namespace twoinone {

class ActQuant;

/**
 * SwitchableBatchNorm2d over NCHW activations.
 */
class SwitchableBatchNorm2d : public Layer
{
  public:
    /**
     * @param channels Channel count C.
     * @param num_banks Number of independent statistics banks
     *                  (1 = plain BN).
     * @param momentum Running-statistics update rate.
     * @param eps Variance floor.
     */
    SwitchableBatchNorm2d(int channels, int num_banks,
                          float momentum = 0.1f, float eps = 1e-5f);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    /** Inference-only normalize: the running-stats affine transform
     * as one fused per-channel multiply/add, with none of the
     * backward caches (input copy, xhat) the training forward keeps.
     * This is the form the accelerator executes — the BN multiply
     * folds into the quantizer scale (paper Sec. 2.4). */
    void emitPlanSteps(serve::PlanBuilder &b) override;
    void collectParameters(std::vector<Parameter *> &out) override;
    std::string describe() const override;
    LayerSpec spec() const override;
    /** Banks in full: gamma/beta/running stats per bank plus the
     * trained flags — the flags drive the untrained-bank aliasing, so
     * a reloaded model reproduces inference bit-exactly. */
    void collectState(const std::string &prefix, StateDict &out) override;
    std::string checkState(int required_banks) const override;

    /**
     * The running-stats affine transform into a caller-owned buffer
     * (the allocation-free plan form).
     * With @p fuse_relu the rectify runs in the same pass — the
     * per-element value is computed identically and then clamped, so
     * the fused output is bit-identical to SBN-then-ReLU.
     */
    void inferenceInto(const Tensor &x, Tensor &out, bool fuse_relu);

    /** Emit one fused SBN+ReLU plan step (the compile peephole for a
     * BN immediately followed by a ReLU). */
    void emitFusedBnRelu(serve::PlanBuilder &b);

    /**
     * The fused SBN+ReLU+quantize producer: per element the affine
     * transform and rectify of inferenceInto(fuse_relu) and the grid
     * snap of QuantTensor::quantizeUnsignedInto (snapUnsigned) on the
     * unsigned @p bits grid of range @p max_v (scale 0 and all-zero
     * codes when max_v <= 0, as ActQuant) — bit-identical to
     * SBN -> ReLU -> ActQuant codes, written channel-last with a
     * @p pad border into @p out. Reads layer state only, so plan
     * replicas may run it concurrently.
     */
    void quantizeChannelLastInto(const Tensor &x, int bits, float max_v,
                                 int pad, ChannelLastCodes &out) const;

    /**
     * Emit one step fusing this SBN, the following ReLU and @p q into
     * a producer of channel-last conv operand codes (a @p pad border:
     * the widest padding among the consumer convs). Only for
     * quantized plans whose consumers of @p q's output are all
     * Conv2d. At full precision the step writes the rectified dense
     * values (@p q passes through); with @p q on a dynamic range it
     * reduces the rectified values first, as ActQuant does.
     */
    void emitFusedQuantProducer(serve::PlanBuilder &b, ActQuant &q,
                                int pad);

    int numBanks() const { return static_cast<int>(banks_.size()); }
    int channels() const { return channels_; }

    /** Running mean of a bank (test access). */
    const Tensor &runningMean(int bank) const;
    /** Running variance of a bank (test access). */
    const Tensor &runningVar(int bank) const;

  private:
    /** One per-precision statistics bank. */
    struct Bank
    {
        Parameter gamma;
        Parameter beta;
        Tensor runningMean;
        Tensor runningVar;

        explicit Bank(int channels)
            : gamma(Tensor::ones({channels})),
              beta(Tensor::zeros({channels})),
              runningMean(Tensor::zeros({channels})),
              runningVar(Tensor::ones({channels}))
        {
        }
    };

    int channels_;
    float momentum_;
    float eps_;
    std::vector<Bank> banks_;
    /** Whether a bank has ever been trained. Untrained banks alias
     * bank 0 (post-training quantization reuses the full-precision
     * statistics, the paper's Fig. 1 (a)-(c) protocol); banks become
     * independent once RPS training touches them. */
    std::vector<char> bankTrained_;

    // Forward caches.
    Tensor cachedInput_;
    Tensor cachedXhat_;
    std::vector<float> cachedInvStd_;
    std::vector<float> cachedMean_;
    bool cachedTrain_ = false;
    int cachedBank_ = 0;

    Bank &activeBank();
    int activeBankIndex() const;
    /** The bank inference reads: the active one once trained, else
     * bank 0 (the aliasing rule above). */
    const Bank &inferenceBank() const;

    /** @name The per-element inference expression
     * Shared by every inference kernel, so the fused forms compute
     * exactly the value the unfused layers do. */
    /** @{ */
    static float
    affine(float x, float mean, float inv_std, float g, float b)
    {
        float xhat = (x - mean) * inv_std;
        return g * xhat + b;
    }
    static float relu(float v) { return v > 0.0f ? v : 0.0f; }
    /** @} */
};

} // namespace twoinone

#endif // TWOINONE_NN_BATCHNORM_HH
