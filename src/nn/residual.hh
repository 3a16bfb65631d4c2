/**
 * @file
 * Pre-activation residual block (He et al.), the building block of
 * PreActResNet-18 / WideResNet-32 that the paper evaluates RPS on.
 *
 * Structure (with optional projection shortcut on shape change):
 *
 *   h  = ActQuant(ReLU(SBN1(x)))
 *   sc = hasProjection ? ConvSc(h) : x
 *   y  = Conv2(ActQuant(ReLU(SBN2(Conv1(h))))) + sc
 *
 * The block composes the library's quantization-aware sub-layers, so a
 * precision switch flows into every conv and both SBN banks.
 */

#ifndef TWOINONE_NN_RESIDUAL_HH
#define TWOINONE_NN_RESIDUAL_HH

#include "nn/activation.hh"
#include "nn/batchnorm.hh"
#include "nn/conv2d.hh"

namespace twoinone {

/**
 * Pre-activation basic residual block.
 */
class PreActBlock : public Layer
{
  public:
    /**
     * @param in_channels Input channels.
     * @param out_channels Output channels.
     * @param stride Stride of the first conv (2 = downsample).
     * @param bn_banks SBN bank count (precision candidates + 1).
     * @param rng Initialization stream.
     */
    PreActBlock(int in_channels, int out_channels, int stride, int bn_banks,
                Rng &rng);

    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    /** Composite emitter: SBN+ReLU+quantize producers of the convs'
     * channel-last operands (one fused step each in fused quantized
     * plans, three steps unfused; SBN+ReLU then ActQuant in float
     * plans), conv steps for both branches, and one residual-join
     * step adding the branch outputs in the arena. */
    void emitPlanSteps(serve::PlanBuilder &b) override;
    void collectParameters(std::vector<Parameter *> &out) override;
    void collectWeightQuantized(
        std::vector<WeightQuantizedLayer *> &out) override;
    void collectActQuant(std::vector<ActQuant *> &out) override;
    void setQuantState(const QuantState &qs) override;
    std::string describe() const override;
    LayerSpec spec() const override;
    void collectState(const std::string &prefix, StateDict &out) override;
    std::string checkState(int required_banks) const override;

    bool hasProjection() const { return static_cast<bool>(convSc_); }

  private:
    SwitchableBatchNorm2d bn1_;
    ReLU relu1_;
    ActQuant q1_;
    Conv2d conv1_;
    SwitchableBatchNorm2d bn2_;
    ReLU relu2_;
    ActQuant q2_;
    Conv2d conv2_;
    std::unique_ptr<Conv2d> convSc_;

    int inChannels_;
    int outChannels_;
    int stride_;
};

} // namespace twoinone

#endif // TWOINONE_NN_RESIDUAL_HH
