/**
 * @file
 * Activation layers: ReLU and the activation fake-quantizer (ActQuant).
 *
 * ActQuant is the in-network hook for RPS activation quantization: it
 * applies unsigned linear fake quantization at QuantState::actBits and
 * passes gradients through the straight-through estimator.
 */

#ifndef TWOINONE_NN_ACTIVATION_HH
#define TWOINONE_NN_ACTIVATION_HH

#include "nn/layer.hh"

namespace twoinone {

/**
 * Elementwise rectified linear unit.
 */
class ReLU : public Layer
{
  public:
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    void emitPlanSteps(serve::PlanBuilder &b) override;
    std::string describe() const override { return "ReLU"; }
    LayerSpec spec() const override { return {"relu", {}}; }

    /** Inference-only rectify into a caller-owned buffer (the
     * allocation-free plan form): no backward mask is built. */
    void inferenceInto(const Tensor &x, Tensor &out) const;

  private:
    Tensor cachedMask_;
};

/**
 * Activation fake quantization with STE backward.
 *
 * Identity when the active QuantState::actBits is zero.
 *
 * Range modes: by default the quantization range is dynamic — the
 * scale comes from the input batch's own maximum, one reduction pass
 * per forward. After a calibration pass (quant/calibration.hh) records
 * per-precision range maxima into this layer's banks (indexed by
 * QuantState::bnIndex, mirroring SBN), static-scale mode replaces the
 * reduction with a table lookup, making the cached forward fully
 * quantization-free. The static path is bit-identical to the dynamic
 * one whenever the recorded maximum equals the observed one; with
 * static mode off (the default), behaviour is exactly the dynamic
 * path.
 */
class ActQuant : public Layer
{
  public:
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    void emitPlanSteps(serve::PlanBuilder &b) override;
    void collectActQuant(std::vector<ActQuant *> &out) override;
    std::string describe() const override { return "ActQuant"; }
    LayerSpec spec() const override { return {"actquant", {}}; }
    /** Calibration range banks + recorded flags + static-scale mode —
     * persisting them is what lets a reloaded model serve on the
     * quantization-free static-scale path without re-calibrating. */
    void collectState(const std::string &prefix, StateDict &out) override;
    std::string checkState(int required_banks) const override;

    /** @name Allocation-free plan kernels
     * inferFloatInto reproduces forward(eval)'s values bit-for-bit
     * (same range selection, same grid pass, no STE mask);
     * inferQuantInto writes the codes of the same grid. */
    /** @{ */
    void inferFloatInto(const Tensor &x, Tensor &out);
    void inferQuantInto(const Tensor &x, QuantTensor &out_q);
    /** inferQuantInto's codes written channel-last with a @p pad
     * border — the operand form of an integer conv consumer. */
    void inferChannelLastInto(const Tensor &x, int pad,
                              ChannelLastCodes &out);
    /** @} */

    /** Emit this quantizer as a producer of channel-last codes (a
     * @p pad border) for a quantized plan whose consumers of its
     * output are all Conv2d — the network input quantizer feeding the
     * stem conv, and any ActQuant feeding convs in a plan that does
     * not fuse it into its SBN+ReLU producer. At full precision it
     * passes its input through. */
    void emitChannelLastPlanStep(serve::PlanBuilder &b, int pad);

    /** @name Calibration interface (driven by Calibrator) */
    /** @{ */
    /** Size the range banks (bank 0 = full precision, unused). */
    void setCalibrationBanks(int banks);
    /** Start recording observed maxima into the active bank; forwards
     * keep quantizing dynamically while recording. */
    void beginCalibration();
    /** Stop recording. */
    void endCalibration();
    /** Enable/disable static-scale mode (needs recorded banks). */
    void setStaticScale(bool on) { staticScale_ = on; }
    bool staticScale() const { return staticScale_; }
    /** Pin the quantization range to [0, max_v] permanently,
     * overriding calibration and dynamic ranges (the network input
     * quantizer's image-range mode: dataset images live in [0, 1] by
     * contract, so no per-batch reduction is needed and results do
     * not depend on batch composition). Pass <= 0 to unpin. */
    void setFixedRange(float max_v) { fixedMax_ = max_v; }
    /** Recorded per-bank maxima (tests/diagnostics). */
    const std::vector<float> &calibrationMax() const { return calibMax_; }
    /** Whether the bank for the active quant state holds a recorded
     * range. */
    bool bankCalibrated(int bank) const;
    /** The static range for the active state, or a negative value
     * when the dynamic path must run (the fused plan producers read
     * it to quantize exactly as inferQuantInto does). */
    float staticMaxOrNegative() const;
    /** @} */

  private:
    Tensor cachedMask_;

    std::vector<float> calibMax_;
    std::vector<char> calibRecorded_;
    bool recording_ = false;
    bool staticScale_ = false;
    float fixedMax_ = -1.0f;
};

} // namespace twoinone

#endif // TWOINONE_NN_ACTIVATION_HH
