/**
 * @file
 * Activation layer implementations.
 */

#include "nn/activation.hh"

#include <algorithm>
#include <cmath>

#include "quant/quant_tensor.hh"
#include "serve/execution_plan.hh"
#include "tensor/ops.hh"

namespace twoinone {

Tensor
ReLU::forward(const Tensor &x, bool train)
{
    (void)train;
    cachedMask_ = Tensor(x.shape());
    Tensor out(x.shape());
    for (size_t i = 0; i < x.size(); ++i) {
        bool pos = x[i] > 0.0f;
        cachedMask_[i] = pos ? 1.0f : 0.0f;
        out[i] = pos ? x[i] : 0.0f;
    }
    return out;
}

Tensor
ReLU::backward(const Tensor &grad_out)
{
    TWOINONE_ASSERT(!cachedMask_.empty(), "ReLU backward before forward");
    return ops::mul(grad_out, cachedMask_);
}

void
ReLU::inferenceInto(const Tensor &x, Tensor &out) const
{
    out.ensure(x.shape());
    const float *src = x.data();
    float *dst = out.data();
    for (size_t i = 0; i < x.size(); ++i)
        dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
}

void
ReLU::emitPlanSteps(serve::PlanBuilder &b)
{
    int in = b.top();
    int out = b.newValue();
    b.addStep("relu", [this, in, out](serve::ExecutionPlan &p) {
        serve::Value &vi = p.value(in);
        serve::Value &vo = p.value(out);
        vo.reset();
        inferenceInto(vi.denseView(), vo.dense);
        vo.denseReady = true;
    });
    b.setTop(out);
}

void
ActQuant::setCalibrationBanks(int banks)
{
    TWOINONE_ASSERT(banks >= 1, "need at least one range bank");
    calibMax_.assign(static_cast<size_t>(banks), 0.0f);
    calibRecorded_.assign(static_cast<size_t>(banks), 0);
}

void
ActQuant::beginCalibration()
{
    TWOINONE_ASSERT(!calibMax_.empty(),
                    "setCalibrationBanks before beginCalibration");
    recording_ = true;
}

void
ActQuant::endCalibration()
{
    recording_ = false;
}

bool
ActQuant::bankCalibrated(int bank) const
{
    return bank >= 0 && static_cast<size_t>(bank) < calibRecorded_.size() &&
           calibRecorded_[static_cast<size_t>(bank)];
}

float
ActQuant::staticMaxOrNegative() const
{
    if (fixedMax_ > 0.0f)
        return fixedMax_;
    if (!staticScale_ || recording_ || !bankCalibrated(quant_.bnIndex))
        return -1.0f;
    return calibMax_[static_cast<size_t>(quant_.bnIndex)];
}

Tensor
ActQuant::forward(const Tensor &x, bool train)
{
    (void)train;
    if (quant_.actBits > 0 && recording_) {
        // Observe the pre-quantization range of the active bank; the
        // forward itself stays dynamic while recording — the observed
        // max IS the dynamic range, so one reduction serves both.
        size_t bank = static_cast<size_t>(quant_.bnIndex);
        TWOINONE_ASSERT(bank < calibMax_.size(),
                        "calibration bank out of range");
        float max_v = ops::maxVal(x);
        if (!calibRecorded_[bank] || max_v > calibMax_[bank])
            calibMax_[bank] = max_v;
        calibRecorded_[bank] = 1;
        QuantResult r = LinearQuantizer::fakeQuantUnsignedStatic(
            x, quant_.actBits, max_v);
        cachedMask_ = r.steMask;
        return r.values;
    }

    float static_max = staticMaxOrNegative();
    QuantResult r =
        (quant_.actBits > 0 && static_max >= 0.0f)
            ? LinearQuantizer::fakeQuantUnsignedStatic(x, quant_.actBits,
                                                       static_max)
            : LinearQuantizer::fakeQuantUnsigned(x, quant_.actBits);
    cachedMask_ = r.steMask;
    return r.values;
}

void
ActQuant::inferQuantInto(const Tensor &x, QuantTensor &out_q)
{
    float static_max = staticMaxOrNegative();
    float max_v = static_max >= 0.0f ? static_max : ops::maxVal(x);
    QuantTensor::quantizeUnsignedInto(x, quant_.actBits, max_v, out_q);
}

void
ActQuant::inferChannelLastInto(const Tensor &x, int pad,
                               ChannelLastCodes &out)
{
    float static_max = staticMaxOrNegative();
    float max_v = static_max >= 0.0f ? static_max : ops::maxVal(x);
    out.quantize(x, quant_.actBits, max_v, pad,
                 [](int) { return [](float v) { return v; }; });
}

void
ActQuant::inferFloatInto(const Tensor &x, Tensor &out)
{
    int bits = quant_.actBits;
    float max_v;
    if (bits > 0 && recording_) {
        // Mirror forward()'s recording branch: observe the dynamic
        // range of the active bank, then quantize against it.
        size_t bank = static_cast<size_t>(quant_.bnIndex);
        TWOINONE_ASSERT(bank < calibMax_.size(),
                        "calibration bank out of range");
        max_v = ops::maxVal(x);
        if (!calibRecorded_[bank] || max_v > calibMax_[bank])
            calibMax_[bank] = max_v;
        calibRecorded_[bank] = 1;
    } else {
        float static_max = staticMaxOrNegative();
        max_v = (bits > 0 && static_max < 0.0f) ? ops::maxVal(x)
                                                : static_max;
    }
    // The shared static grid pass (no STE mask — no inference
    // consumer reads one), bit-identical to forward(eval)'s values.
    LinearQuantizer::fakeQuantUnsignedStaticValuesInto(x, bits, max_v,
                                                       out);
}

void
ActQuant::emitPlanSteps(serve::PlanBuilder &b)
{
    int in = b.top();
    int out = b.newValue();
    if (b.mode() == serve::PlanMode::Quantized) {
        b.addStep("actquant[codes]",
                  [this, in, out](serve::ExecutionPlan &p) {
                      serve::Value &vi = p.value(in);
                      serve::Value &vo = p.value(out);
                      vo.reset();
                      if (quant_.actBits <= 0) {
                          vo.alias = &vi.denseView();
                          return;
                      }
                      inferQuantInto(vi.denseView(), vo.q);
                      vo.hasCodes = true;
                  });
    } else {
        b.addStep("actquant", [this, in, out](serve::ExecutionPlan &p) {
            serve::Value &vi = p.value(in);
            serve::Value &vo = p.value(out);
            vo.reset();
            if (quant_.actBits <= 0) {
                vo.alias = &vi.denseView();
                return;
            }
            inferFloatInto(vi.denseView(), vo.dense);
            vo.denseReady = true;
        });
    }
    b.setTop(out);
}

void
ActQuant::emitChannelLastPlanStep(serve::PlanBuilder &b, int pad)
{
    int in = b.top();
    int out = b.newValue();
    b.addStep("actquant[channel-last]",
              [this, in, out, pad](serve::ExecutionPlan &p) {
                  serve::Value &vi = p.value(in);
                  serve::Value &vo = p.value(out);
                  vo.reset();
                  if (quant_.actBits <= 0) {
                      vo.alias = &vi.denseView();
                      return;
                  }
                  inferChannelLastInto(vi.denseView(), pad, vo.cl);
                  vo.hasChannelLast = true;
              });
    b.setTop(out);
}

void
ActQuant::collectActQuant(std::vector<ActQuant *> &out)
{
    out.push_back(this);
}

void
ActQuant::collectState(const std::string &prefix, StateDict &out)
{
    out.push_back({prefix + ".calib_max", nullptr, &calibMax_, nullptr,
                   nullptr});
    out.push_back({prefix + ".calib_recorded", nullptr, nullptr,
                   &calibRecorded_, nullptr});
    out.push_back({prefix + ".static_scale", nullptr, nullptr, nullptr,
                   &staticScale_});
}

std::string
ActQuant::checkState(int required_banks) const
{
    // staticMaxOrNegative reads calibMax_[bank] behind a bound check
    // on calibRecorded_ — the two banks must stay the same length.
    if (calibMax_.size() != calibRecorded_.size())
        return "ActQuant calibration banks inconsistent (" +
               std::to_string(calibMax_.size()) + " maxima vs " +
               std::to_string(calibRecorded_.size()) + " flags)";
    // Calibration is all-or-nothing per quantizer: empty banks mean
    // never calibrated (dynamic ranges), but sized banks must cover
    // every bank the candidate set can select — a short vector would
    // silently degrade some candidates to dynamic scale, breaking the
    // bit-for-bit reproduction a checkpoint promises.
    if (!calibMax_.empty() &&
        calibMax_.size() < static_cast<size_t>(required_banks))
        return "ActQuant calibration banks cover " +
               std::to_string(calibMax_.size()) + " of " +
               std::to_string(required_banks) + " required banks";
    return std::string();
}

Tensor
ActQuant::backward(const Tensor &grad_out)
{
    TWOINONE_ASSERT(!cachedMask_.empty(), "ActQuant backward before forward");
    return ops::mul(grad_out, cachedMask_);
}

} // namespace twoinone
