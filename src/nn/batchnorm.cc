/**
 * @file
 * SwitchableBatchNorm2d implementation.
 */

#include "nn/batchnorm.hh"

#include <cmath>
#include <sstream>

#include "nn/activation.hh"
#include "serve/execution_plan.hh"
#include "tensor/ops.hh"

namespace twoinone {

SwitchableBatchNorm2d::SwitchableBatchNorm2d(int channels, int num_banks,
                                             float momentum, float eps)
    : channels_(channels), momentum_(momentum), eps_(eps)
{
    TWOINONE_ASSERT(channels > 0 && num_banks > 0, "bad SBN geometry");
    banks_.reserve(static_cast<size_t>(num_banks));
    for (int i = 0; i < num_banks; ++i)
        banks_.emplace_back(channels);
    bankTrained_.assign(static_cast<size_t>(num_banks), 0);
}

int
SwitchableBatchNorm2d::activeBankIndex() const
{
    int idx = quant_.bnIndex;
    TWOINONE_ASSERT(idx >= 0 && idx < numBanks(), "SBN bank ", idx,
                    " out of ", numBanks());
    return idx;
}

SwitchableBatchNorm2d::Bank &
SwitchableBatchNorm2d::activeBank()
{
    return banks_[static_cast<size_t>(activeBankIndex())];
}

Tensor
SwitchableBatchNorm2d::forward(const Tensor &x, bool train)
{
    TWOINONE_ASSERT(x.ndim() == 4 && x.dim(1) == channels_,
                    "SBN input shape mismatch");
    // Post-training-quantization semantics: a bank no training pass
    // has ever touched aliases the full-precision bank 0. Training a
    // bank claims it.
    int requested = activeBankIndex();
    int use = (train || bankTrained_[static_cast<size_t>(requested)])
                  ? requested
                  : 0;
    if (train)
        bankTrained_[static_cast<size_t>(use)] = 1;
    Bank &bank = banks_[static_cast<size_t>(use)];
    int n = x.dim(0), c = channels_, h = x.dim(2), w = x.dim(3);
    size_t m = static_cast<size_t>(n) * h * w;
    TWOINONE_ASSERT(m > 0, "SBN over empty spatial extent");

    cachedInput_ = x;
    cachedTrain_ = train;
    cachedBank_ = use;
    cachedMean_.assign(static_cast<size_t>(c), 0.0f);
    cachedInvStd_.assign(static_cast<size_t>(c), 0.0f);

    Tensor out(x.shape());
    cachedXhat_ = Tensor(x.shape());

    for (int ci = 0; ci < c; ++ci) {
        float mean, var;
        if (train) {
            double s = 0.0;
            for (int ni = 0; ni < n; ++ni)
                for (int y = 0; y < h; ++y)
                    for (int xx = 0; xx < w; ++xx)
                        s += x.at4(ni, ci, y, xx);
            mean = static_cast<float>(s / static_cast<double>(m));
            double v = 0.0;
            for (int ni = 0; ni < n; ++ni) {
                for (int y = 0; y < h; ++y) {
                    for (int xx = 0; xx < w; ++xx) {
                        double d = x.at4(ni, ci, y, xx) - mean;
                        v += d * d;
                    }
                }
            }
            var = static_cast<float>(v / static_cast<double>(m));
            // Update the active bank's running statistics only.
            size_t cs = static_cast<size_t>(ci);
            bank.runningMean[cs] =
                (1.0f - momentum_) * bank.runningMean[cs] + momentum_ * mean;
            bank.runningVar[cs] =
                (1.0f - momentum_) * bank.runningVar[cs] + momentum_ * var;
        } else {
            mean = bank.runningMean[static_cast<size_t>(ci)];
            var = bank.runningVar[static_cast<size_t>(ci)];
        }

        float inv_std = 1.0f / std::sqrt(var + eps_);
        cachedMean_[static_cast<size_t>(ci)] = mean;
        cachedInvStd_[static_cast<size_t>(ci)] = inv_std;
        float g = bank.gamma.value[static_cast<size_t>(ci)];
        float b = bank.beta.value[static_cast<size_t>(ci)];
        for (int ni = 0; ni < n; ++ni) {
            for (int y = 0; y < h; ++y) {
                for (int xx = 0; xx < w; ++xx) {
                    float xhat = (x.at4(ni, ci, y, xx) - mean) * inv_std;
                    cachedXhat_.at4(ni, ci, y, xx) = xhat;
                    out.at4(ni, ci, y, xx) = g * xhat + b;
                }
            }
        }
    }
    return out;
}

const SwitchableBatchNorm2d::Bank &
SwitchableBatchNorm2d::inferenceBank() const
{
    // Same bank-aliasing rule as the eval forward: untrained banks
    // fall back to the full-precision statistics.
    int requested = activeBankIndex();
    int use = bankTrained_[static_cast<size_t>(requested)] ? requested : 0;
    return banks_[static_cast<size_t>(use)];
}

void
SwitchableBatchNorm2d::inferenceInto(const Tensor &x, Tensor &out,
                                     bool fuse_relu)
{
    TWOINONE_ASSERT(x.ndim() == 4 && x.dim(1) == channels_,
                    "SBN input shape mismatch");
    const Bank &bank = inferenceBank();

    int n = x.dim(0), c = channels_, h = x.dim(2), w = x.dim(3);
    size_t plane = static_cast<size_t>(h) * w;
    out.ensure(x.shape());
    const float *in = x.data();
    float *o = out.data();
    for (int ni = 0; ni < n; ++ni) {
        for (int ci = 0; ci < c; ++ci) {
            size_t cs = static_cast<size_t>(ci);
            // Exactly the eval forward's arithmetic (bit-identical
            // rounding), minus the xhat/input caches. The fused
            // rectify clamps the identical per-element value.
            float mean = bank.runningMean[cs];
            float inv_std = 1.0f /
                            std::sqrt(bank.runningVar[cs] + eps_);
            float g = bank.gamma.value[cs];
            float b = bank.beta.value[cs];
            const float *src =
                in + (static_cast<size_t>(ni) * c + cs) * plane;
            float *dst = o + (static_cast<size_t>(ni) * c + cs) * plane;
            if (fuse_relu) {
                for (size_t t = 0; t < plane; ++t)
                    dst[t] = relu(affine(src[t], mean, inv_std, g, b));
            } else {
                for (size_t t = 0; t < plane; ++t)
                    dst[t] = affine(src[t], mean, inv_std, g, b);
            }
        }
    }
}

void
SwitchableBatchNorm2d::quantizeChannelLastInto(const Tensor &x, int bits,
                                               float max_v, int pad,
                                               ChannelLastCodes &out) const
{
    TWOINONE_ASSERT(x.ndim() == 4 && x.dim(1) == channels_,
                    "SBN input shape mismatch");
    const Bank &bank = inferenceBank();
    const float eps = eps_;
    out.quantize(x, bits, max_v, pad, [&](int ci) {
        size_t cs = static_cast<size_t>(ci);
        float mean = bank.runningMean[cs];
        float inv_std = 1.0f / std::sqrt(bank.runningVar[cs] + eps);
        float g = bank.gamma.value[cs];
        float b = bank.beta.value[cs];
        return [=](float v) { return relu(affine(v, mean, inv_std, g, b)); };
    });
}

void
SwitchableBatchNorm2d::emitPlanSteps(serve::PlanBuilder &b)
{
    int in = b.top();
    int out = b.newValue();
    b.addStep("sbn", [this, in, out](serve::ExecutionPlan &p) {
        serve::Value &vi = p.value(in);
        serve::Value &vo = p.value(out);
        vo.reset();
        inferenceInto(vi.denseView(), vo.dense, /*fuse_relu=*/false);
        vo.denseReady = true;
    });
    b.setTop(out);
}

void
SwitchableBatchNorm2d::emitFusedBnRelu(serve::PlanBuilder &b)
{
    int in = b.top();
    int out = b.newValue();
    b.addStep("sbn+relu", [this, in, out](serve::ExecutionPlan &p) {
        serve::Value &vi = p.value(in);
        serve::Value &vo = p.value(out);
        vo.reset();
        inferenceInto(vi.denseView(), vo.dense, /*fuse_relu=*/true);
        vo.denseReady = true;
    });
    b.setTop(out);
}

void
SwitchableBatchNorm2d::emitFusedQuantProducer(serve::PlanBuilder &b,
                                              ActQuant &q, int pad)
{
    int in = b.top();
    int out = b.newValue();
    b.addStep("sbn+relu+actquant[channel-last]",
              [this, &q, in, out, pad](serve::ExecutionPlan &p) {
                  serve::Value &vi = p.value(in);
                  serve::Value &vo = p.value(out);
                  vo.reset();
                  const Tensor &x = vi.denseView();
                  const int bits = q.quantState().actBits;
                  if (bits <= 0) {
                      // Full precision: ActQuant passes the rectified
                      // values through to the float convs.
                      inferenceInto(x, vo.dense, /*fuse_relu=*/true);
                      vo.denseReady = true;
                      return;
                  }
                  float max_v = q.staticMaxOrNegative();
                  if (max_v < 0.0f) {
                      // Dynamic range: ActQuant's own reduction over
                      // the rectified values, staged in vo.dense
                      // (not exposed as the value's float view).
                      inferenceInto(x, vo.dense, /*fuse_relu=*/true);
                      max_v = ops::maxVal(vo.dense);
                  }
                  quantizeChannelLastInto(x, bits, max_v, pad, vo.cl);
                  vo.hasChannelLast = true;
              });
    b.setTop(out);
}

Tensor
SwitchableBatchNorm2d::backward(const Tensor &grad_out)
{
    TWOINONE_ASSERT(!cachedInput_.empty(), "SBN backward before forward");
    TWOINONE_ASSERT(grad_out.sameShape(cachedInput_),
                    "SBN grad shape mismatch");
    Bank &bank = banks_[static_cast<size_t>(cachedBank_)];
    int n = grad_out.dim(0), c = channels_, h = grad_out.dim(2),
        w = grad_out.dim(3);
    double m = static_cast<double>(n) * h * w;

    Tensor grad_in(grad_out.shape());
    for (int ci = 0; ci < c; ++ci) {
        size_t cs = static_cast<size_t>(ci);
        float g = bank.gamma.value[cs];
        float inv_std = cachedInvStd_[cs];

        double dgamma = 0.0, dbeta = 0.0;
        for (int ni = 0; ni < n; ++ni) {
            for (int y = 0; y < h; ++y) {
                for (int xx = 0; xx < w; ++xx) {
                    float go = grad_out.at4(ni, ci, y, xx);
                    dgamma += go * cachedXhat_.at4(ni, ci, y, xx);
                    dbeta += go;
                }
            }
        }
        bank.gamma.grad[cs] += static_cast<float>(dgamma);
        bank.beta.grad[cs] += static_cast<float>(dbeta);

        if (!cachedTrain_) {
            // Eval mode: statistics are constants.
            for (int ni = 0; ni < n; ++ni)
                for (int y = 0; y < h; ++y)
                    for (int xx = 0; xx < w; ++xx)
                        grad_in.at4(ni, ci, y, xx) =
                            grad_out.at4(ni, ci, y, xx) * g * inv_std;
            continue;
        }

        // Training mode: batch statistics depend on the input.
        for (int ni = 0; ni < n; ++ni) {
            for (int y = 0; y < h; ++y) {
                for (int xx = 0; xx < w; ++xx) {
                    float go = grad_out.at4(ni, ci, y, xx);
                    float xhat = cachedXhat_.at4(ni, ci, y, xx);
                    double term = m * go - dbeta - xhat * dgamma;
                    grad_in.at4(ni, ci, y, xx) = static_cast<float>(
                        (g * inv_std / m) * term);
                }
            }
        }
    }
    return grad_in;
}

void
SwitchableBatchNorm2d::collectParameters(std::vector<Parameter *> &out)
{
    for (Bank &b : banks_) {
        out.push_back(&b.gamma);
        out.push_back(&b.beta);
    }
}

const Tensor &
SwitchableBatchNorm2d::runningMean(int bank) const
{
    TWOINONE_ASSERT(bank >= 0 && bank < numBanks(), "bad SBN bank");
    return banks_[static_cast<size_t>(bank)].runningMean;
}

const Tensor &
SwitchableBatchNorm2d::runningVar(int bank) const
{
    TWOINONE_ASSERT(bank >= 0 && bank < numBanks(), "bad SBN bank");
    return banks_[static_cast<size_t>(bank)].runningVar;
}

std::string
SwitchableBatchNorm2d::describe() const
{
    std::ostringstream oss;
    oss << "SBN(" << channels_ << ", banks=" << numBanks() << ")";
    return oss.str();
}

LayerSpec
SwitchableBatchNorm2d::spec() const
{
    // momentum/eps stay at their construction defaults throughout the
    // model zoo and only shape training, not a restored inference
    // state, so the spec carries the geometry only.
    return {"sbn", {channels_, numBanks()}};
}

void
SwitchableBatchNorm2d::collectState(const std::string &prefix,
                                    StateDict &out)
{
    for (int i = 0; i < numBanks(); ++i) {
        Bank &b = banks_[static_cast<size_t>(i)];
        std::string bank = prefix + ".bank" + std::to_string(i);
        out.push_back({bank + ".gamma", &b.gamma.value, nullptr, nullptr,
                       nullptr});
        out.push_back({bank + ".beta", &b.beta.value, nullptr, nullptr,
                       nullptr});
        out.push_back({bank + ".running_mean", &b.runningMean, nullptr,
                       nullptr, nullptr});
        out.push_back({bank + ".running_var", &b.runningVar, nullptr,
                       nullptr, nullptr});
    }
    out.push_back({prefix + ".trained", nullptr, nullptr, &bankTrained_,
                   nullptr});
}

std::string
SwitchableBatchNorm2d::checkState(int required_banks) const
{
    // forward/inferenceInto index bankTrained_ by the active bank —
    // a flag vector of any other length reads out of bounds.
    if (bankTrained_.size() != banks_.size())
        return "SBN trained flags inconsistent (" +
               std::to_string(bankTrained_.size()) + " flags vs " +
               std::to_string(banks_.size()) + " banks)";
    // Switching to any candidate selects bank 1 + indexOf(bits):
    // fewer banks than the candidate set demands would abort inside
    // activeBankIndex at inference time — reject at load instead.
    if (numBanks() < required_banks)
        return "SBN holds " + std::to_string(numBanks()) + " banks, " +
               "the candidate set requires " +
               std::to_string(required_banks);
    return std::string();
}

} // namespace twoinone
