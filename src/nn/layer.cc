/**
 * @file
 * Layer base-class shared behaviour.
 */

#include "nn/layer.hh"

#include <limits>

#include "common/thread_pool.hh"

namespace twoinone {

float
WeightQuantizedLayer::quantizedWeight(int bits, Tensor &out) const
{
    // The installed codes only serve their own precision; a direct
    // Network::setPrecision to some other width (e.g. EPGD cycling
    // precisions mid-attack) falls back to re-quantizing the masters,
    // which is always correct, just uncached.
    if (weightCodes_ && weightCodes_->bits == bits) {
        cacheHits_.fetch_add(1, std::memory_order_relaxed);
        weightCodes_->dequantizeInto(out);
        return weightCodes_->scale;
    }
    if (bits > 0)
        cacheMisses_.fetch_add(1, std::memory_order_relaxed);
    QuantResult r = LinearQuantizer::fakeQuantSymmetric(masterWeight(), bits);
    out = std::move(r.values);
    return r.scale;
}

void
WeightQuantizedLayer::accumulateSteGrad(const float *dw, int bits,
                                        float scale, Tensor &grad) const
{
    float *g = grad.data();
    const float *w = masterWeight().data();
    // Full precision clips nothing: an infinite grid bound keeps every
    // mask entry 1, whatever the scale.
    const float qmax =
        bits > 0 ? static_cast<float>(LinearQuantizer::signedQmax(bits))
                 : std::numeric_limits<float>::infinity();
    ThreadPool::global().parallelFor(
        0, static_cast<int64_t>(grad.size()), 1 << 15,
        [=](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i)
                g[i] += dw[i] * steMaskSigned(w[i], scale, qmax);
        });
}

const QuantTensor &
WeightQuantizedLayer::quantizedCodes(int bits, QuantTensor &local) const
{
    if (weightCodes_ && weightCodes_->bits == bits) {
        cacheHits_.fetch_add(1, std::memory_order_relaxed);
        return *weightCodes_;
    }
    cacheMisses_.fetch_add(1, std::memory_order_relaxed);
    local = QuantTensor::quantizeSymmetric(masterWeight(), bits);
    return local;
}

void
WeightQuantizedLayer::packCodes(const QuantTensor &codes,
                                gemm::PackedIntWeights &out) const
{
    // Weight codes are row-major [rows, reduction] for both kernel
    // geometries: Conv2d [K, C*k*k] and Linear [out, in].
    const int m = codes.shape.empty() ? 0 : codes.shape[0];
    const int k = m > 0 ? static_cast<int>(codes.size()) / m : 0;
    gemm::packWeights(codes.codes.data(), m, k, codes.bits, out,
                      packTaps());
}

const gemm::PackedIntWeights &
WeightQuantizedLayer::packedWeights(const QuantTensor &wq, int m, int k,
                                    PackScratch &s) const
{
    const gemm::PackedIntWeights *inst = weightPacked_;
    if (inst && !inst->empty() && inst->bits == wq.bits && inst->m == m &&
        inst->k == k && inst->taps == packTaps() && weightCodes_ == &wq)
        return *inst;
    const uint64_t version = masterWeightVersion();
    if (s.packedFrom != wq.codes.data() || s.packedBits != wq.bits ||
        s.packedVersion != version) {
        packCodes(wq, s.wpack);
        s.packedFrom = wq.codes.data();
        s.packedBits = wq.bits;
        s.packedVersion = version;
    }
    return s.wpack;
}

void
WeightQuantizedLayer::setQuantTrace(bool on)
{
    quantTrace_ = on;
    if (!on) {
        tracedW_ = QuantTensor();
        tracedA_ = QuantTensor();
        tracedAcc_.clear();
        tracedAcc_.shrink_to_fit();
    }
}

void
Layer::collectState(const std::string &prefix, StateDict &out)
{
    (void)prefix;
    (void)out; // stateless layer
}

void
Layer::collectParameters(std::vector<Parameter *> &out)
{
    (void)out; // parameter-free layer
}

void
Layer::collectWeightQuantized(std::vector<WeightQuantizedLayer *> &out)
{
    (void)out; // no quantized weights
}

void
Layer::collectActQuant(std::vector<ActQuant *> &out)
{
    (void)out; // no activation quantizer
}

void
Layer::zeroGrad()
{
    std::vector<Parameter *> params;
    collectParameters(params);
    for (Parameter *p : params)
        p->grad.fill(0.0f);
}

} // namespace twoinone
