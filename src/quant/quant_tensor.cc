/**
 * @file
 * QuantTensor implementation.
 *
 * The quantization passes mirror LinearQuantizer's exactly (same
 * nearbyint grid snap, same clamp, same mask rule) so the code form
 * and the float fake-quant form can never diverge; the grid passes run
 * through the same backend-gated chunking (ops::gatedParallelFor) and
 * are bit-identical for any thread count.
 */

#include "quant/quant_tensor.hh"

#include <algorithm>
#include <cmath>

#include "quant/linear_quantizer.hh"
#include "tensor/ops.hh"

namespace twoinone {

namespace {

// Matches the element-wise grain in tensor/ops.cc and the quantizer.
constexpr int64_t kQuantGrain = 1 << 15;

} // namespace

int
QuantTensor::qmax() const
{
    if (bits <= 0)
        return 0;
    return isSigned ? LinearQuantizer::signedQmax(bits)
                    : LinearQuantizer::unsignedQmax(bits);
}

QuantTensor
QuantTensor::quantizeSymmetric(const Tensor &x, int bits)
{
    QuantTensor q;
    quantizeSymmetricInto(x, bits, q);
    return q;
}

void
QuantTensor::quantizeSymmetricInto(const Tensor &x, int bits,
                                   QuantTensor &q)
{
    TWOINONE_ASSERT(bits >= 1, "quantizeSymmetric bits=", bits);
    q.shape = x.shape();
    q.codes.resize(x.size());
    q.bits = bits;
    q.isSigned = true;

    float max_abs = ops::maxAbs(x);
    if (max_abs == 0.0f) {
        q.scale = 0.0f;
        std::fill(q.codes.begin(), q.codes.end(), 0);
        return;
    }
    int qmax = LinearQuantizer::signedQmax(bits);
    float scale = max_abs / static_cast<float>(qmax);
    q.scale = scale;

    const float *in = x.data();
    int32_t *codes = q.codes.data();
    const float fq = static_cast<float>(qmax);
    ops::gatedParallelFor(
        static_cast<int64_t>(x.size()), kQuantGrain,
        [=](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i)
                codes[i] = static_cast<int32_t>(snapSigned(in[i], scale, fq));
        });
}

QuantTensor
QuantTensor::quantizeUnsigned(const Tensor &x, int bits, float max_v,
                              Tensor *ste_mask_out)
{
    QuantTensor q;
    quantizeUnsignedInto(x, bits, max_v, q, ste_mask_out);
    return q;
}

void
QuantTensor::quantizeUnsignedInto(const Tensor &x, int bits, float max_v,
                                  QuantTensor &q, Tensor *ste_mask_out)
{
    TWOINONE_ASSERT(bits >= 1, "quantizeUnsigned bits=", bits);
    q.shape = x.shape();
    q.codes.resize(x.size());
    q.bits = bits;
    q.isSigned = false;

    const float *in = x.data();
    if (ste_mask_out) {
        ste_mask_out->ensure(x.shape());
        ste_mask_out->fill(1.0f);
    }
    if (max_v <= 0.0f) {
        q.scale = 0.0f;
        std::fill(q.codes.begin(), q.codes.end(), 0);
        if (ste_mask_out) {
            float *mask = ste_mask_out->data();
            ops::gatedParallelFor(
                static_cast<int64_t>(x.size()), kQuantGrain,
                [&](int64_t lo, int64_t hi) {
                    for (int64_t i = lo; i < hi; ++i)
                        mask[i] = (in[i] == 0.0f) ? 1.0f : 0.0f;
                });
        }
        return;
    }

    int qmax = LinearQuantizer::unsignedQmax(bits);
    float scale = max_v / static_cast<float>(qmax);
    q.scale = scale;
    int32_t *codes = q.codes.data();
    float *mask = ste_mask_out ? ste_mask_out->data() : nullptr;
    const float fq = static_cast<float>(qmax);
    ops::gatedParallelFor(
        static_cast<int64_t>(x.size()), kQuantGrain,
        [=](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
                codes[i] =
                    static_cast<int32_t>(snapUnsigned(in[i], scale, fq));
                if (mask)
                    mask[i] = steMaskUnsigned(in[i], scale, fq);
            }
        });
}

Tensor
QuantTensor::dequantize() const
{
    Tensor out;
    dequantizeInto(out);
    return out;
}

void
QuantTensor::dequantizeInto(Tensor &out) const
{
    out.ensure(shape);
    float *dst = out.data();
    const int32_t *src = codes.data();
    const float s = scale;
    ops::gatedParallelFor(
        static_cast<int64_t>(codes.size()), kQuantGrain,
        [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i)
                dst[i] = static_cast<float>(src[i]) * s;
        });
}

namespace {

template <typename T>
void
unstageCodes(const ChannelLastCodes &cl, const T *buf, int32_t *out)
{
    const int c = cl.c, h = cl.h, w = cl.w, wp = cl.paddedW();
    for (int ni = 0; ni < cl.n; ++ni) {
        const T *img = buf + static_cast<size_t>(ni) * cl.imageSize();
        for (int ci = 0; ci < c; ++ci)
            for (int y = 0; y < h; ++y) {
                const T *r = img + (static_cast<size_t>(y + cl.pad) * wp +
                                    cl.pad) *
                                       c +
                             ci;
                int32_t *d =
                    out + ((static_cast<size_t>(ni) * c + ci) * h + y) * w;
                for (int x = 0; x < w; ++x)
                    d[x] = r[static_cast<size_t>(x) * c];
            }
    }
}

} // namespace

void
ChannelLastCodes::reshape(int n_, int c_, int h_, int w_, int pad_,
                          int bits_)
{
    TWOINONE_ASSERT(n_ > 0 && c_ > 0 && h_ > 0 && w_ > 0 && pad_ >= 0 &&
                        bits_ >= 1 && bits_ <= 16,
                    "bad channel-last geometry");
    n = n_;
    c = c_;
    h = h_;
    w = w_;
    pad = pad_;
    bits = bits_;
    size_t total = static_cast<size_t>(n) * imageSize();
    if (narrow())
        u8.resize(total);
    else
        u16.resize(total);
}

void
ChannelLastCodes::toQuantTensor(QuantTensor &out) const
{
    out.shape = {n, c, h, w};
    out.codes.resize(static_cast<size_t>(n) * c * h * w);
    out.scale = scale;
    out.bits = bits;
    out.isSigned = false;
    if (narrow())
        unstageCodes(*this, u8.data(), out.codes.data());
    else
        unstageCodes(*this, u16.data(), out.codes.data());
}

} // namespace twoinone
