/**
 * @file
 * Implementation of the linear quantizer.
 *
 * The max reductions run through ops::maxAbs / ops::maxVal (chunked
 * parallel, bit-identical to serial); the grid pass writes disjoint
 * elements on parallelFor. TWOINONE_BACKEND=naive keeps both passes
 * serial, mirroring the gemm reference path.
 *
 * The grid passes are the reference the QuantTensor snap helpers
 * (snapSigned/snapUnsigned, steMask*) are tested against, so they
 * keep their own expressions; only their form is tuned. Each clamp is
 * a select over by-value locals, so the loops vectorize. A NaN input
 * keeps value NaN and STE mask 1 (every comparison with it is false),
 * and -0.0 stays -0.0.
 */

#include "quant/linear_quantizer.hh"

#include <algorithm>
#include <cmath>

#include "tensor/ops.hh"

namespace twoinone {

namespace {

// Minimum elements per chunk for the parallel grid pass; matches the
// element-wise grain in tensor/ops.cc.
constexpr int64_t kQuantGrain = 1 << 15;

/** The backend-gated grid pass: parallel above the grain cutoff, the
 * naive reference backend keeps it serial. */
void
quantPass(int64_t n, const std::function<void(int64_t, int64_t)> &fn)
{
    ops::gatedParallelFor(n, kQuantGrain, fn);
}

} // namespace

int
LinearQuantizer::signedQmax(int bits)
{
    TWOINONE_ASSERT(bits >= 1 && bits <= 31, "signedQmax bits=", bits);
    if (bits == 1)
        return 1; // binary {-1, +1} grid
    return (1 << (bits - 1)) - 1;
}

int
LinearQuantizer::unsignedQmax(int bits)
{
    TWOINONE_ASSERT(bits >= 1 && bits <= 31, "unsignedQmax bits=", bits);
    return (1 << bits) - 1;
}

QuantResult
LinearQuantizer::fakeQuantSymmetric(const Tensor &x, int bits)
{
    QuantResult r;
    if (bits <= 0) {
        r.values = x;
        r.steMask = Tensor::ones(x.shape());
        r.scale = 1.0f;
        return r;
    }
    r.bits = bits;

    float max_abs = ops::maxAbs(x);
    r.values = Tensor(x.shape());
    r.steMask = Tensor::ones(x.shape());
    if (max_abs == 0.0f) {
        r.scale = 0.0f;
        return r;
    }

    const float fq = static_cast<float>(signedQmax(bits));
    const float scale = max_abs / fq;
    r.scale = scale;
    const float *in = x.data();
    float *values = r.values.data();
    float *mask = r.steMask.data();
    quantPass(static_cast<int64_t>(x.size()), [=](int64_t lo, int64_t hi) {
        // One loop per output, as in unsignedGridPass.
        for (int64_t i = lo; i < hi; ++i) {
            float q = std::nearbyint(in[i] / scale);
            q = q > fq ? fq : q;
            q = q < -fq ? -fq : q;
            values[i] = q * scale;
        }
        for (int64_t i = lo; i < hi; ++i) {
            float q = std::nearbyint(in[i] / scale);
            mask[i] = (q > fq) | (q < -fq) ? 0.0f : 1.0f;
        }
    });
    return r;
}

QuantResult
LinearQuantizer::fakeQuantUnsigned(const Tensor &x, int bits)
{
    if (bits <= 0)
        return fakeQuantUnsignedStatic(x, bits, 0.0f);
    return fakeQuantUnsignedStatic(x, bits, ops::maxVal(x));
}

namespace {

/**
 * The shared unsigned grid pass: values (and, when @p mask is
 * non-null, the STE mask) of the static-range fake quantization.
 * Both public forms run exactly this, so they can never diverge.
 */
void
unsignedGridPass(const float *in, size_t n, int qmax, float scale,
                 float *values, float *mask)
{
    const float fq = static_cast<float>(qmax);
    ops::gatedParallelFor(
        static_cast<int64_t>(n), kQuantGrain,
        [=](int64_t lo, int64_t hi) {
            // One loop per output keeps each branch-free (the snap is
            // recomputed, not stored), so both vectorize.
            for (int64_t i = lo; i < hi; ++i) {
                float q = std::nearbyint(in[i] / scale);
                q = q < 0.0f ? 0.0f : q;
                q = q > fq ? fq : q;
                values[i] = q * scale;
            }
            if (mask)
                for (int64_t i = lo; i < hi; ++i) {
                    float q = std::nearbyint(in[i] / scale);
                    mask[i] = (q < 0.0f) | (q > fq) ? 0.0f : 1.0f;
                }
        });
}

} // namespace

QuantResult
LinearQuantizer::fakeQuantUnsignedStatic(const Tensor &x, int bits,
                                         float max_v)
{
    QuantResult r;
    if (bits <= 0) {
        r.values = x;
        r.steMask = Tensor::ones(x.shape());
        r.scale = 1.0f;
        return r;
    }
    r.bits = bits;

    r.values = Tensor(x.shape());
    r.steMask = Tensor::ones(x.shape());
    const float *in = x.data();
    float *mask = r.steMask.data();
    if (max_v <= 0.0f) {
        r.scale = 0.0f;
        // Entirely non-positive input: everything clips to zero.
        quantPass(static_cast<int64_t>(x.size()),
                  [&](int64_t lo, int64_t hi) {
                      for (int64_t i = lo; i < hi; ++i)
                          mask[i] = (in[i] == 0.0f) ? 1.0f : 0.0f;
                  });
        return r;
    }

    int qmax = unsignedQmax(bits);
    r.scale = max_v / static_cast<float>(qmax);
    unsignedGridPass(in, x.size(), qmax, r.scale, r.values.data(), mask);
    return r;
}

void
LinearQuantizer::fakeQuantUnsignedStaticValuesInto(const Tensor &x,
                                                   int bits, float max_v,
                                                   Tensor &values_out)
{
    values_out.ensure(x.shape());
    if (bits <= 0) {
        std::copy(x.data(), x.data() + x.size(), values_out.data());
        return;
    }
    if (max_v <= 0.0f) {
        values_out.fill(0.0f);
        return;
    }
    int qmax = unsignedQmax(bits);
    float scale = max_v / static_cast<float>(qmax);
    unsignedGridPass(x.data(), x.size(), qmax, scale,
                     values_out.data(), nullptr);
}

std::vector<int32_t>
LinearQuantizer::quantizeToIntSymmetric(const Tensor &x, int bits,
                                        float *scale_out)
{
    std::vector<int32_t> codes(x.size(), 0);
    float max_abs = ops::maxAbs(x);
    int qmax = signedQmax(bits);
    float scale = (max_abs == 0.0f)
                      ? 0.0f
                      : max_abs / static_cast<float>(qmax);
    if (scale_out)
        *scale_out = scale;
    if (scale == 0.0f)
        return codes;
    const float *in = x.data();
    int32_t *out = codes.data();
    const float fq = static_cast<float>(qmax);
    quantPass(static_cast<int64_t>(x.size()), [=](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            // std::min(fq, std::max(-fq, q)) as selects: NaN -> -qmax.
            float q = std::nearbyint(in[i] / scale);
            q = -fq < q ? q : -fq;
            q = q < fq ? q : fq;
            out[i] = static_cast<int32_t>(q);
        }
    });
    return codes;
}

} // namespace twoinone
