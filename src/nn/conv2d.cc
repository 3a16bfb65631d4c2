/**
 * @file
 * Conv2d implementation (im2col + GEMM, explicit gradients).
 *
 * The GEMM layout is fused with the NCHW tensor layout: forward runs
 * one [K, C*R*S] x [OH*OW, C*R*S]^T product per image whose output
 * lands directly in that image's [K, OH, OW] slab (bias added in the
 * same pass), and backward reads grad_out's per-image [K, OH*OW]
 * slabs in place. There is no [N*OH*OW, K] <-> NCHW repack loop
 * anywhere. Batch images are independent, so im2col / col2im / the
 * per-image GEMMs parallelize over the batch dimension; the weight
 * gradient accumulates over images in fixed batch order to keep
 * results independent of the thread count.
 */

#include "nn/conv2d.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <type_traits>

#include "common/thread_pool.hh"
#include "serve/execution_plan.hh"
#include "tensor/gemm.hh"
#include "tensor/ops.hh"

namespace twoinone {

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int padding, bool bias, Rng &rng)
    : inChannels_(in_channels), outChannels_(out_channels), kernel_(kernel),
      stride_(stride), padding_(padding), hasBias_(bias),
      weight_(Tensor::randn(
          {out_channels, in_channels, kernel, kernel}, rng,
          static_cast<float>(
              std::sqrt(2.0 / (in_channels * kernel * kernel))))),
      bias_(bias ? Tensor::zeros({out_channels}) : Tensor())
{
    TWOINONE_ASSERT(in_channels > 0 && out_channels > 0 && kernel > 0 &&
                        stride > 0 && padding >= 0,
                    "bad Conv2d geometry");
}

int
Conv2d::outSize(int in_size) const
{
    return (in_size + 2 * padding_ - kernel_) / stride_ + 1;
}

void
Conv2d::im2colInto(const Tensor &x, int oh, int ow, Tensor &cols) const
{
    int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    int patch = c * kernel_ * kernel_;
    cols.ensure({n * oh * ow, patch});
    float *out = cols.data();
    const float *in = x.data();
    ThreadPool::global().parallelFor(0, n, 1, [&](int64_t nlo,
                                                  int64_t nhi) {
        for (int64_t ni = nlo; ni < nhi; ++ni) {
            for (int oy = 0; oy < oh; ++oy) {
                for (int ox = 0; ox < ow; ++ox) {
                    float *dst = out +
                                 (static_cast<size_t>(ni) * oh * ow +
                                  static_cast<size_t>(oy) * ow + ox) *
                                     patch;
                    int iy0 = oy * stride_ - padding_;
                    int ix0 = ox * stride_ - padding_;
                    for (int ci = 0; ci < c; ++ci) {
                        const float *src =
                            in + (static_cast<size_t>(ni) * c + ci) * h * w;
                        for (int ky = 0; ky < kernel_; ++ky) {
                            int iy = iy0 + ky;
                            for (int kx = 0; kx < kernel_; ++kx) {
                                int ix = ix0 + kx;
                                float v = 0.0f;
                                if (iy >= 0 && iy < h && ix >= 0 && ix < w)
                                    v = src[static_cast<size_t>(iy) * w +
                                            ix];
                                *dst++ = v;
                            }
                        }
                    }
                }
            }
        }
    });
}

void
Conv2d::col2imInto(const Tensor &cols, int oh, int ow, Tensor &x) const
{
    int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    int patch = c * kernel_ * kernel_;
    float *out = x.data();
    const float *in = cols.data();
    ThreadPool::global().parallelFor(0, n, 1, [&](int64_t nlo,
                                                  int64_t nhi) {
        for (int64_t ni = nlo; ni < nhi; ++ni) {
            for (int oy = 0; oy < oh; ++oy) {
                for (int ox = 0; ox < ow; ++ox) {
                    const float *src = in +
                                       (static_cast<size_t>(ni) * oh * ow +
                                        static_cast<size_t>(oy) * ow + ox) *
                                           patch;
                    int iy0 = oy * stride_ - padding_;
                    int ix0 = ox * stride_ - padding_;
                    for (int ci = 0; ci < c; ++ci) {
                        float *dst =
                            out + (static_cast<size_t>(ni) * c + ci) * h * w;
                        for (int ky = 0; ky < kernel_; ++ky) {
                            int iy = iy0 + ky;
                            for (int kx = 0; kx < kernel_; ++kx) {
                                int ix = ix0 + kx;
                                float v = *src++;
                                if (iy >= 0 && iy < h && ix >= 0 && ix < w)
                                    dst[static_cast<size_t>(iy) * w + ix] +=
                                        v;
                            }
                        }
                    }
                }
            }
        }
    });
}

Tensor
Conv2d::forward(const Tensor &x, bool train)
{
    (void)train;
    TWOINONE_ASSERT(x.ndim() == 4 && x.dim(1) == inChannels_,
                    "Conv2d input shape mismatch");
    int n = x.dim(0);
    int oh = outSize(x.dim(2));
    int ow = outSize(x.dim(3));
    TWOINONE_ASSERT(oh > 0 && ow > 0, "Conv2d output collapsed to zero");

    // Quantized weights into the layer's buffer: the RpsEngine-
    // installed codes dequantized, else a fresh fake-quantization of
    // the masters. The grid is kept for the backward's STE mask.
    wqBits_ = quant_.weightBits;
    wqScale_ = quantizedWeight(wqBits_, wq_);

    im2colInto(x, oh, ow, cachedCols_);
    cachedInShape_ = x.shape();
    cachedOh_ = oh;
    cachedOw_ = ow;

    // [K, C, R, S] is already contiguous [K, patch]: feed the (cached)
    // quantized buffer to the GEMM directly, no reshape copy.
    Tensor out({n, outChannels_, oh, ow});
    runFloatGemm(wq_.data(), n, oh, ow, cachedCols_, out);
    return out;
}

void
Conv2d::runFloatGemm(const float *w2d, int n, int oh, int ow,
                     const Tensor &cols, Tensor &out) const
{
    int patch = inChannels_ * kernel_ * kernel_;
    int ohw = oh * ow;
    const float *bias = hasBias_ ? bias_.value.data() : nullptr;

    // Per image: out[K, OH*OW] = W[K, patch] * cols_n[OH*OW, patch]^T,
    // written straight into the NCHW slab with the bias fused in.
    ThreadPool::global().parallelFor(0, n, 1, [&](int64_t nlo,
                                                  int64_t nhi) {
        for (int64_t ni = nlo; ni < nhi; ++ni) {
            const float *cols_n = cols.data() +
                                  static_cast<size_t>(ni) * ohw * patch;
            float *out_n = out.data() +
                           static_cast<size_t>(ni) * outChannels_ * ohw;
            gemm::sgemm(false, true, outChannels_, ohw, patch, w2d,
                        patch, cols_n, patch, out_n, ohw,
                        /*accumulate=*/false, bias);
        }
    });
}

void
Conv2d::inferFloatInto(const Tensor &x, Tensor &wq_scratch, Tensor &cols,
                       Tensor &out)
{
    TWOINONE_ASSERT(x.ndim() == 4 && x.dim(1) == inChannels_,
                    "Conv2d input shape mismatch");
    int n = x.dim(0);
    int oh = outSize(x.dim(2));
    int ow = outSize(x.dim(3));
    TWOINONE_ASSERT(oh > 0 && ow > 0, "Conv2d output collapsed to zero");

    // At full precision the masters feed the GEMM directly (the
    // fake-quant identity pass would only copy them); at quantized
    // precisions the same cache/requantize dispatch as forward().
    const float *w2d = weight_.value.data();
    if (quant_.weightBits > 0) {
        quantizedWeight(quant_.weightBits, wq_scratch);
        w2d = wq_scratch.data();
    }
    im2colInto(x, oh, ow, cols);
    out.ensure({n, outChannels_, oh, ow});
    runFloatGemm(w2d, n, oh, ow, cols, out);
}

namespace {

/** Copy @p len codes, widening when the column type is wider. Same
 * width: 16-byte blocks, the tail as one overlapping block — runs are
 * tens of bytes, where a library memcpy call would cost more than
 * the copy. */
template <typename S, typename T>
inline void
copyRun(const S *src, T *dst, size_t len)
{
    if constexpr (std::is_same<S, T>::value) {
        const size_t bytes = len * sizeof(T);
        auto *d = reinterpret_cast<unsigned char *>(dst);
        auto *s = reinterpret_cast<const unsigned char *>(src);
        if (bytes < 16) {
            for (size_t i = 0; i < bytes; ++i)
                d[i] = s[i];
            return;
        }
        size_t i = 0;
        for (; i + 16 <= bytes; i += 16)
            std::memcpy(d + i, s + i, 16);
        if (i < bytes)
            std::memcpy(d + bytes - 16, s + bytes - 16, 16);
    } else {
        for (size_t i = 0; i < len; ++i)
            dst[i] = static_cast<T>(src[i]);
    }
}

/**
 * One image's tap-copy im2col: [OH*OW, R*R*C] operand columns from a
 * channel-last image whose border is @p off codes wider than the
 * conv's padding. The R*C codes of tap row ky of output position
 * (oy, ox) are contiguous in the image, so each (position, ky) is one
 * copy, and the columns come out in the (ky, kx, ci) order of the
 * tap-major weight pack.
 */
template <typename S, typename T>
void
tapCopyImage(const S *img, int wp, int c, int oh, int ow, int kernel,
             int stride, int off, T *out)
{
    const size_t run = static_cast<size_t>(kernel) * c;
    const size_t row = static_cast<size_t>(wp) * c;
    for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
            T *dst = out + (static_cast<size_t>(oy) * ow + ox) * run * kernel;
            const S *src = img + static_cast<size_t>(oy * stride + off) * row +
                           static_cast<size_t>(ox * stride + off) * c;
            for (int ky = 0; ky < kernel; ++ky, dst += run, src += row)
                copyRun(src, dst, run);
        }
    }
}

} // namespace

void
Conv2d::inferQuantInto(const ChannelLastCodes &x, const QuantTensor &wq,
                       PackScratch &ps, IntGemmScratch &s, Tensor &out)
{
    TWOINONE_ASSERT(x.c == inChannels_ && x.pad >= padding_,
                    "Conv2d channel-last input mismatch (C=", x.c,
                    ", border ", x.pad, " < padding ", padding_, ")");
    int n = x.n;
    int oh = outSize(x.h), ow = outSize(x.w);
    TWOINONE_ASSERT(oh > 0 && ow > 0, "Conv2d output collapsed to zero");

    int patch = inChannels_ * kernel_ * kernel_;
    int ohw = oh * ow;
    s.acc.resize(static_cast<size_t>(n) * outChannels_ * ohw);
    int64_t *acc = s.acc.data();
    const gemm::PackedIntWeights &pack =
        packedWeights(wq, outChannels_, patch, ps);
    const int off = x.pad - padding_;

    // Per image: tap-copy the columns, then acc[K, OH*OW] =
    // Wq[K, patch] * cols_n[OH*OW, patch]^T in exact integer
    // arithmetic over the narrowest operand width (uint8 columns when
    // both sides fit 8 bits, uint16 otherwise).
    auto run = [&](auto &cols, const auto *src) {
        cols.resize(static_cast<size_t>(n) * ohw * patch);
        ThreadPool::global().parallelFor(
            0, n, 1, [&](int64_t nlo, int64_t nhi) {
                for (int64_t ni = nlo; ni < nhi; ++ni) {
                    auto *col = cols.data() +
                                static_cast<size_t>(ni) * ohw * patch;
                    tapCopyImage(src + static_cast<size_t>(ni) *
                                           x.imageSize(),
                                 x.paddedW(), inChannels_, oh, ow, kernel_,
                                 stride_, off, col);
                    gemm::igemmPackedTransB(
                        pack, ohw, col, patch,
                        acc + static_cast<size_t>(ni) * outChannels_ * ohw,
                        ohw, x.bits);
                }
            });
    };
    if (!x.narrow())
        run(s.a16, x.u16.data());
    else if (wq.bits <= 8)
        run(s.a8, x.u8.data());
    else
        run(s.a16, x.u8.data());

    // Dequantize: out = acc * (w_scale * a_scale) + bias[k].
    float dq = wq.scale * x.scale;
    const float *bias = hasBias_ ? bias_.value.data() : nullptr;
    out.ensure({n, outChannels_, oh, ow});
    float *o = out.data();
    int64_t rows = static_cast<int64_t>(n) * outChannels_;
    int64_t grain_rows = std::max<int64_t>(1, (1 << 15) / ohw);
    ops::gatedParallelFor(rows, grain_rows, [&](int64_t lo, int64_t hi) {
        for (int64_t row = lo; row < hi; ++row) {
            float b = bias ? bias[row % outChannels_] : 0.0f;
            const int64_t *arow = acc + row * ohw;
            float *orow = o + row * ohw;
            for (int t = 0; t < ohw; ++t)
                orow[t] = static_cast<float>(arow[t]) * dq + b;
        }
    });

    if (quantTrace_) {
        tracedW_ = wq;
        x.toQuantTensor(tracedA_);
        tracedAcc_ = s.acc;
    }
}

void
Conv2d::emitPlanSteps(serve::PlanBuilder &b)
{
    int in = b.top();
    int out = b.newValue();
    int sid = b.newScratch();
    if (b.mode() == serve::PlanMode::Quantized) {
        b.addStep("conv[int] " + describe(),
                  [this, in, out, sid](serve::ExecutionPlan &p) {
                      serve::Value &vi = p.value(in);
                      serve::Value &vo = p.value(out);
                      serve::LayerScratch &ls = p.scratch(sid);
                      vo.reset();
                      if (quant_.weightBits > 0 && vi.hasChannelLast) {
                          const QuantTensor &wq = quantizedCodes(
                              quant_.weightBits, ls.wcodes);
                          inferQuantInto(vi.cl, wq, ls.pack, p.operands(),
                                         vo.dense);
                      } else {
                          inferFloatInto(vi.denseView(), ls.wq,
                                         p.floatCols(), vo.dense);
                      }
                      vo.denseReady = true;
                  });
    } else {
        b.addStep("conv " + describe(),
                  [this, in, out, sid](serve::ExecutionPlan &p) {
                      serve::Value &vi = p.value(in);
                      serve::Value &vo = p.value(out);
                      serve::LayerScratch &ls = p.scratch(sid);
                      vo.reset();
                      inferFloatInto(vi.denseView(), ls.wq, p.floatCols(),
                                     vo.dense);
                      vo.denseReady = true;
                  });
    }
    b.setTop(out);
}

Tensor
Conv2d::backward(const Tensor &grad_out)
{
    TWOINONE_ASSERT(!cachedCols_.empty(), "Conv2d backward before forward");
    int n = grad_out.dim(0);
    int oh = cachedOh_, ow = cachedOw_;
    TWOINONE_ASSERT(grad_out.dim(1) == outChannels_ && grad_out.dim(2) == oh &&
                        grad_out.dim(3) == ow,
                    "Conv2d grad_out shape mismatch");
    int patch = inChannels_ * kernel_ * kernel_;
    int ohw = oh * ow;
    const float *g = grad_out.data();

    // Weight gradient: dW[K, patch] = sum_n grad_n[K, OH*OW] *
    // cols_n[OH*OW, patch]. Fixed batch order (serial over n, GEMM
    // parallel inside) keeps the accumulation deterministic.
    dwBuf_.ensure({outChannels_, patch});
    for (int ni = 0; ni < n; ++ni) {
        const float *grad_n = g + static_cast<size_t>(ni) * outChannels_ *
                                      ohw;
        const float *cols_n =
            cachedCols_.data() + static_cast<size_t>(ni) * ohw * patch;
        gemm::sgemm(false, false, outChannels_, patch, ohw, grad_n, ohw,
                    cols_n, patch, dwBuf_.data(), patch,
                    /*accumulate=*/ni > 0);
    }
    // STE: gradients flow to master weights where the forward's
    // quantization did not clip.
    accumulateSteGrad(dwBuf_.data(), wqBits_, wqScale_, weight_.grad);

    if (hasBias_) {
        // Per-channel reduction straight off the NCHW slabs; each
        // channel sums its images in batch order.
        float *bgrad = bias_.grad.data();
        ThreadPool::global().parallelFor(0, outChannels_, 1,
                                         [&](int64_t klo, int64_t khi) {
            for (int64_t k = klo; k < khi; ++k) {
                double s = 0.0;
                for (int ni = 0; ni < n; ++ni) {
                    const float *p =
                        g + (static_cast<size_t>(ni) * outChannels_ + k) *
                                ohw;
                    for (int t = 0; t < ohw; ++t)
                        s += p[t];
                }
                bgrad[k] += static_cast<float>(s);
            }
        });
    }

    // Input gradient: dcols_n[OH*OW, patch] = grad_n[K, OH*OW]^T *
    // Wq[K, patch]; then col2im. Per-image outputs are disjoint.
    quantizedWeight(quant_.weightBits, wq_);
    const float *w2d = wq_.data();
    dcolsBuf_.ensure({n * ohw, patch});
    ThreadPool::global().parallelFor(0, n, 1, [&](int64_t nlo,
                                                  int64_t nhi) {
        for (int64_t ni = nlo; ni < nhi; ++ni) {
            const float *grad_n =
                g + static_cast<size_t>(ni) * outChannels_ * ohw;
            float *dcols_n =
                dcolsBuf_.data() + static_cast<size_t>(ni) * ohw * patch;
            gemm::sgemm(true, false, ohw, patch, outChannels_, grad_n, ohw,
                        w2d, patch, dcols_n, patch);
        }
    });

    Tensor dx(cachedInShape_);
    col2imInto(dcolsBuf_, oh, ow, dx);
    return dx;
}

void
Conv2d::collectParameters(std::vector<Parameter *> &out)
{
    out.push_back(&weight_);
    if (hasBias_)
        out.push_back(&bias_);
}

void
Conv2d::collectWeightQuantized(std::vector<WeightQuantizedLayer *> &out)
{
    out.push_back(this);
}

std::string
Conv2d::describe() const
{
    std::ostringstream oss;
    oss << "Conv2d(" << inChannels_ << "->" << outChannels_ << ", k="
        << kernel_ << ", s=" << stride_ << ", p=" << padding_ << ")";
    return oss.str();
}

LayerSpec
Conv2d::spec() const
{
    return {"conv2d",
            {inChannels_, outChannels_, kernel_, stride_, padding_,
             hasBias_ ? 1 : 0}};
}

void
Conv2d::collectState(const std::string &prefix, StateDict &out)
{
    out.push_back({prefix + ".weight", &weight_.value, nullptr, nullptr,
                   nullptr});
    if (hasBias_)
        out.push_back({prefix + ".bias", &bias_.value, nullptr, nullptr,
                       nullptr});
}

} // namespace twoinone
