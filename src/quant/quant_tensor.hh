/**
 * @file
 * QuantTensor: the canonical quantized-tensor representation — integer
 * codes on a uniform grid plus the scale that maps them back to reals.
 *
 * The float "fake-quantized" values the nn library computes are a
 * *view* of this representation: value[i] == float(code[i]) * scale,
 * exactly (codes are small integers, exactly representable in float,
 * and the product is the same single rounding fakeQuant* performs).
 * RpsEngine therefore caches only QuantTensors (plus their tile
 * packs); layers dequantize the float view where they read it, and
 * the bit-serial datapath simulator (accel/array_sim) consumes the
 * codes directly, with no float-to-int re-pass anywhere.
 *
 * Two grids, matching LinearQuantizer:
 *  - symmetric signed (weights): codes in [-qmax, qmax],
 *    qmax = 2^(bits-1) - 1, scale = max|x| / qmax;
 *  - affine unsigned (post-ReLU activations): codes in [0, qmax],
 *    qmax = 2^bits - 1, scale = max / qmax — with the max either
 *    observed from the tensor (dynamic) or supplied by a calibration
 *    pass (static scale).
 */

#ifndef TWOINONE_QUANT_QUANT_TENSOR_HH
#define TWOINONE_QUANT_QUANT_TENSOR_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "tensor/ops.hh"
#include "tensor/tensor.hh"

namespace twoinone {

/** @name Grid snap element kernels
 * The one per-element quantization expression every code producer
 * shares (QuantTensor's passes and the plan's fused SBN+ReLU+quantize
 * producer): g = nearbyint(v / scale), clamped to the grid. Scale and
 * bounds arrive as values, so a caller's loop keeps them in registers,
 * and the clamp is two selects rather than branches, so the loop
 * vectorizes. steMask* is the STE mask rule of LinearQuantizer: 0
 * where the clamp moved the value, else 1.
 *
 * NaN: every comparison with NaN is false, so a NaN input keeps STE
 * mask 1 (as LinearQuantizer leaves it) and snaps to code 0 on the
 * unsigned grid and to -qmax on the signed grid. */
/** @{ */
inline float
snapUnsigned(float v, float scale, float qmax)
{
    float g = std::nearbyint(v / scale);
    g = g > 0.0f ? g : 0.0f;
    return g < qmax ? g : qmax;
}

/** The STE mask value of snapUnsigned: 0 where the clamp moved the
 * value, else 1. */
inline float
steMaskUnsigned(float v, float scale, float qmax)
{
    float g = std::nearbyint(v / scale);
    return static_cast<float>(!(g < 0.0f) & !(g > qmax));
}

inline float
snapSigned(float v, float scale, float qmax)
{
    float g = std::nearbyint(v / scale);
    g = g > -qmax ? g : -qmax;
    return g < qmax ? g : qmax;
}

inline float
steMaskSigned(float v, float scale, float qmax)
{
    float g = std::nearbyint(v / scale);
    return static_cast<float>(!(g < -qmax) & !(g > qmax));
}
/** @} */

/**
 * Integer codes + scale + precision: the canonical quantized tensor.
 */
struct QuantTensor
{
    /** Row-major shape (mirrors the source Tensor's). */
    std::vector<int> shape;
    /** Integer grid codes. Stored as int32 so post-quantization
     * integer transforms (e.g. average-pool partial sums) fit. */
    std::vector<int32_t> codes;
    /** Dequantization scale: real value = code * scale. */
    float scale = 0.0f;
    /** Grid precision in bits (0 = empty/unquantized). */
    int bits = 0;
    /** Signed symmetric grid (weights) vs unsigned (activations). */
    bool isSigned = true;

    size_t size() const { return codes.size(); }
    bool empty() const { return codes.empty(); }
    /** Bytes held by the code storage. */
    size_t bytes() const { return codes.size() * sizeof(int32_t); }

    /**
     * Quantize onto the symmetric signed grid (weights), scale from
     * the tensor's own max|x|. Codes reproduce
     * LinearQuantizer::fakeQuantSymmetric exactly: dequantize() is
     * bit-identical to its values, and steMaskSigned(x[i], scale,
     * qmax()) to its STE mask.
     */
    static QuantTensor quantizeSymmetric(const Tensor &x, int bits);

    /** quantizeSymmetric into a caller-owned QuantTensor, reusing its
     * code storage — the allocation-free form the RpsEngine cache
     * rebuilds run on. The allocating overload wraps it. */
    static void quantizeSymmetricInto(const Tensor &x, int bits,
                                      QuantTensor &out);

    /**
     * Quantize onto the unsigned grid (activations) with an explicit
     * range maximum @p max_v — the static-scale calibrated form. With
     * max_v == ops::maxVal(x) this reproduces
     * LinearQuantizer::fakeQuantUnsigned bit-exactly.
     */
    static QuantTensor quantizeUnsigned(const Tensor &x, int bits,
                                        float max_v,
                                        Tensor *ste_mask_out = nullptr);

    /** quantizeUnsigned into a caller-owned QuantTensor, reusing its
     * code storage — the allocation-free form the serving plan's
     * ActQuant steps run on. The allocating overload wraps it. */
    static void quantizeUnsignedInto(const Tensor &x, int bits,
                                     float max_v, QuantTensor &out,
                                     Tensor *ste_mask_out = nullptr);

    /** Materialize the float view: out[i] = float(codes[i]) * scale. */
    Tensor dequantize() const;

    /** Materialize into an existing tensor (reshaped as needed). */
    void dequantizeInto(Tensor &out) const;

    /** Largest |code| representable on this grid. */
    int qmax() const;
};

/**
 * Narrow channel-last activation codes: the operand form every
 * integer conv reads. Logical shape [n, c, h, w] (NCHW, as the
 * QuantTensor it mirrors), stored as [n, h + 2*pad, w + 2*pad, c]
 * unsigned codes with a zero border @p pad wide — uint8 at <= 8 bits,
 * uint16 above (u8 / u16; the other vector keeps its storage for the
 * next precision switch). A conv of kernel R and padding p <= pad
 * then finds every output position's tap row ky as ONE contiguous
 * run of R*c codes, so its im2col is a copy per (position, ky).
 *
 * Producers write whole padded rows, border included, so a buffer
 * reused across batches and precisions never carries stale codes.
 */
struct ChannelLastCodes
{
    int n = 0, c = 0, h = 0, w = 0;
    int pad = 0;
    int bits = 0;
    float scale = 0.0f;
    std::vector<uint8_t> u8;
    std::vector<uint16_t> u16;

    bool narrow() const { return bits <= 8; }
    int paddedH() const { return h + 2 * pad; }
    int paddedW() const { return w + 2 * pad; }
    /** Codes per padded image. */
    size_t imageSize() const
    {
        return static_cast<size_t>(paddedH()) * paddedW() * c;
    }
    /** Bytes held by both code vectors. */
    size_t bytes() const
    {
        return u8.size() * sizeof(uint8_t) + u16.size() * sizeof(uint16_t);
    }

    /** Set the geometry and precision and size the matching vector
     * (the contents are left for the producer to overwrite). */
    void reshape(int n, int c, int h, int w, int pad, int bits);

    /** The NCHW int32 codes back (traces and float fallbacks). */
    void toQuantTensor(QuantTensor &out) const;

    /**
     * The channel-last quantize producer: codes snapUnsigned(f(v)) of
     * the NCHW floats @p x on the unsigned @p bits grid of range
     * @p max_v (scale 0 and all-zero codes when max_v <= 0, exactly
     * as QuantTensor::quantizeUnsignedInto), with a @p pad border.
     * @p prep(ci) returns channel ci's element transform f — the
     * producing layer's own per-element expression (the identity for
     * a plain ActQuant), so the codes are bit-identical to that
     * layer's output quantized by quantizeUnsignedInto.
     */
    template <typename Prep>
    void quantize(const Tensor &x, int bits, float max_v, int pad,
                  Prep prep);

    /**
     * The producer walk over the vector of element type T (u8 or
     * u16, after reshape()): zero the border — whole padded rows
     * above and below the image, @c pad columns either side of each
     * image row — and hand each image row's interior, w * c codes
     * from column @c pad, to @p fill(ni, y, dst). Parallel over
     * images; every code is written exactly once.
     */
    template <typename T, typename Fill>
    void
    fillRows(T *buf, Fill fill) const
    {
        const int hp = paddedH();
        const size_t row = static_cast<size_t>(paddedW()) * c;
        const size_t side = static_cast<size_t>(pad) * c;
        const size_t img = imageSize();
        ops::gatedParallelFor(n, 1, [&](int64_t lo, int64_t hi) {
            for (int64_t ni = lo; ni < hi; ++ni) {
                T *base = buf + static_cast<size_t>(ni) * img;
                for (int py = 0; py < hp; ++py) {
                    T *r = base + static_cast<size_t>(py) * row;
                    int y = py - pad;
                    if (y < 0 || y >= h) {
                        std::fill(r, r + row, T(0));
                        continue;
                    }
                    std::fill(r, r + side, T(0));
                    std::fill(r + row - side, r + row, T(0));
                    fill(static_cast<int>(ni), y, r + side);
                }
            }
        });
    }
};

/**
 * Interleave the code rows of consecutive channels into channel-last
 * pixels: dst[t * c + k] = rows[k * ld + t] for k < kGroup channels,
 * t < len. A group fills 8 bytes (8 uint8 or 4 uint16 codes), stored
 * as one word per pixel — the transpose's cost is per pixel, not per
 * code. Codes must fit T.
 */
template <typename T>
struct ChannelInterleave
{
    static constexpr int kGroup = 8 / static_cast<int>(sizeof(T));

    static void
    group(const int32_t *rows, size_t ld, int len, T *dst, int c)
    {
        for (int t = 0; t < len; ++t) {
            uint64_t word = 0;
            for (int k = 0; k < kGroup; ++k)
                word |= static_cast<uint64_t>(static_cast<uint32_t>(
                            rows[static_cast<size_t>(k) * ld + t]))
                        << (k * 8 * sizeof(T));
            std::memcpy(dst + static_cast<size_t>(t) * c, &word, 8);
        }
    }

    static void
    single(const int32_t *row, int len, T *dst, int c)
    {
        for (int t = 0; t < len; ++t)
            dst[static_cast<size_t>(t) * c] = static_cast<T>(row[t]);
    }
};

template <typename Prep>
void
ChannelLastCodes::quantize(const Tensor &x, int bits_, float max_v,
                           int pad_, Prep prep)
{
    TWOINONE_ASSERT(x.ndim() == 4, "channel-last quantize needs NCHW");
    reshape(x.dim(0), x.dim(1), x.dim(2), x.dim(3), pad_, bits_);
    const bool zero = max_v <= 0.0f;
    const float qmax = static_cast<float>((1 << bits_) - 1);
    const float s = zero ? 0.0f : max_v / qmax;
    scale = s;
    const int cc = c, hh = h, ww = w;
    const float *in = x.data();
    auto produce = [=](auto *buf) {
        using T = std::remove_pointer_t<decltype(buf)>;
        using IL = ChannelInterleave<T>;
        fillRows(buf, [=](int ni, int y, T *dst) {
            // Per group of channels and chunk of the row: snap each
            // channel's contiguous floats into an int32 line (the
            // vectorized part), then interleave the group's lines
            // channel-last.
            constexpr int kLine = 64;
            alignas(64) int32_t lines[IL::kGroup * kLine];
            const size_t plane = static_cast<size_t>(hh) * ww;
            const float *img =
                in + static_cast<size_t>(ni) * cc * plane +
                static_cast<size_t>(y) * ww;
            for (int x0 = 0; x0 < ww; x0 += kLine) {
                const int len = std::min(kLine, ww - x0);
                T *d = dst + static_cast<size_t>(x0) * cc;
                int ci = 0;
                while (ci < cc) {
                    const int g = cc - ci >= IL::kGroup ? IL::kGroup : 1;
                    for (int k = 0; k < g; ++k) {
                        auto f = prep(ci + k);
                        const float *src = img + (ci + k) * plane + x0;
                        int32_t *line = lines + k * kLine;
                        if (zero) {
                            std::fill(line, line + len, 0);
                            continue;
                        }
                        for (int t = 0; t < len; ++t)
                            line[t] = static_cast<int32_t>(
                                snapUnsigned(f(src[t]), s, qmax));
                    }
                    if (g == IL::kGroup)
                        IL::group(lines, kLine, len, d + ci, cc);
                    else
                        IL::single(lines, len, d + ci, cc);
                    ci += g;
                }
            }
        });
    };
    if (narrow())
        produce(u8.data());
    else
        produce(u16.data());
}

} // namespace twoinone

#endif // TWOINONE_QUANT_QUANT_TENSOR_HH
