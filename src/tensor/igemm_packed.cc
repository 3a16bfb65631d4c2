/**
 * @file
 * Packed integer GEMM kernel family with runtime ISA dispatch.
 *
 * Layout (see PackedIntWeights in gemm.hh): weight rows in tiles of
 * kPackTileM output channels, the reduction dimension in zero-padded
 * groups of 4 int8 codes (p8, <= 8-bit weights) and of 2 int16 codes
 * (p16, every width). One group of one tile is a contiguous 64-byte
 * vector register's worth of weights:
 *
 *   p8  group: [ch0 k0..k3][ch1 k0..k3] ... [ch15 k0..k3]
 *   p16 group: [ch0 k0 k1 ][ch1 k0 k1 ] ... [ch15 k0 k1 ]
 *
 * so one `vpdpbusd` (resp. `vpmaddwd`) against a broadcast of the
 * activation group computes a partial dot for all 16 channels at
 * once. Activation rows are consumed unpacked — they change every
 * forward, weights are packed once per (layer, precision) — and the
 * ragged final k-group loads only the real bytes (the matching weight
 * lanes are zero, so no padded activation stride is needed).
 *
 * Exactness argument, which is what makes every tier bit-identical:
 * integer accumulation is exact as long as nothing overflows, and
 * overflow is excluded per path —
 *  - int8/vpdpbusd: products <= 127 * 255 fit int16 words, the dword
 *    accumulator is guarded by the qw * qa * k <= INT32_MAX bound
 *    (scalar int64 fallback otherwise);
 *  - maddubs: pair sums saturate int16, so the AVX2 tier only takes
 *    it when 2 * qw * qa <= 32767 and otherwise runs the int16-packed
 *    kernel on widened activations;
 *  - int16/vpmaddwd: pair sums <= 2 * 32767 * 32768 fit int32; group
 *    results accumulate in an int32 window of
 *    floor(INT32_MAX / (2 * qw * qa_eff)) groups before spilling into
 *    int64 lanes, so no partial sum can ever wrap;
 *  - 16-bit activations exceed int16 lanes, so they are biased on the
 *    fly (a ^ 0x8000 = a - 32768) and the exact correction
 *    32768 * rowSum is added back at the int64 store;
 *  - wide (> 16-bit) activations split into low-15-bit and high parts
 *    and recombine as lo + (hi << 15) in int64.
 */

#include "tensor/gemm.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/logging.hh"
#include "tensor/ops.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TWOINONE_X86_KERNELS 1
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
// GCC 12 false positive: the unmasked AVX-512 intrinsics pass
// _mm512_undefined_epi32() as the masked builtins' src operand and
// -Wmaybe-uninitialized flags it (GCC PR 105593).
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#endif

namespace twoinone {
namespace gemm {

namespace {

IsaTier
detectIsa()
{
#ifdef TWOINONE_X86_KERNELS
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512vnni"))
        return IsaTier::Avx512Vnni;
    if (__builtin_cpu_supports("avx2"))
        return IsaTier::Avx2;
#endif
    return IsaTier::Scalar;
}

struct IsaState
{
    IsaTier detected;
    IsaTier active;
};

IsaState &
isaSlot()
{
    static IsaState s = [] {
        IsaState st{detectIsa(), detectIsa()};
        const char *env = std::getenv("TWOINONE_ISA");
        if (env) {
            std::string v(env);
            IsaTier want = st.detected;
            if (v == "scalar")
                want = IsaTier::Scalar;
            else if (v == "avx2")
                want = IsaTier::Avx2;
            else if (v == "avx512" || v == "vnni" || v == "avx512vnni")
                want = IsaTier::Avx512Vnni;
            else
                TWOINONE_WARN("unknown TWOINONE_ISA=", env, ", using ",
                              isaTierName(st.detected));
            if (want > st.detected) {
                TWOINONE_WARN("TWOINONE_ISA=", env,
                              " not supported by this CPU, using ",
                              isaTierName(st.detected));
                want = st.detected;
            }
            st.active = want;
        }
        return st;
    }();
    return s;
}

/** The tier a packed call dispatches to: the active tier, except the
 * scalar loops under the naive reference backend. */
IsaTier
dispatchTier()
{
    return activeBackend() == Backend::Naive ? IsaTier::Scalar
                                             : isaSlot().active;
}

/** Signed symmetric grid magnitude (w_bits == 1 is the {-1,+1} binary
 * grid — magnitude 1, matching LinearQuantizer::signedQmax). */
inline int64_t
signedQmaxOf(int w_bits)
{
    return w_bits <= 1 ? 1 : (int64_t{1} << (w_bits - 1)) - 1;
}

/** Load @p n (1..4) activation bytes into a little-endian dword;
 * missing bytes are zero (their weight lanes are zero pads). */
inline uint32_t
loadActWord8(const uint8_t *p, int n)
{
    uint32_t v = 0;
    std::memcpy(&v, p, static_cast<size_t>(n));
    return v;
}

/** int16-path epilogue, one output column: apply the 16-bit bias
 * correction, the wide-split shift, and scatter (ct = false) or
 * contiguous-store (ct = true) the tile's rows. */
inline void
storePackedCol(const PackedIntWeights &w, int row0, int rows, int j,
               const int64_t res[kPackTileM], int64_t *c, int ldc, bool ct,
               bool biased, int shift, bool accumulate)
{
    for (int ch = 0; ch < rows; ++ch) {
        int64_t v = res[ch];
        if (biased)
            v += w.rowSum[static_cast<size_t>(row0 + ch)] * 32768;
        v *= int64_t{1} << shift; // a multiply: v may be negative
        int64_t *dst = ct ? c + static_cast<size_t>(j) * ldc + row0 + ch
                          : c + static_cast<size_t>(row0 + ch) * ldc + j;
        if (accumulate)
            *dst += v;
        else
            *dst = v;
    }
}

/** Column work grain: one chunk carries >= ~32K multiply-adds. */
inline int64_t
columnGrain(int m, int k)
{
    return std::max<int64_t>(
        1, (int64_t{1} << 15) /
               std::max<int64_t>(1, static_cast<int64_t>(m) * k));
}

// ---------------------------------------------------------------------------
// Scalar tier: plain loops over the packed layout. Performance is not
// the point — this is the always-available reference every SIMD tier
// must match bit-for-bit (exact int64 accumulation).
// ---------------------------------------------------------------------------

void
kernelScalarU8(const PackedIntWeights &w, int jlo, int jhi,
               const uint8_t *b, int ldb, int64_t *c, int ldc)
{
    for (int t = 0; t < w.tiles; ++t) {
        const int8_t *wt =
            w.p8.data() + static_cast<size_t>(t) * w.groups8 * kPackTileM * 4;
        const int row0 = t * kPackTileM;
        const int rows = std::min(kPackTileM, w.m - row0);
        for (int j = jlo; j < jhi; ++j) {
            const uint8_t *bj = b + static_cast<size_t>(j) * ldb;
            int64_t acc[kPackTileM] = {};
            for (int g = 0; g < w.groups8; ++g) {
                const int8_t *wp =
                    wt + static_cast<size_t>(g) * kPackTileM * 4;
                const int base = g * 4;
                const int lim = std::min(4, w.k - base);
                for (int ch = 0; ch < rows; ++ch)
                    for (int e = 0; e < lim; ++e)
                        acc[ch] += static_cast<int32_t>(wp[ch * 4 + e]) *
                                   static_cast<int32_t>(bj[base + e]);
            }
            for (int ch = 0; ch < rows; ++ch)
                c[static_cast<size_t>(row0 + ch) * ldc + j] = acc[ch];
        }
    }
}

void
kernelScalarU16(const PackedIntWeights &w, int jlo, int jhi,
                const uint16_t *b, int ldb, int64_t *c, int ldc, bool ct,
                int shift, bool accumulate)
{
    for (int t = 0; t < w.tiles; ++t) {
        const int16_t *wt =
            w.p16.data() +
            static_cast<size_t>(t) * w.groups16 * kPackTileM * 2;
        const int row0 = t * kPackTileM;
        const int rows = std::min(kPackTileM, w.m - row0);
        for (int j = jlo; j < jhi; ++j) {
            const uint16_t *bj = b + static_cast<size_t>(j) * ldb;
            int64_t acc[kPackTileM] = {};
            for (int g = 0; g < w.groups16; ++g) {
                const int16_t *wp =
                    wt + static_cast<size_t>(g) * kPackTileM * 2;
                const int base = g * 2;
                const int lim = std::min(2, w.k - base);
                for (int ch = 0; ch < rows; ++ch)
                    for (int e = 0; e < lim; ++e)
                        acc[ch] += static_cast<int64_t>(wp[ch * 2 + e]) *
                                   static_cast<int64_t>(bj[base + e]);
            }
            for (int ch = 0; ch < rows; ++ch) {
                int64_t v = acc[ch] * (int64_t{1} << shift);
                int64_t *dst =
                    ct ? c + static_cast<size_t>(j) * ldc + row0 + ch
                       : c + static_cast<size_t>(row0 + ch) * ldc + j;
                if (accumulate)
                    *dst += v;
                else
                    *dst = v;
            }
        }
    }
}

#ifdef TWOINONE_X86_KERNELS

// ---------------------------------------------------------------------------
// AVX-512/VNNI tier. Function-level target attributes: the kernels
// compile (and runtime-dispatch correctly) even in builds without
// -march=native, e.g. the sanitizer CI jobs.
// ---------------------------------------------------------------------------

/** int8 x uint8 via vpdpbusd (non-saturating: byte products fit the
 * int16 intermediates, dword accumulation is exact). int32
 * accumulators — the caller guarantees qw * qa * k <= INT32_MAX. */
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) void
kernelVnniU8(const PackedIntWeights &w, int jlo, int jhi, const uint8_t *b,
             int ldb, int64_t *c, int ldc)
{
    const int full_g = w.k / 4;
    const int tail = w.k - full_g * 4;
    for (int t = 0; t < w.tiles; ++t) {
        const int8_t *wt =
            w.p8.data() + static_cast<size_t>(t) * w.groups8 * kPackTileM * 4;
        const int row0 = t * kPackTileM;
        const int rows = std::min(kPackTileM, w.m - row0);
        int j = jlo;
        for (; j + 4 <= jhi; j += 4) {
            const uint8_t *b0 = b + static_cast<size_t>(j) * ldb;
            const uint8_t *b1 = b0 + ldb;
            const uint8_t *b2 = b1 + ldb;
            const uint8_t *b3 = b2 + ldb;
            __m512i a0 = _mm512_setzero_si512();
            __m512i a1 = a0, a2 = a0, a3 = a0;
            const int8_t *wp = wt;
            for (int g = 0; g < full_g; ++g, wp += kPackTileM * 4) {
                __m512i wv = _mm512_loadu_si512(wp);
                uint32_t v0, v1, v2, v3;
                std::memcpy(&v0, b0 + g * 4, 4);
                std::memcpy(&v1, b1 + g * 4, 4);
                std::memcpy(&v2, b2 + g * 4, 4);
                std::memcpy(&v3, b3 + g * 4, 4);
                a0 = _mm512_dpbusd_epi32(
                    a0, _mm512_set1_epi32(static_cast<int>(v0)), wv);
                a1 = _mm512_dpbusd_epi32(
                    a1, _mm512_set1_epi32(static_cast<int>(v1)), wv);
                a2 = _mm512_dpbusd_epi32(
                    a2, _mm512_set1_epi32(static_cast<int>(v2)), wv);
                a3 = _mm512_dpbusd_epi32(
                    a3, _mm512_set1_epi32(static_cast<int>(v3)), wv);
            }
            if (tail) {
                __m512i wv = _mm512_loadu_si512(wp);
                a0 = _mm512_dpbusd_epi32(
                    a0,
                    _mm512_set1_epi32(static_cast<int>(
                        loadActWord8(b0 + full_g * 4, tail))),
                    wv);
                a1 = _mm512_dpbusd_epi32(
                    a1,
                    _mm512_set1_epi32(static_cast<int>(
                        loadActWord8(b1 + full_g * 4, tail))),
                    wv);
                a2 = _mm512_dpbusd_epi32(
                    a2,
                    _mm512_set1_epi32(static_cast<int>(
                        loadActWord8(b2 + full_g * 4, tail))),
                    wv);
                a3 = _mm512_dpbusd_epi32(
                    a3,
                    _mm512_set1_epi32(static_cast<int>(
                        loadActWord8(b3 + full_g * 4, tail))),
                    wv);
            }
            alignas(64) int32_t r0[16], r1[16], r2[16], r3[16];
            _mm512_store_si512(r0, a0);
            _mm512_store_si512(r1, a1);
            _mm512_store_si512(r2, a2);
            _mm512_store_si512(r3, a3);
            for (int ch = 0; ch < rows; ++ch) {
                int64_t *crow = c + static_cast<size_t>(row0 + ch) * ldc;
                crow[j] = r0[ch];
                crow[j + 1] = r1[ch];
                crow[j + 2] = r2[ch];
                crow[j + 3] = r3[ch];
            }
        }
        for (; j < jhi; ++j) {
            const uint8_t *bj = b + static_cast<size_t>(j) * ldb;
            __m512i acc = _mm512_setzero_si512();
            const int8_t *wp = wt;
            for (int g = 0; g < full_g; ++g, wp += kPackTileM * 4) {
                uint32_t v;
                std::memcpy(&v, bj + g * 4, 4);
                acc = _mm512_dpbusd_epi32(
                    acc, _mm512_set1_epi32(static_cast<int>(v)),
                    _mm512_loadu_si512(wp));
            }
            if (tail) {
                acc = _mm512_dpbusd_epi32(
                    acc,
                    _mm512_set1_epi32(static_cast<int>(
                        loadActWord8(bj + full_g * 4, tail))),
                    _mm512_loadu_si512(wp));
            }
            alignas(64) int32_t r[16];
            _mm512_store_si512(r, acc);
            for (int ch = 0; ch < rows; ++ch)
                c[static_cast<size_t>(row0 + ch) * ldc + j] = r[ch];
        }
    }
}

/** Widen-add an int32 accumulator into its two int64 halves and reset
 * it (the spill-window boundary). Free function, not a lambda: GCC
 * does not propagate the enclosing function's target attribute into
 * lambdas, which breaks non-march=native (sanitizer) builds. */
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) inline void
spillAcc512(__m512i &acc32, __m512i &lo64, __m512i &hi64)
{
    lo64 = _mm512_add_epi64(
        lo64, _mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc32)));
    hi64 = _mm512_add_epi64(
        hi64, _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(acc32, 1)));
    acc32 = _mm512_setzero_si512();
}

__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) inline void
storeCol512(const PackedIntWeights &w, int row0, int rows, int j,
            __m512i lo64, __m512i hi64, int64_t *c, int ldc, bool ct,
            bool biased, int shift, bool accumulate)
{
    alignas(64) int64_t res[kPackTileM];
    _mm512_store_si512(res, lo64);
    _mm512_store_si512(res + 8, hi64);
    storePackedCol(w, row0, rows, j, res, c, ldc, ct, biased, shift,
                   accumulate);
}

/** int16-packed kernel via vpdpwssd with windowed int32 -> int64
 * spills; serves the >= 12-bit conv path, the biased 16-bit
 * activation case and both wide-split Linear passes. Four columns in
 * flight in the main loop — a single vpdpwssd chain per column is
 * latency-bound, four independent chains keep the port busy. */
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) void
kernelVnniU16(const PackedIntWeights &w, int jlo, int jhi,
              const uint16_t *b, int ldb, int64_t *c, int ldc, bool ct,
              bool biased, int spill, int shift, bool accumulate)
{
    const int full_g = w.k / 2;
    const int tail = w.k - full_g * 2;
    const uint32_t bias_mask = biased ? 0x80008000u : 0u;
    for (int t = 0; t < w.tiles; ++t) {
        const int16_t *wt =
            w.p16.data() +
            static_cast<size_t>(t) * w.groups16 * kPackTileM * 2;
        const int row0 = t * kPackTileM;
        const int rows = std::min(kPackTileM, w.m - row0);
        int j = jlo;
        for (; j + 4 <= jhi; j += 4) {
            const uint16_t *b0 = b + static_cast<size_t>(j) * ldb;
            const uint16_t *b1 = b0 + ldb;
            const uint16_t *b2 = b1 + ldb;
            const uint16_t *b3 = b2 + ldb;
            const __m512i z = _mm512_setzero_si512();
            __m512i a0 = z, a1 = z, a2 = z, a3 = z;
            __m512i l0 = z, l1 = z, l2 = z, l3 = z;
            __m512i h0 = z, h1 = z, h2 = z, h3 = z;
            int since = 0;
            const int16_t *wp = wt;
            for (int g = 0; g < full_g; ++g, wp += kPackTileM * 2) {
                const __m512i wv = _mm512_loadu_si512(wp);
                uint32_t v0, v1, v2, v3;
                std::memcpy(&v0, b0 + g * 2, 4);
                std::memcpy(&v1, b1 + g * 2, 4);
                std::memcpy(&v2, b2 + g * 2, 4);
                std::memcpy(&v3, b3 + g * 2, 4);
                a0 = _mm512_dpwssd_epi32(
                    a0, wv,
                    _mm512_set1_epi32(static_cast<int>(v0 ^ bias_mask)));
                a1 = _mm512_dpwssd_epi32(
                    a1, wv,
                    _mm512_set1_epi32(static_cast<int>(v1 ^ bias_mask)));
                a2 = _mm512_dpwssd_epi32(
                    a2, wv,
                    _mm512_set1_epi32(static_cast<int>(v2 ^ bias_mask)));
                a3 = _mm512_dpwssd_epi32(
                    a3, wv,
                    _mm512_set1_epi32(static_cast<int>(v3 ^ bias_mask)));
                if (++since == spill) {
                    spillAcc512(a0, l0, h0);
                    spillAcc512(a1, l1, h1);
                    spillAcc512(a2, l2, h2);
                    spillAcc512(a3, l3, h3);
                    since = 0;
                }
            }
            if (tail) { // pad lane: act 0 x weight 0
                const __m512i wv = _mm512_loadu_si512(wp);
                a0 = _mm512_dpwssd_epi32(
                    a0, wv,
                    _mm512_set1_epi32(static_cast<int>(
                        static_cast<uint32_t>(b0[full_g * 2]) ^
                        bias_mask)));
                a1 = _mm512_dpwssd_epi32(
                    a1, wv,
                    _mm512_set1_epi32(static_cast<int>(
                        static_cast<uint32_t>(b1[full_g * 2]) ^
                        bias_mask)));
                a2 = _mm512_dpwssd_epi32(
                    a2, wv,
                    _mm512_set1_epi32(static_cast<int>(
                        static_cast<uint32_t>(b2[full_g * 2]) ^
                        bias_mask)));
                a3 = _mm512_dpwssd_epi32(
                    a3, wv,
                    _mm512_set1_epi32(static_cast<int>(
                        static_cast<uint32_t>(b3[full_g * 2]) ^
                        bias_mask)));
            }
            spillAcc512(a0, l0, h0);
            spillAcc512(a1, l1, h1);
            spillAcc512(a2, l2, h2);
            spillAcc512(a3, l3, h3);
            storeCol512(w, row0, rows, j, l0, h0, c, ldc, ct, biased,
                        shift, accumulate);
            storeCol512(w, row0, rows, j + 1, l1, h1, c, ldc, ct, biased,
                        shift, accumulate);
            storeCol512(w, row0, rows, j + 2, l2, h2, c, ldc, ct, biased,
                        shift, accumulate);
            storeCol512(w, row0, rows, j + 3, l3, h3, c, ldc, ct, biased,
                        shift, accumulate);
        }
        for (; j < jhi; ++j) {
            const uint16_t *bj = b + static_cast<size_t>(j) * ldb;
            __m512i acc32 = _mm512_setzero_si512();
            __m512i lo64 = _mm512_setzero_si512();
            __m512i hi64 = _mm512_setzero_si512();
            int since = 0;
            const int16_t *wp = wt;
            for (int g = 0; g < full_g; ++g, wp += kPackTileM * 2) {
                uint32_t aw;
                std::memcpy(&aw, bj + g * 2, 4);
                acc32 = _mm512_dpwssd_epi32(
                    acc32, _mm512_loadu_si512(wp),
                    _mm512_set1_epi32(static_cast<int>(aw ^ bias_mask)));
                if (++since == spill) {
                    spillAcc512(acc32, lo64, hi64);
                    since = 0;
                }
            }
            if (tail) {
                const uint32_t aw = bj[full_g * 2];
                acc32 = _mm512_dpwssd_epi32(
                    acc32, _mm512_loadu_si512(wp),
                    _mm512_set1_epi32(static_cast<int>(aw ^ bias_mask)));
            }
            spillAcc512(acc32, lo64, hi64);
            storeCol512(w, row0, rows, j, lo64, hi64, c, ldc, ct, biased,
                        shift, accumulate);
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 tier.
// ---------------------------------------------------------------------------

/** int8 x uint8 via maddubs + madd(ones). Only exact while the int16
 * pair sums cannot saturate: the caller dispatches here when
 * 2 * qw * qa <= 32767 (and falls back to the int16-packed kernel on
 * widened activations otherwise). int32 accumulators, caller-bounded. */
__attribute__((target("avx2"))) void
kernelAvx2U8(const PackedIntWeights &w, int jlo, int jhi, const uint8_t *b,
             int ldb, int64_t *c, int ldc)
{
    const __m256i ones = _mm256_set1_epi16(1);
    const int full_g = w.k / 4;
    const int tail = w.k - full_g * 4;
    for (int t = 0; t < w.tiles; ++t) {
        const int8_t *wt =
            w.p8.data() + static_cast<size_t>(t) * w.groups8 * kPackTileM * 4;
        const int row0 = t * kPackTileM;
        const int rows = std::min(kPackTileM, w.m - row0);
        for (int j = jlo; j < jhi; ++j) {
            const uint8_t *bj = b + static_cast<size_t>(j) * ldb;
            __m256i acca = _mm256_setzero_si256(); // channels 0..7
            __m256i accb = _mm256_setzero_si256(); // channels 8..15
            const int8_t *wp = wt;
            for (int g = 0; g < full_g; ++g, wp += kPackTileM * 4) {
                uint32_t v;
                std::memcpy(&v, bj + g * 4, 4);
                __m256i bc = _mm256_set1_epi32(static_cast<int>(v));
                __m256i wva = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(wp));
                __m256i wvb = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(wp + 32));
                acca = _mm256_add_epi32(
                    acca,
                    _mm256_madd_epi16(_mm256_maddubs_epi16(bc, wva), ones));
                accb = _mm256_add_epi32(
                    accb,
                    _mm256_madd_epi16(_mm256_maddubs_epi16(bc, wvb), ones));
            }
            if (tail) {
                __m256i bc = _mm256_set1_epi32(static_cast<int>(
                    loadActWord8(bj + full_g * 4, tail)));
                __m256i wva = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(wp));
                __m256i wvb = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(wp + 32));
                acca = _mm256_add_epi32(
                    acca,
                    _mm256_madd_epi16(_mm256_maddubs_epi16(bc, wva), ones));
                accb = _mm256_add_epi32(
                    accb,
                    _mm256_madd_epi16(_mm256_maddubs_epi16(bc, wvb), ones));
            }
            alignas(32) int32_t ra[8], rb[8];
            _mm256_store_si256(reinterpret_cast<__m256i *>(ra), acca);
            _mm256_store_si256(reinterpret_cast<__m256i *>(rb), accb);
            for (int ch = 0; ch < rows; ++ch)
                c[static_cast<size_t>(row0 + ch) * ldc + j] =
                    ch < 8 ? ra[ch] : rb[ch - 8];
        }
    }
}

/** int8 activations through the int16-packed weights (the
 * maddubs-unsafe combos, e.g. 8w x 8a): widen two uint8 activations
 * into the madd act word. int32 accumulators, caller-bounded. */
__attribute__((target("avx2"))) void
kernelAvx2U8ViaI16(const PackedIntWeights &w, int jlo, int jhi,
                   const uint8_t *b, int ldb, int64_t *c, int ldc)
{
    const int full_g = w.k / 2;
    const int tail = w.k - full_g * 2;
    for (int t = 0; t < w.tiles; ++t) {
        const int16_t *wt =
            w.p16.data() +
            static_cast<size_t>(t) * w.groups16 * kPackTileM * 2;
        const int row0 = t * kPackTileM;
        const int rows = std::min(kPackTileM, w.m - row0);
        for (int j = jlo; j < jhi; ++j) {
            const uint8_t *bj = b + static_cast<size_t>(j) * ldb;
            __m256i acca = _mm256_setzero_si256();
            __m256i accb = _mm256_setzero_si256();
            const int16_t *wp = wt;
            for (int g = 0; g < full_g; ++g, wp += kPackTileM * 2) {
                uint32_t aw = static_cast<uint32_t>(bj[g * 2]) |
                              (static_cast<uint32_t>(bj[g * 2 + 1]) << 16);
                __m256i bc = _mm256_set1_epi32(static_cast<int>(aw));
                acca = _mm256_add_epi32(
                    acca, _mm256_madd_epi16(
                              _mm256_loadu_si256(
                                  reinterpret_cast<const __m256i *>(wp)),
                              bc));
                accb = _mm256_add_epi32(
                    accb,
                    _mm256_madd_epi16(
                        _mm256_loadu_si256(
                            reinterpret_cast<const __m256i *>(wp + 16)),
                        bc));
            }
            if (tail) {
                __m256i bc = _mm256_set1_epi32(
                    static_cast<int>(bj[full_g * 2]));
                acca = _mm256_add_epi32(
                    acca, _mm256_madd_epi16(
                              _mm256_loadu_si256(
                                  reinterpret_cast<const __m256i *>(wp)),
                              bc));
                accb = _mm256_add_epi32(
                    accb,
                    _mm256_madd_epi16(
                        _mm256_loadu_si256(
                            reinterpret_cast<const __m256i *>(wp + 16)),
                        bc));
            }
            alignas(32) int32_t ra[8], rb[8];
            _mm256_store_si256(reinterpret_cast<__m256i *>(ra), acca);
            _mm256_store_si256(reinterpret_cast<__m256i *>(rb), accb);
            for (int ch = 0; ch < rows; ++ch)
                c[static_cast<size_t>(row0 + ch) * ldc + j] =
                    ch < 8 ? ra[ch] : rb[ch - 8];
        }
    }
}

/** AVX2 spill: widen-add the two int32 accumulators (channels 0..7
 * and 8..15) into four int64 quarters and reset them. Free function
 * for the same target-attribute-vs-lambda reason as spillAcc512. */
__attribute__((target("avx2"))) inline void
spillAcc256(__m256i &acc32a, __m256i &acc32b, __m256i acc64[4])
{
    acc64[0] = _mm256_add_epi64(
        acc64[0], _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc32a)));
    acc64[1] = _mm256_add_epi64(
        acc64[1],
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc32a, 1)));
    acc64[2] = _mm256_add_epi64(
        acc64[2], _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc32b)));
    acc64[3] = _mm256_add_epi64(
        acc64[3],
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc32b, 1)));
    acc32a = _mm256_setzero_si256();
    acc32b = _mm256_setzero_si256();
}

/** AVX2 counterpart of kernelVnniU16 (madd + add, windowed spills). */
__attribute__((target("avx2"))) void
kernelAvx2U16(const PackedIntWeights &w, int jlo, int jhi,
              const uint16_t *b, int ldb, int64_t *c, int ldc, bool ct,
              bool biased, int spill, int shift, bool accumulate)
{
    const int full_g = w.k / 2;
    const int tail = w.k - full_g * 2;
    const uint32_t bias_mask = biased ? 0x80008000u : 0u;
    for (int t = 0; t < w.tiles; ++t) {
        const int16_t *wt =
            w.p16.data() +
            static_cast<size_t>(t) * w.groups16 * kPackTileM * 2;
        const int row0 = t * kPackTileM;
        const int rows = std::min(kPackTileM, w.m - row0);
        for (int j = jlo; j < jhi; ++j) {
            const uint16_t *bj = b + static_cast<size_t>(j) * ldb;
            __m256i acc32a = _mm256_setzero_si256(); // channels 0..7
            __m256i acc32b = _mm256_setzero_si256(); // channels 8..15
            __m256i acc64[4] = {
                _mm256_setzero_si256(), _mm256_setzero_si256(),
                _mm256_setzero_si256(), _mm256_setzero_si256()};
            int since = 0;
            const int16_t *wp = wt;
            for (int g = 0; g < full_g; ++g, wp += kPackTileM * 2) {
                uint32_t aw;
                std::memcpy(&aw, bj + g * 2, 4);
                __m256i bc =
                    _mm256_set1_epi32(static_cast<int>(aw ^ bias_mask));
                acc32a = _mm256_add_epi32(
                    acc32a, _mm256_madd_epi16(
                                _mm256_loadu_si256(
                                    reinterpret_cast<const __m256i *>(wp)),
                                bc));
                acc32b = _mm256_add_epi32(
                    acc32b,
                    _mm256_madd_epi16(
                        _mm256_loadu_si256(
                            reinterpret_cast<const __m256i *>(wp + 16)),
                        bc));
                if (++since == spill) {
                    spillAcc256(acc32a, acc32b, acc64);
                    since = 0;
                }
            }
            if (tail) {
                const uint32_t aw = bj[full_g * 2];
                __m256i bc =
                    _mm256_set1_epi32(static_cast<int>(aw ^ bias_mask));
                acc32a = _mm256_add_epi32(
                    acc32a, _mm256_madd_epi16(
                                _mm256_loadu_si256(
                                    reinterpret_cast<const __m256i *>(wp)),
                                bc));
                acc32b = _mm256_add_epi32(
                    acc32b,
                    _mm256_madd_epi16(
                        _mm256_loadu_si256(
                            reinterpret_cast<const __m256i *>(wp + 16)),
                        bc));
            }
            spillAcc256(acc32a, acc32b, acc64);
            alignas(32) int64_t res[16];
            _mm256_store_si256(reinterpret_cast<__m256i *>(res), acc64[0]);
            _mm256_store_si256(reinterpret_cast<__m256i *>(res + 4),
                               acc64[1]);
            _mm256_store_si256(reinterpret_cast<__m256i *>(res + 8),
                               acc64[2]);
            _mm256_store_si256(reinterpret_cast<__m256i *>(res + 12),
                               acc64[3]);
            storePackedCol(w, row0, rows, j, res, c, ldc, ct, biased,
                           shift, accumulate);
        }
    }
}

#endif // TWOINONE_X86_KERNELS

/** Shared int16-path dispatch: the u16 public entry (ct = false) and
 * both wide-split passes (ct = true) funnel here. */
void
runPackedU16(const PackedIntWeights &w, int n, const uint16_t *b, int ldb,
             int64_t *c, int ldc, bool ct, bool biased, int spill,
             int shift, bool accumulate)
{
    if (n <= 0 || w.m <= 0)
        return;
    const IsaTier tier = dispatchTier();
    ops::gatedParallelFor(
        n, columnGrain(w.m, w.k), [&](int64_t lo, int64_t hi) {
            const int jlo = static_cast<int>(lo);
            const int jhi = static_cast<int>(hi);
#ifdef TWOINONE_X86_KERNELS
            if (tier == IsaTier::Avx512Vnni) {
                kernelVnniU16(w, jlo, jhi, b, ldb, c, ldc, ct, biased,
                              spill, shift, accumulate);
                return;
            }
            if (tier == IsaTier::Avx2) {
                kernelAvx2U16(w, jlo, jhi, b, ldb, c, ldc, ct, biased,
                              spill, shift, accumulate);
                return;
            }
#endif
            kernelScalarU16(w, jlo, jhi, b, ldb, c, ldc, ct, shift,
                            accumulate);
        });
}

/** int32 spill window: how many int16 madd group results (each
 * bounded by 2 * qw * qa_eff) accumulate before widening to int64. */
inline int
spillWindow(int64_t qw, int64_t qa_eff)
{
    int64_t bound = 2 * qw * std::max<int64_t>(1, qa_eff);
    return static_cast<int>(std::max<int64_t>(
        1, std::numeric_limits<int32_t>::max() / bound));
}

} // namespace

IsaTier
detectedIsaTier()
{
    return isaSlot().detected;
}

IsaTier
activeIsaTier()
{
    return isaSlot().active;
}

void
setActiveIsaTier(IsaTier t)
{
    isaSlot().active = std::min(t, isaSlot().detected);
}

const char *
isaTierName(IsaTier t)
{
    switch (t) {
    case IsaTier::Avx512Vnni:
        return "avx512vnni";
    case IsaTier::Avx2:
        return "avx2";
    default:
        return "scalar";
    }
}

void
packWeights(const int32_t *codes, int m, int k, int w_bits,
            PackedIntWeights &out, int taps)
{
    TWOINONE_ASSERT(m >= 0 && k >= 0 && w_bits >= 1 && w_bits <= 16,
                    "packWeights needs codes of 1..16 bits");
    TWOINONE_ASSERT(taps >= 1 && k % taps == 0, "packWeights: k=", k,
                    " is not a whole number of ", taps, " taps");
    const int chans = k / taps;
    out.m = m;
    out.k = k;
    out.bits = w_bits;
    out.taps = taps;
    out.tiles = (m + kPackTileM - 1) / kPackTileM;
    out.groups8 = w_bits <= 8 ? (k + 3) / 4 : 0;
    out.groups16 = (k + 1) / 2;
    out.rowSum.assign(static_cast<size_t>(out.tiles) * kPackTileM, 0);
    out.p8.assign(static_cast<size_t>(out.tiles) * out.groups8 *
                      kPackTileM * 4,
                  0);
    out.p16.assign(static_cast<size_t>(out.tiles) * out.groups16 *
                       kPackTileM * 2,
                   0);
    for (int row = 0; row < m; ++row) {
        const int t = row / kPackTileM;
        const int ch = row % kPackTileM;
        const int32_t *src = codes + static_cast<size_t>(row) * k;
        int64_t sum = 0;
        for (int p = 0; p < k; ++p) {
            // Reduction index p = tap * chans + ci reads source code
            // ci * taps + tap (the identity at taps == 1).
            const int32_t v = src[(p % chans) * taps + p / chans];
            sum += v;
            if (!out.p8.empty())
                out.p8[(static_cast<size_t>(t) * out.groups8 + p / 4) *
                           (kPackTileM * 4) +
                       ch * 4 + p % 4] = static_cast<int8_t>(v);
            out.p16[(static_cast<size_t>(t) * out.groups16 + p / 2) *
                        (kPackTileM * 2) +
                    ch * 2 + p % 2] = static_cast<int16_t>(v);
        }
        out.rowSum[static_cast<size_t>(t) * kPackTileM + ch] = sum;
    }
}

void
igemmPackedTransB(const PackedIntWeights &w, int n, const uint8_t *b,
                  int ldb, int64_t *c, int ldc, int a_bits)
{
    TWOINONE_ASSERT(!w.empty(), "packed igemm on empty weights");
    TWOINONE_ASSERT(w.bits <= 8 && a_bits >= 1 && a_bits <= 8,
                    "packed int8 igemm needs codes of <= 8 bits");
    if (n <= 0 || w.m <= 0)
        return;
    const int64_t qw = signedQmaxOf(w.bits);
    const int64_t qa = (int64_t{1} << a_bits) - 1;
    const bool fits32 =
        qw * qa * w.k <= std::numeric_limits<int32_t>::max();
    const IsaTier tier = dispatchTier();
    const bool maddubs_safe = 2 * qw * qa <= 32767;
    ops::gatedParallelFor(
        n, columnGrain(w.m, w.k), [&](int64_t lo, int64_t hi) {
            const int jlo = static_cast<int>(lo);
            const int jhi = static_cast<int>(hi);
#ifdef TWOINONE_X86_KERNELS
            if (fits32 && tier == IsaTier::Avx512Vnni) {
                kernelVnniU8(w, jlo, jhi, b, ldb, c, ldc);
                return;
            }
            if (fits32 && tier == IsaTier::Avx2) {
                if (maddubs_safe)
                    kernelAvx2U8(w, jlo, jhi, b, ldb, c, ldc);
                else
                    kernelAvx2U8ViaI16(w, jlo, jhi, b, ldb, c, ldc);
                return;
            }
#else
            (void)fits32;
            (void)maddubs_safe;
            (void)tier;
#endif
            kernelScalarU8(w, jlo, jhi, b, ldb, c, ldc);
        });
}

void
igemmPackedTransB(const PackedIntWeights &w, int n, const uint16_t *b,
                  int ldb, int64_t *c, int ldc, int a_bits)
{
    TWOINONE_ASSERT(!w.empty(), "packed igemm on empty weights");
    TWOINONE_ASSERT(w.bits <= 16 && a_bits >= 1 && a_bits <= 16,
                    "packed int16 igemm needs codes of <= 16 bits");
    // 16-bit activations exceed the int16 madd lanes: bias them on the
    // fly (a - 32768 fits) and add 32768 * rowSum back at the store.
    const bool biased = a_bits == 16;
    const int64_t qa_eff =
        biased ? 32768 : (int64_t{1} << a_bits) - 1;
    runPackedU16(w, n, b, ldb, c, ldc, /*ct=*/false, biased,
                 spillWindow(signedQmaxOf(w.bits), qa_eff), /*shift=*/0,
                 /*accumulate=*/false);
}

void
igemmPackedWideTransA(const PackedIntWeights &w, int n, const int32_t *a,
                      int lda, int64_t *c, int ldc, int a_bits,
                      std::vector<uint16_t> &stage)
{
    TWOINONE_ASSERT(!w.empty(), "packed igemm on empty weights");
    TWOINONE_ASSERT(w.bits <= 16 && a_bits >= 1 && a_bits <= 30,
                    "packed wide igemm needs unsigned codes of <= 30 bits");
    if (n <= 0 || w.m <= 0)
        return;
    const bool two = a_bits > 15;
    const size_t nk = static_cast<size_t>(n) * w.k;
    stage.resize(two ? 2 * nk : nk);
    uint16_t *lo = stage.data();
    uint16_t *hi = two ? lo + nk : nullptr;
    ops::gatedParallelFor(
        n, std::max<int64_t>(1, (int64_t{1} << 15) /
                                    std::max(1, w.k)),
        [&](int64_t r0, int64_t r1) {
            for (int64_t r = r0; r < r1; ++r) {
                const int32_t *ar = a + static_cast<size_t>(r) * lda;
                uint16_t *lr = lo + static_cast<size_t>(r) * w.k;
                if (two) {
                    uint16_t *hr = hi + static_cast<size_t>(r) * w.k;
                    for (int p = 0; p < w.k; ++p) {
                        const uint32_t v = static_cast<uint32_t>(ar[p]);
                        lr[p] = static_cast<uint16_t>(v & 0x7fff);
                        hr[p] = static_cast<uint16_t>(v >> 15);
                    }
                } else {
                    for (int p = 0; p < w.k; ++p)
                        lr[p] = static_cast<uint16_t>(ar[p]);
                }
            }
        });
    const int64_t qw = signedQmaxOf(w.bits);
    const int64_t qa = (int64_t{1} << a_bits) - 1;
    const int64_t qa_lo = std::min<int64_t>(qa, 0x7fff);
    runPackedU16(w, n, lo, w.k, c, ldc, /*ct=*/true, /*biased=*/false,
                 spillWindow(qw, qa_lo), /*shift=*/0,
                 /*accumulate=*/false);
    if (two) {
        const int64_t qa_hi = qa >> 15;
        runPackedU16(w, n, hi, w.k, c, ldc, /*ct=*/true, /*biased=*/false,
                     spillWindow(qw, qa_hi), /*shift=*/15,
                     /*accumulate=*/true);
    }
}

} // namespace gemm
} // namespace twoinone
