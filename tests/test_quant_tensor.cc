/**
 * @file
 * Tests for the int-code-first quantized execution path: QuantTensor
 * as the canonical representation (bit-identity with the float
 * fake-quant view), the integer GEMM kernels, activation-range
 * calibration (static-scale == dynamic when ranges match; determinism
 * across thread counts), the integer forward path's golden tolerance
 * against the float fake-quant forward, and exact bit-identity of the
 * codes the integer forward consumes with the bit-serial array
 * simulator's inputs and outputs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "accel/array_sim.hh"
#include "common/thread_pool.hh"
#include "nn/activation.hh"
#include "nn/conv2d.hh"
#include "nn/linear.hh"
#include "nn/model_zoo.hh"
#include "quant/calibration.hh"
#include "quant/rps_engine.hh"
#include "tensor/gemm.hh"
#include "tensor/ops.hh"

namespace twoinone {
namespace {

Network
makeTinyNet(uint64_t seed, PrecisionSet set = PrecisionSet::rps4to16())
{
    Rng rng(seed);
    ModelConfig cfg;
    cfg.baseWidth = 4;
    cfg.precisions = std::move(set);
    return convNetTiny(cfg, rng);
}

Tensor
makeInput(uint64_t seed, int batch = 4)
{
    Rng rng(seed);
    return Tensor::uniform({batch, 3, 8, 8}, rng, 0.0f, 1.0f);
}

// ---------------------------------------------------------------------------
// QuantTensor <-> fake-quant bit-identity
// ---------------------------------------------------------------------------

TEST(QuantTensor, SymmetricMatchesFakeQuantBitExactly)
{
    Rng rng(11);
    Tensor x = Tensor::randn({64, 7}, rng);
    for (int bits : {2, 4, 5, 8, 12, 16}) {
        QuantResult ref = LinearQuantizer::fakeQuantSymmetric(x, bits);
        QuantTensor q = QuantTensor::quantizeSymmetric(x, bits);
        const float fq = static_cast<float>(q.qmax());

        EXPECT_EQ(q.bits, bits);
        EXPECT_EQ(q.scale, ref.scale) << "bits=" << bits;
        Tensor dq = q.dequantize();
        ASSERT_EQ(dq.size(), ref.values.size());
        for (size_t i = 0; i < dq.size(); ++i) {
            ASSERT_EQ(dq[i], ref.values[i]) << "bits=" << bits;
            // The mask the layers derive from the codes' grid.
            ASSERT_EQ(steMaskSigned(x[i], q.scale, fq), ref.steMask[i])
                << "bits=" << bits;
        }
        // Codes match the long-standing int-code helper.
        float scale = 0.0f;
        std::vector<int32_t> codes =
            LinearQuantizer::quantizeToIntSymmetric(x, bits, &scale);
        EXPECT_EQ(q.codes, codes);
        EXPECT_EQ(q.scale, scale);
    }
}

TEST(QuantTensor, UnsignedStaticMatchesDynamicAtObservedRange)
{
    Rng rng(12);
    Tensor x = Tensor::uniform({32, 9}, rng, -0.2f, 3.0f);
    for (int bits : {2, 4, 8}) {
        QuantResult dyn = LinearQuantizer::fakeQuantUnsigned(x, bits);
        float max_v = ops::maxVal(x);
        QuantResult stat =
            LinearQuantizer::fakeQuantUnsignedStatic(x, bits, max_v);
        Tensor mask;
        QuantTensor q =
            QuantTensor::quantizeUnsigned(x, bits, max_v, &mask);
        EXPECT_EQ(stat.scale, dyn.scale);
        EXPECT_EQ(q.scale, dyn.scale);
        Tensor dq = q.dequantize();
        for (size_t i = 0; i < x.size(); ++i) {
            ASSERT_EQ(stat.values[i], dyn.values[i]) << "bits=" << bits;
            ASSERT_EQ(stat.steMask[i], dyn.steMask[i]);
            ASSERT_EQ(dq[i], dyn.values[i]) << "bits=" << bits;
            ASSERT_EQ(mask[i], dyn.steMask[i]);
        }
    }
}

TEST(QuantTensor, ZeroTensorQuantizesToZeroScale)
{
    Tensor x = Tensor::zeros({4, 4});
    QuantTensor q = QuantTensor::quantizeSymmetric(x, 8);
    EXPECT_EQ(q.scale, 0.0f);
    Tensor dq = q.dequantize();
    for (size_t i = 0; i < dq.size(); ++i)
        EXPECT_EQ(dq[i], 0.0f);
}

// ---------------------------------------------------------------------------
// Integer GEMM kernels
// ---------------------------------------------------------------------------

TEST(IGemm, MatchesReferenceAcrossWidths)
{
    Rng rng(13);
    const int m = 9, n = 17, k = 33;
    for (int bits : {4, 8, 12, 16}) {
        int qw = (1 << (bits - 1)) - 1;
        int qa = (1 << bits) - 1;
        std::vector<int32_t> a(static_cast<size_t>(m) * k);
        std::vector<int32_t> b(static_cast<size_t>(n) * k);
        for (auto &v : a)
            v = rng.uniformInt(-qw, qw);
        for (auto &v : b)
            v = rng.uniformInt(0, qa);

        std::vector<int64_t> ref(static_cast<size_t>(m) * n, 0);
        for (int i = 0; i < m; ++i)
            for (int j = 0; j < n; ++j) {
                int64_t acc = 0;
                for (int p = 0; p < k; ++p)
                    acc += static_cast<int64_t>(
                               a[static_cast<size_t>(i) * k + p]) *
                           b[static_cast<size_t>(j) * k + p];
                ref[static_cast<size_t>(i) * n + j] = acc;
            }

        std::vector<int64_t> c(static_cast<size_t>(m) * n, -1);
        if (bits <= 8) {
            std::vector<int8_t> a8(a.begin(), a.end());
            std::vector<uint8_t> b8(b.begin(), b.end());
            gemm::igemmTransB(m, n, k, a8.data(), k, b8.data(), k,
                              c.data(), n, bits, bits);
            EXPECT_EQ(c, ref) << "int8 path bits=" << bits;
        }
        std::vector<int16_t> a16(a.begin(), a.end());
        std::vector<uint16_t> b16(b.begin(), b.end());
        std::fill(c.begin(), c.end(), -1);
        gemm::igemmTransB(m, n, k, a16.data(), k, b16.data(), k, c.data(),
                          n, bits, bits);
        EXPECT_EQ(c, ref) << "int16 path bits=" << bits;

        std::fill(c.begin(), c.end(), -1);
        gemm::igemmTransB(m, n, k, a.data(), k, b.data(), k, c.data(), n);
        EXPECT_EQ(c, ref) << "int32 path bits=" << bits;
    }
}

TEST(IGemm, ParallelMatchesSerialBitExactly)
{
    Rng rng(14);
    const int m = 64, n = 48, k = 96; // large enough to chunk rows
    std::vector<int16_t> a(static_cast<size_t>(m) * k);
    std::vector<uint16_t> b(static_cast<size_t>(n) * k);
    for (auto &v : a)
        v = static_cast<int16_t>(rng.uniformInt(-32767, 32767));
    for (auto &v : b)
        v = static_cast<uint16_t>(rng.uniformInt(0, 65535));

    std::vector<int64_t> serial(static_cast<size_t>(m) * n);
    {
        ThreadPool::ScopedSerial guard;
        gemm::igemmTransB(m, n, k, a.data(), k, b.data(), k,
                          serial.data(), n, 16, 16);
    }
    std::vector<int64_t> parallel(static_cast<size_t>(m) * n);
    gemm::igemmTransB(m, n, k, a.data(), k, b.data(), k, parallel.data(),
                      n, 16, 16);
    EXPECT_EQ(serial, parallel);
}

// ---------------------------------------------------------------------------
// Small-GEMM light parallel path (ISSUE 3 satellite)
// ---------------------------------------------------------------------------

TEST(SmallGemm, LightParallelPathBitIdenticalToSerialNaive)
{
    Rng rng(15);
    // Below the blocked path's packing cutoff (m*n*k <= 16K).
    const int m = 16, n = 32, k = 24;
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    Tensor bias = Tensor::randn({m}, rng);

    for (bool trans_a : {false, true}) {
        for (bool trans_b : {false, true}) {
            // Operands are reinterpreted per trans flag; square-ish
            // dims keep every variant in bounds.
            Tensor aa = Tensor::randn({trans_a ? k : m, trans_a ? m : k},
                                      rng);
            Tensor bb = Tensor::randn({trans_b ? n : k, trans_b ? k : n},
                                      rng);
            int lda = aa.dim(1), ldb = bb.dim(1);

            Tensor c_serial({m, n});
            {
                ThreadPool::ScopedSerial guard;
                gemm::sgemm(gemm::Backend::Blocked, trans_a, trans_b, m,
                            n, k, aa.data(), lda, bb.data(), ldb,
                            c_serial.data(), n, false, bias.data());
            }
            Tensor c_parallel({m, n});
            gemm::sgemm(gemm::Backend::Blocked, trans_a, trans_b, m, n,
                        k, aa.data(), lda, bb.data(), ldb,
                        c_parallel.data(), n, false, bias.data());
            Tensor c_naive({m, n});
            gemm::sgemm(gemm::Backend::Naive, trans_a, trans_b, m, n, k,
                        aa.data(), lda, bb.data(), ldb, c_naive.data(),
                        n, false, bias.data());
            for (size_t i = 0; i < c_serial.size(); ++i) {
                ASSERT_EQ(c_serial[i], c_parallel[i])
                    << "ta=" << trans_a << " tb=" << trans_b;
                ASSERT_EQ(c_serial[i], c_naive[i])
                    << "ta=" << trans_a << " tb=" << trans_b;
            }
        }
    }
}

TEST(SmallGemm, PathQueryIsConsistent)
{
    // Big products never take the small path.
    EXPECT_FALSE(gemm::smallGemmRunsParallel(256, 256, 256));
    if (ThreadPool::global().threads() > 1 &&
        gemm::activeBackend() == gemm::Backend::Blocked) {
        // A sub-cutoff product with enough rows dispatches parallel.
        EXPECT_TRUE(gemm::smallGemmRunsParallel(16, 32, 24));
    } else {
        EXPECT_FALSE(gemm::smallGemmRunsParallel(16, 32, 24));
    }
}

// ---------------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------------

/** When the recorded ranges equal the observed ones (calibrate on the
 * same batch), the static-scale forward is bit-identical to the
 * dynamic fake-quant forward. */
TEST(Calibration, StaticScaleBitIdenticalWhenRangesMatch)
{
    Network net = makeTinyNet(21);
    Tensor x = makeInput(22);

    // Dynamic reference, before any calibration.
    std::vector<Tensor> refs;
    for (int bits : net.precisionSet().bits()) {
        net.setPrecision(bits);
        refs.push_back(net.forward(x, false));
    }

    Calibrator cal(net);
    cal.calibrate({x});
    ASSERT_TRUE(cal.calibrated());

    const std::vector<int> &bits = net.precisionSet().bits();
    for (size_t i = 0; i < bits.size(); ++i) {
        net.setPrecision(bits[i]);
        Tensor y = net.forward(x, false);
        ASSERT_EQ(y.shape(), refs[i].shape());
        for (size_t t = 0; t < y.size(); ++t)
            ASSERT_EQ(y[t], refs[i][t]) << "bits=" << bits[i];
    }

    // Disabling static mode restores the dynamic path (trivially
    // identical here, but must not crash or change results).
    cal.setStaticScale(false);
    net.setPrecision(bits[0]);
    Tensor y = net.forward(x, false);
    for (size_t t = 0; t < y.size(); ++t)
        ASSERT_EQ(y[t], refs[0][t]);
}

/** Recorded ranges and post-calibration forwards are bit-identical
 * for any thread count. */
TEST(Calibration, DeterministicAcrossThreadCounts)
{
    Tensor x = makeInput(23);

    Network net_serial = makeTinyNet(24);
    Network net_parallel = makeTinyNet(24);

    std::vector<Tensor> serial_out;
    std::vector<std::vector<float>> serial_ranges;
    {
        ThreadPool::ScopedSerial guard;
        Calibrator cal(net_serial);
        cal.calibrate({x});
        for (ActQuant *a : cal.quantizers())
            serial_ranges.push_back(a->calibrationMax());
        for (int bits : net_serial.precisionSet().bits()) {
            net_serial.setPrecision(bits);
            serial_out.push_back(net_serial.forward(x, false));
        }
    }

    Calibrator cal(net_parallel);
    cal.calibrate({x});
    std::vector<std::vector<float>> parallel_ranges;
    for (ActQuant *a : cal.quantizers())
        parallel_ranges.push_back(a->calibrationMax());
    EXPECT_EQ(serial_ranges, parallel_ranges);

    const std::vector<int> &bits = net_parallel.precisionSet().bits();
    for (size_t i = 0; i < bits.size(); ++i) {
        net_parallel.setPrecision(bits[i]);
        Tensor y = net_parallel.forward(x, false);
        for (size_t t = 0; t < y.size(); ++t)
            ASSERT_EQ(y[t], serial_out[i][t]) << "bits=" << bits[i];
    }
}

// ---------------------------------------------------------------------------
// Integer forward path
// ---------------------------------------------------------------------------


/**
 * The documented tolerance contract of the integer forward: the int
 * path re-associates each reduction in exact integer arithmetic while
 * the float path rounds per float-FMA, so values landing on an
 * activation-grid rounding boundary can snap to adjacent codes
 * (coarse grids feel this most, and the two float GEMM backends
 * round differently too). Bounded as max |diff| <= 5% of the logit
 * range and relative L2 <= 5%.
 */
void
expectWithinQuantTolerance(const Tensor &y_int, const Tensor &y_float,
                           int bits)
{
    ASSERT_EQ(y_int.shape(), y_float.shape());
    float max_abs = ops::maxAbs(y_float);
    double l2_diff = 0.0, l2_ref = 0.0;
    float max_diff = 0.0f;
    for (size_t i = 0; i < y_float.size(); ++i) {
        float d = y_int[i] - y_float[i];
        max_diff = std::max(max_diff, std::fabs(d));
        l2_diff += static_cast<double>(d) * d;
        l2_ref += static_cast<double>(y_float[i]) * y_float[i];
    }
    EXPECT_LE(max_diff, 0.05f * (1.0f + max_abs)) << "bits=" << bits;
    EXPECT_LE(std::sqrt(l2_diff), 0.05 * (std::sqrt(l2_ref) + 1e-6))
        << "bits=" << bits;
}

/** forwardQuantized matches the float fake-quant forward within the
 * documented rounding tolerance at every candidate precision. */
TEST(ForwardQuantized, MatchesFloatForwardWithinTolerance)
{
    Network net = makeTinyNet(31);
    Tensor x = makeInput(32);
    Calibrator cal(net);
    cal.calibrate({x});
    RpsEngine engine(net);

    for (int bits : net.precisionSet().bits()) {
        Tensor y_float = engine.forwardAt(bits, x);
        Tensor y_int = engine.forwardQuantizedAt(bits, x);
        expectWithinQuantTolerance(y_int, y_float, bits);
    }
}

/** Same check on the residual model (covers PreActBlock's quantized
 * routing and the projection shortcut). */
TEST(ForwardQuantized, ResidualModelWithinTolerance)
{
    Rng rng(33);
    ModelConfig cfg;
    cfg.baseWidth = 8;
    Network net = preActResNetMini(cfg, rng);
    Tensor x = makeInput(34);
    Calibrator cal(net);
    cal.calibrate({x});
    RpsEngine engine(net);

    for (int bits : net.precisionSet().bits()) {
        Tensor y_float = engine.forwardAt(bits, x);
        Tensor y_int = engine.forwardQuantizedAt(bits, x);
        expectWithinQuantTolerance(y_int, y_float, bits);
    }
}

/** Without calibration the integer path still runs (dynamic ranges),
 * staying within the same tolerance. */
TEST(ForwardQuantized, DynamicRangeFallback)
{
    Network net = makeTinyNet(35);
    Tensor x = makeInput(36);
    RpsEngine engine(net);

    Tensor y_float = engine.forwardAt(8, x);
    Tensor y_int = engine.forwardQuantizedAt(8, x);
    expectWithinQuantTolerance(y_int, y_float, 8);
}

/** Full precision passes through the float path unchanged. */
TEST(ForwardQuantized, FullPrecisionBitIdentical)
{
    Network net = makeTinyNet(37);
    Tensor x = makeInput(38);
    net.setPrecision(0);
    Tensor y_ref = net.forward(x, false);
    Tensor y_q = net.forwardQuantized(x);
    for (size_t i = 0; i < y_ref.size(); ++i)
        ASSERT_EQ(y_ref[i], y_q[i]);
}

// ---------------------------------------------------------------------------
// Bit-identity with the bit-serial array simulator
// ---------------------------------------------------------------------------

/** Cross-check one traced conv layer against the bit-serial MAC
 * array: its weight codes must be the engine's cached ones, and the
 * array fed the same canonical codes must reproduce the integer
 * accumulators exactly, image by image. */
void
expectConvMatchesBitSerial(RpsEngine &engine, Conv2d *conv,
                           size_t wq_index, int bits,
                           MacArraySimulator &sim)
{
    // (a) The weight codes the conv consumed ARE the cached ones.
    const QuantTensor &cached = engine.codesFor(wq_index, bits);
    const QuantTensor &used = conv->tracedWeightCodes();
    ASSERT_EQ(used.bits, bits);
    ASSERT_EQ(used.codes, cached.codes) << "bits=" << bits;
    ASSERT_EQ(used.scale, cached.scale);

    // (b) The bit-serial array, fed the same canonical codes,
    // reproduces the integer accumulators bit-exactly.
    const QuantTensor &acts = conv->tracedActCodes();
    ASSERT_EQ(acts.shape.size(), 4u);
    int n = acts.shape[0], c = acts.shape[1], h = acts.shape[2],
        w = acts.shape[3];
    int oh = conv->outSize(h), ow = conv->outSize(w);
    size_t img = static_cast<size_t>(c) * h * w;
    size_t out_img = static_cast<size_t>(conv->outChannels()) * oh * ow;
    const std::vector<int64_t> &acc = conv->tracedAccumulators();
    ASSERT_EQ(acc.size(), out_img * static_cast<size_t>(n));

    for (int ni = 0; ni < n; ++ni) {
        QuantTensor slice;
        slice.shape = {c, h, w};
        slice.codes.assign(acts.codes.begin() + ni * img,
                           acts.codes.begin() + (ni + 1) * img);
        slice.scale = acts.scale;
        slice.bits = acts.bits;
        slice.isSigned = acts.isSigned;

        ArraySimResult r =
            sim.runConv(used, slice, conv->stride(), conv->padding());
        ASSERT_EQ(r.output.size(), out_img);
        for (size_t i = 0; i < out_img; ++i) {
            ASSERT_EQ(r.output.data[i], acc[ni * out_img + i])
                << "bits=" << bits << " image=" << ni << " i=" << i;
        }
    }
}

/** Plain gemm::igemmTransB over one traced conv's codes (int im2col
 * per image) reproduces its integer accumulators exactly — the
 * independent oracle of the packed kernels the network runs. */
void
expectConvMatchesIgemm(Conv2d *conv, int bits)
{
    const QuantTensor &wq = conv->tracedWeightCodes();
    const QuantTensor &acts = conv->tracedActCodes();
    ASSERT_EQ(acts.shape.size(), 4u) << "bits=" << bits;
    int n = acts.shape[0], c = acts.shape[1], h = acts.shape[2],
        w = acts.shape[3];
    int k = conv->kernel(), m = conv->outChannels();
    int oh = conv->outSize(h), ow = conv->outSize(w);
    int patch = c * k * k, ohw = oh * ow;
    const std::vector<int64_t> &acc = conv->tracedAccumulators();
    ASSERT_EQ(acc.size(), static_cast<size_t>(n) * m * ohw);

    std::vector<int16_t> w16(wq.codes.begin(), wq.codes.end());
    std::vector<uint16_t> cols(static_cast<size_t>(ohw) * patch);
    std::vector<int64_t> ref(static_cast<size_t>(m) * ohw);
    for (int ni = 0; ni < n; ++ni) {
        const int32_t *img =
            acts.codes.data() + static_cast<size_t>(ni) * c * h * w;
        uint16_t *col = cols.data();
        for (int oy = 0; oy < oh; ++oy)
            for (int ox = 0; ox < ow; ++ox)
                for (int ci = 0; ci < c; ++ci)
                    for (int ky = 0; ky < k; ++ky)
                        for (int kx = 0; kx < k; ++kx) {
                            int iy = oy * conv->stride() -
                                     conv->padding() + ky;
                            int ix = ox * conv->stride() -
                                     conv->padding() + kx;
                            bool in = iy >= 0 && iy < h && ix >= 0 &&
                                      ix < w;
                            *col++ = static_cast<uint16_t>(
                                in ? img[(ci * h + iy) * w + ix] : 0);
                        }
        gemm::igemmTransB(m, ohw, patch, w16.data(), patch, cols.data(),
                          patch, ref.data(), ohw, wq.bits, acts.bits);
        for (size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(ref[i], acc[ni * ref.size() + i])
                << "bits=" << bits << " image=" << ni << " i=" << i;
    }
}

/** Plain wide gemm::igemmTransB over the traced codes reproduces the
 * Linear head's integer accumulators exactly. */
void
expectLinearMatchesIgemm(Linear *fc, int bits)
{
    const QuantTensor &wq = fc->tracedWeightCodes();
    const QuantTensor &acts = fc->tracedActCodes();
    ASSERT_EQ(acts.shape.size(), 2u) << "bits=" << bits;
    int n = acts.shape[0], in = fc->inFeatures(), out = fc->outFeatures();
    std::vector<int64_t> ref(static_cast<size_t>(n) * out);
    gemm::igemmTransB(n, out, in, acts.codes.data(), in, wq.codes.data(),
                      in, ref.data(), out);
    EXPECT_EQ(ref, fc->tracedAccumulators()) << "bits=" << bits;
}

/** The int codes the integer datapath consumes are bit-identical to
 * the engine's cached codes; its accumulators equal plain
 * gemm::igemmTransB over the traced codes, and for convs also the
 * cycle-accurate bit-serial MAC array fed those very codes. Covers
 * every weight-quantized layer of convNetTiny (stem, inner conv,
 * Linear head) at bits {2,4,8,16} and of preActResNetMini (including
 * the projection shortcut) at every candidate, through both the
 * unfused reference plan and a compiled fused plan. */
TEST(ForwardQuantized, CodesBitIdenticalToBitSerialDatapath)
{
    Rng rng(47);
    ModelConfig cfg;
    cfg.baseWidth = 8;
    std::vector<Network> nets;
    nets.push_back(makeTinyNet(41, PrecisionSet({2, 4, 8, 16})));
    nets.push_back(preActResNetMini(cfg, rng));

    MacArraySimulator sim(8);
    for (Network &net : nets) {
        Tensor x = makeInput(42, /*batch=*/2);
        Calibrator cal(net);
        cal.calibrate({x});
        RpsEngine engine(net);
        std::unique_ptr<serve::ExecutionPlan> plan = net.compile(
            net.precisionSet(), serve::PlanMode::Quantized, x.shape());
        std::vector<WeightQuantizedLayer *> layers =
            net.weightQuantizedLayers();

        for (int bits : net.precisionSet().bits()) {
            for (bool via_plan : {false, true}) {
                SCOPED_TRACE(via_plan ? "fused plan" : "reference plan");
                for (WeightQuantizedLayer *l : layers) {
                    l->setQuantTrace(false); // drop the last trace
                    l->setQuantTrace(true);
                }
                if (via_plan) {
                    engine.setPrecision(bits);
                    plan->run(x);
                } else {
                    engine.forwardQuantizedAt(bits, x);
                }
                for (size_t i = 0; i < layers.size(); ++i) {
                    if (auto *conv = dynamic_cast<Conv2d *>(layers[i])) {
                        expectConvMatchesBitSerial(engine, conv, i, bits,
                                                   sim);
                        expectConvMatchesIgemm(conv, bits);
                    } else {
                        auto *fc = dynamic_cast<Linear *>(layers[i]);
                        ASSERT_NE(fc, nullptr);
                        expectLinearMatchesIgemm(fc, bits);
                    }
                }
            }
        }
        for (WeightQuantizedLayer *l : layers)
            l->setQuantTrace(false);
    }
}

/** The stem conv runs the integer datapath too (ISSUE 4: the network
 * input is quantized), and its accumulators are bit-exact against the
 * bit-serial array at bits {2,4,8,16} — no float GEMM remains in the
 * quantized forward at quantized precisions. */
TEST(ForwardQuantized, StemConvBitIdenticalToBitSerialDatapath)
{
    PrecisionSet set({2, 4, 8, 16});
    Network net = makeTinyNet(45, set);
    Tensor x = makeInput(46, /*batch=*/2);
    Calibrator cal(net);
    cal.calibrate({x});
    RpsEngine engine(net);

    // Layer 0 is the stem conv: weight-quantized layer #0, fed by the
    // network's input quantizer (16-bit floor, unit image range).
    auto *stem = dynamic_cast<Conv2d *>(&net.layer(0));
    ASSERT_NE(stem, nullptr);
    stem->setQuantTrace(true);

    MacArraySimulator sim(8);
    for (int bits : set.bits()) {
        engine.forwardQuantizedAt(bits, x);

        // The stem consumed the quantized input: unsigned codes at
        // the image-precision floor.
        const QuantTensor &acts = stem->tracedActCodes();
        ASSERT_FALSE(acts.empty()) << "stem fell off the integer path";
        EXPECT_FALSE(acts.isSigned);
        EXPECT_EQ(acts.bits, std::max(bits, 16));

        expectConvMatchesBitSerial(engine, stem, 0, bits, sim);
    }
}

// ---------------------------------------------------------------------------
// Packed-kernel ISA tiers: end-to-end bit-identity
// ---------------------------------------------------------------------------

/** RAII guard: force an ISA tier for one scope, restore on exit. */
struct TierRestore
{
    gemm::IsaTier saved = gemm::activeIsaTier();
    ~TierRestore() { gemm::setActiveIsaTier(saved); }
};

/** The full quantized forward — conv stack through the Linear head —
 * is bit-identical between the dispatched SIMD tier and the forced
 * scalar tier of the packed kernels at every rps4to16 candidate, for
 * both Conv2d and the classifier's wide Linear GEMM. */
TEST(ForwardQuantized, ScalarTierBitIdenticalEndToEnd)
{
    Network net = makeTinyNet(61);
    Tensor x = makeInput(62, /*batch=*/2);
    Calibrator cal(net);
    cal.calibrate({x});
    RpsEngine engine(net);

    for (int bits : net.precisionSet().bits()) {
        TierRestore guard;
        gemm::setActiveIsaTier(gemm::IsaTier::Scalar);
        Tensor y_ref = engine.forwardQuantizedAt(bits, x);
        gemm::setActiveIsaTier(guard.saved);
        Tensor y_simd = engine.forwardQuantizedAt(bits, x);
        ASSERT_EQ(y_ref.shape(), y_simd.shape()) << "bits=" << bits;
        for (size_t i = 0; i < y_ref.size(); ++i)
            ASSERT_EQ(y_ref[i], y_simd[i]) << "bits=" << bits
                                           << " i=" << i;
    }
}

/** Same end-to-end diff on the residual model (projection shortcuts,
 * deeper conv stack), per candidate and per intermediate tier. */
TEST(ForwardQuantized, ResidualModelTiersBitIdentical)
{
    Rng rng(63);
    ModelConfig cfg;
    cfg.baseWidth = 8;
    Network net = preActResNetMini(cfg, rng);
    Tensor x = makeInput(64, /*batch=*/2);
    Calibrator cal(net);
    cal.calibrate({x});
    RpsEngine engine(net);

    std::vector<gemm::IsaTier> tiers = {gemm::IsaTier::Scalar};
    if (gemm::detectedIsaTier() >= gemm::IsaTier::Avx2)
        tiers.push_back(gemm::IsaTier::Avx2);
    if (gemm::detectedIsaTier() >= gemm::IsaTier::Avx512Vnni)
        tiers.push_back(gemm::IsaTier::Avx512Vnni);

    for (int bits : net.precisionSet().bits()) {
        TierRestore guard;
        gemm::setActiveIsaTier(gemm::IsaTier::Scalar);
        Tensor y_ref = engine.forwardQuantizedAt(bits, x);
        for (gemm::IsaTier t : tiers) {
            gemm::setActiveIsaTier(t);
            Tensor y = engine.forwardQuantizedAt(bits, x);
            ASSERT_EQ(y_ref.shape(), y.shape()) << "bits=" << bits;
            for (size_t i = 0; i < y_ref.size(); ++i)
                ASSERT_EQ(y_ref[i], y[i])
                    << "bits=" << bits << " tier="
                    << gemm::isaTierName(t) << " i=" << i;
        }
    }
}

/** Linear consumes the GlobalAvgPool's integer partial sums: the
 * traced activation codes into the classifier are exact integer sums
 * of the upstream ActQuant codes. */
TEST(ForwardQuantized, LinearHeadStaysOnIntegerPath)
{
    Network net = makeTinyNet(43);
    Tensor x = makeInput(44, /*batch=*/2);
    Calibrator cal(net);
    cal.calibrate({x});
    RpsEngine engine(net);

    auto *fc = dynamic_cast<Linear *>(&net.layer(9));
    ASSERT_NE(fc, nullptr);
    fc->setQuantTrace(true);
    engine.forwardQuantizedAt(8, x);

    const QuantTensor &acts = fc->tracedActCodes();
    ASSERT_FALSE(acts.empty()) << "Linear fell off the integer path";
    ASSERT_EQ(acts.shape.size(), 2u);
    // Pool folded 1/(H*W) into the scale and widened the codes.
    EXPECT_GT(acts.bits, 8);
}

} // namespace
} // namespace twoinone
