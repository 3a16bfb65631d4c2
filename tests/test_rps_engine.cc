/**
 * @file
 * Tests for the RpsEngine precision-switchable inference engine: the
 * cached forwardAt(bits) path must be bit-identical to a from-scratch
 * fake-quant forward at every candidate precision, and deterministic
 * for a fixed RNG seed regardless of the thread count (CMake re-runs
 * this binary under TWOINONE_THREADS=1 and =4; within one process the
 * ScopedSerial guard pins the serial-vs-parallel comparison).
 */

#include <gtest/gtest.h>

#include <memory>

#include "adversarial/epgd.hh"
#include "adversarial/trainer.hh"
#include "common/thread_pool.hh"
#include "data/synthetic.hh"
#include "nn/conv2d.hh"
#include "nn/linear.hh"
#include "nn/model_zoo.hh"
#include "nn/sgd.hh"
#include "quant/rps_engine.hh"

namespace twoinone {
namespace {

Network
makeResidualNet(uint64_t seed)
{
    Rng rng(seed);
    ModelConfig cfg;
    cfg.baseWidth = 8;
    return preActResNetMini(cfg, rng);
}

Network
makeTinyNet(uint64_t seed)
{
    Rng rng(seed);
    ModelConfig cfg;
    cfg.baseWidth = 4;
    return convNetTiny(cfg, rng);
}

Tensor
makeInput(uint64_t seed)
{
    Rng rng(seed);
    return Tensor::uniform({4, 3, 8, 8}, rng, 0.0f, 1.0f);
}

void
expectBitIdentical(const Tensor &a, const Tensor &b, int bits)
{
    ASSERT_EQ(a.shape(), b.shape()) << "bits=" << bits;
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "bits=" << bits << " i=" << i;
}

/** Cached forward == uncached fake-quant forward, every candidate. */
TEST(RpsEngine, CachedForwardBitIdenticalAllPrecisions)
{
    Network net = makeResidualNet(42);
    Tensor x = makeInput(7);
    RpsEngine engine(net);
    EXPECT_EQ(engine.set().bits(), PrecisionSet::rps4to16().bits());

    for (int bits : engine.set().bits()) {
        // Reference: detach the caches and run the re-quantizing path.
        engine.detach();
        net.setPrecision(bits);
        Tensor y_ref = net.forward(x, /*train=*/false);

        Tensor y_cached = engine.forwardAt(bits, x);
        expectBitIdentical(y_ref, y_cached, bits);
    }
}

/** Same property on the Linear-headed tiny net (covers Linear). */
TEST(RpsEngine, CachedForwardBitIdenticalTinyNet)
{
    Network net = makeTinyNet(43);
    Tensor x = makeInput(8);
    RpsEngine engine(net);

    for (int bits : engine.set().bits()) {
        engine.detach();
        net.setPrecision(bits);
        Tensor y_ref = net.forward(x, false);
        Tensor y_cached = engine.forwardAt(bits, x);
        expectBitIdentical(y_ref, y_cached, bits);
    }
}

/** bits = 0 clears the caches and runs the full-precision path. */
TEST(RpsEngine, FullPrecisionPassThrough)
{
    Network net = makeTinyNet(44);
    Tensor x = makeInput(9);
    RpsEngine engine(net);
    engine.forwardAt(4, x); // install some cache first

    Tensor y_fp = engine.forwardAt(0, x);
    engine.detach();
    net.setPrecision(0);
    Tensor y_ref = net.forward(x, false);
    expectBitIdentical(y_ref, y_fp, 0);
}

/** A serially built+run engine matches a parallel one bit-for-bit. */
TEST(RpsEngine, DeterministicAcrossThreadCounts)
{
    Tensor x = makeInput(11);

    Network net_serial = makeResidualNet(77);
    Network net_parallel = makeResidualNet(77);
    std::unique_ptr<RpsEngine> serial_engine;
    std::vector<Tensor> serial_out;
    {
        ThreadPool::ScopedSerial guard;
        serial_engine = std::make_unique<RpsEngine>(net_serial);
        for (int bits : serial_engine->set().bits())
            serial_out.push_back(serial_engine->forwardAt(bits, x));
    }

    RpsEngine parallel_engine(net_parallel);
    const std::vector<int> &bits = parallel_engine.set().bits();
    for (size_t i = 0; i < bits.size(); ++i) {
        Tensor y = parallel_engine.forwardAt(bits[i], x);
        expectBitIdentical(serial_out[i], y, bits[i]);
    }
}

/** forwardRandom is reproducible for a fixed RNG seed. */
TEST(RpsEngine, RandomPrecisionForwardDeterministic)
{
    Network net = makeTinyNet(45);
    Tensor x = makeInput(12);
    RpsEngine engine(net);

    Rng rng_a(123), rng_b(123);
    for (int step = 0; step < 8; ++step) {
        int bits_a = 0, bits_b = 0;
        Tensor ya = engine.forwardRandom(x, rng_a, &bits_a);
        Tensor yb = engine.forwardRandom(x, rng_b, &bits_b);
        ASSERT_EQ(bits_a, bits_b);
        EXPECT_TRUE(engine.set().contains(bits_a));
        expectBitIdentical(ya, yb, bits_a);
    }
}

/** Switching installs state on the network, and predictAt agrees
 * with a plain predict at the same precision. */
TEST(RpsEngine, SwitchTracksNetworkPrecision)
{
    Network net = makeTinyNet(46);
    Tensor x = makeInput(13);
    RpsEngine engine(net);

    engine.setPrecision(8);
    EXPECT_EQ(net.activePrecision(), 8);
    EXPECT_EQ(engine.activePrecision(), 8);
    std::vector<int> cached = engine.predictAt(4, x);

    engine.detach();
    net.setPrecision(4);
    EXPECT_EQ(net.predict(x), cached);
}

/** refresh() re-syncs the cache after a weight update. */
TEST(RpsEngine, RefreshTracksWeightUpdates)
{
    Network net = makeTinyNet(47);
    Tensor x = makeInput(14);
    RpsEngine engine(net);

    // Perturb every weight through the parameter view.
    for (Parameter *p : net.parameters())
        for (size_t i = 0; i < p->value.size(); ++i)
            p->value[i] += 0.01f * static_cast<float>(i % 5);
    engine.refresh();

    for (int bits : engine.set().bits()) {
        engine.detach();
        net.setPrecision(bits);
        Tensor y_ref = net.forward(x, false);
        Tensor y_cached = engine.forwardAt(bits, x);
        expectBitIdentical(y_ref, y_cached, bits);
    }
}

/** A subset-cached engine serves cached members from the cache and
 * the rest of the bound set uncached — all bit-identical. */
TEST(RpsEngine, SubsetCacheServesAllBoundPrecisions)
{
    Network net = makeTinyNet(49);
    Tensor x = makeInput(15);
    PrecisionSet subset({4, 8});
    RpsEngine engine(net, subset);
    EXPECT_EQ(engine.set().bits(), subset.bits());

    for (int bits : net.precisionSet().bits()) {
        engine.detach();
        net.setPrecision(bits);
        Tensor y_ref = net.forward(x, false);
        Tensor y = engine.forwardAt(bits, x);
        expectBitIdentical(y_ref, y, bits);
    }
}

/** Cache accounting: every Conv2d/Linear at every candidate holds
 * its int32 codes, and nothing else until the first install of a
 * precision adds that column's tile-packed kernel weights. */
TEST(RpsEngine, CacheAccounting)
{
    Network net = makeResidualNet(48);
    RpsEngine engine(net);

    EXPECT_EQ(engine.numQuantLayers(),
              net.weightQuantizedLayers().size());
    EXPECT_GT(engine.numQuantLayers(), 0u);

    size_t weight_scalars = 0;
    for (WeightQuantizedLayer *l : net.weightQuantizedLayers())
        weight_scalars += l->masterWeight().size();
    // A cell is codes + pack only: int32 codes per scalar per
    // candidate, and no tile pack before the first switch.
    size_t base = sizeof(int32_t) * weight_scalars * engine.set().size();
    EXPECT_EQ(engine.cacheBytes(), base);

    // Switching to one candidate adds exactly that column's tile
    // packs — reproduced independently here from the cached codes.
    int bits0 = engine.set().bits()[0];
    engine.setPrecision(bits0);
    size_t pack_bytes = 0;
    for (size_t l = 0; l < engine.numQuantLayers(); ++l) {
        const QuantTensor &codes = engine.codesFor(l, bits0);
        int m = codes.shape.empty() ? 0 : codes.shape[0];
        int k = m > 0 ? static_cast<int>(codes.size()) / m : 0;
        gemm::PackedIntWeights pw;
        gemm::packWeights(codes.codes.data(), m, k, codes.bits, pw);
        pack_bytes += pw.bytes();
    }
    EXPECT_GT(pack_bytes, 0u);
    EXPECT_EQ(engine.cacheBytes(), base + pack_bytes);
}

/** Weight gradients of @p net's only layer @p w after one train
 * forward of @p x and a backward of all-ones. */
Tensor
weightGrad(Network &net, Parameter &w, const Tensor &x)
{
    net.zeroGrad();
    Tensor y = net.forward(x, /*train=*/true);
    net.backward(Tensor::ones(y.shape()));
    return w.grad;
}

/** Subnormal weight scales clip: with max|w| = 1e-40 at 16 bits the
 * grid scale rounds down to a subnormal, so fakeQuantSymmetric's STE
 * mask has zeros. The backward derives its mask from the forward's
 * grid instead of assuming ones, so for a Conv2d and a Linear the
 * engine-installed and uncached paths give the same weight gradients,
 * and both equal the unmasked dW (the full-precision gradient, which
 * does not depend on the weights) times that mask. */
TEST(RpsEngine, SubnormalScaleSteMaskIsDerived)
{
    const int bits = 16;
    auto run = [&](Network &net, Parameter &w, const Tensor &x) {
        Rng rng(77);
        for (size_t i = 0; i < w.value.size(); ++i)
            w.value[i] = static_cast<float>(rng.uniform(-1.0, 1.0) * 1e-40);
        w.value[0] = 1e-40f;
        QuantResult ref = LinearQuantizer::fakeQuantSymmetric(w.value, bits);
        size_t zeros = 0;
        for (size_t i = 0; i < ref.steMask.size(); ++i)
            zeros += ref.steMask[i] == 0.0f ? 1 : 0;
        ASSERT_GT(zeros, 0u);
        ASSERT_LT(zeros, ref.steMask.size());

        net.setPrecision(0);
        Tensor dw = weightGrad(net, w, x);
        net.setPrecision(bits);
        Tensor uncached = weightGrad(net, w, x);
        RpsEngine engine(net);
        engine.setPrecision(bits);
        engine.resetCacheStats();
        Tensor cached = weightGrad(net, w, x);
        EXPECT_EQ(engine.cacheHits(), 2u); // forward + backward
        EXPECT_EQ(engine.cacheMisses(), 0u);
        for (size_t i = 0; i < dw.size(); ++i) {
            ASSERT_EQ(cached[i], uncached[i]) << "i=" << i;
            ASSERT_EQ(uncached[i], dw[i] * ref.steMask[i]) << "i=" << i;
        }
    };
    Rng rng(78);
    {
        Network net(PrecisionSet::rps4to16());
        net.add(std::make_unique<Conv2d>(2, 3, 3, 1, 1, true, rng));
        auto *conv = dynamic_cast<Conv2d *>(&net.layer(0));
        SCOPED_TRACE("conv2d");
        run(net, conv->weight(),
            Tensor::uniform({2, 2, 5, 5}, rng, 0.0f, 1.0f));
    }
    {
        Network net(PrecisionSet::rps4to16());
        net.add(std::make_unique<Linear>(6, 4, true, rng));
        auto *fc = dynamic_cast<Linear *>(&net.layer(0));
        SCOPED_TRACE("linear");
        run(net, fc->weight(), Tensor::uniform({3, 6}, rng, 0.0f, 1.0f));
    }
}

/** A precision switch installs ready-to-run tile-packed kernel
 * weights into every layer; detach and full-precision switches clear
 * them (the layers fall back to per-forward scratch packing). */
TEST(RpsEngine, PackedWeightsInstalledAndCleared)
{
    Network net = makeResidualNet(52);
    RpsEngine engine(net);
    std::vector<WeightQuantizedLayer *> layers =
        net.weightQuantizedLayers();

    for (int bits : engine.set().bits()) {
        engine.setPrecision(bits);
        for (WeightQuantizedLayer *l : layers) {
            const gemm::PackedIntWeights *p = l->weightPacked();
            ASSERT_NE(p, nullptr) << "bits=" << bits;
            EXPECT_FALSE(p->empty()) << "bits=" << bits;
            EXPECT_EQ(p->bits, bits);
            EXPECT_EQ(static_cast<size_t>(p->m) * p->k,
                      l->masterWeight().size());
        }
    }

    engine.detach();
    for (WeightQuantizedLayer *l : layers)
        EXPECT_EQ(l->weightPacked(), nullptr);

    engine.setPrecision(engine.set().bits()[0]);
    engine.setPrecision(0); // full precision clears the installs too
    for (WeightQuantizedLayer *l : layers)
        EXPECT_EQ(l->weightPacked(), nullptr);
}

/** After a training step, refreshDirty() keeps the installed column's
 * live tile packs current: the packed codes must re-agree with the
 * freshly quantized cell codes. */
TEST(RpsEngine, RefreshDirtyRepacksInstalledColumn)
{
    Network net = makeTinyNet(53);
    Tensor x = makeInput(18);
    RpsEngine engine(net);
    int bits = engine.set().bits()[0];
    engine.setPrecision(bits);

    // Nudge the masters like an optimizer step would (version bump).
    for (Parameter *p : net.parameters()) {
        for (size_t i = 0; i < p->value.size(); ++i)
            p->value[i] *= 1.5f;
        p->bumpVersion();
    }
    engine.refreshDirty();

    std::vector<WeightQuantizedLayer *> layers =
        net.weightQuantizedLayers();
    for (size_t l = 0; l < layers.size(); ++l) {
        const gemm::PackedIntWeights *inst = layers[l]->weightPacked();
        ASSERT_NE(inst, nullptr);
        const QuantTensor &codes = engine.codesFor(l, bits);
        int m = codes.shape.empty() ? 0 : codes.shape[0];
        int k = m > 0 ? static_cast<int>(codes.size()) / m : 0;
        // Packed in the layer's own layout: tap-major for convs.
        gemm::PackedIntWeights fresh;
        gemm::packWeights(codes.codes.data(), m, k, codes.bits, fresh,
                          layers[l]->packTaps());
        EXPECT_EQ(inst->taps, layers[l]->packTaps()) << "layer=" << l;
        EXPECT_EQ(inst->p8, fresh.p8) << "layer=" << l;
        EXPECT_EQ(inst->p16, fresh.p16) << "layer=" << l;
        EXPECT_EQ(inst->rowSum, fresh.rowSum) << "layer=" << l;
    }
}

/** EPGD cycling precisions mid-attack behind the engine's back: the
 * installed precision serves every lookup from the cache, every other
 * candidate falls back to re-quantization — counted exactly. */
TEST(RpsEngine, EpgdMidAttackCacheAccounting)
{
    Network net = makeTinyNet(50);
    Tensor x = makeInput(16);
    std::vector<int> labels(static_cast<size_t>(x.dim(0)), 1);
    RpsEngine engine(net);
    const size_t nlayers = engine.numQuantLayers();
    const size_t nprec = engine.set().size();

    engine.setPrecision(4);
    engine.resetCacheStats();

    AttackConfig acfg;
    acfg.steps = 3;
    EpgdAttack attack(acfg, net.precisionSet());
    Rng rng(99);
    attack.perturb(net, x, labels, rng);

    // Per step and per candidate, every weight layer quantizes twice
    // (forward + backward input-gradient). Only the installed
    // precision (4) hits the cache.
    uint64_t per_candidate = static_cast<uint64_t>(acfg.steps) * 2 *
                             nlayers;
    EXPECT_EQ(engine.cacheHits(), per_candidate);
    EXPECT_EQ(engine.cacheMisses(), per_candidate * (nprec - 1));

    engine.resetCacheStats();
    EXPECT_EQ(engine.cacheHits(), 0u);
    EXPECT_EQ(engine.cacheMisses(), 0u);
}

/** refreshDirty() notes exactly the layers whose Parameter::version
 * moved (without re-quantizing anything), and the lazily rebuilt
 * cache serves bit-identical forwards. */
TEST(RpsEngine, DirtyRefreshTracksVersions)
{
    Network net = makeTinyNet(51);
    Tensor x = makeInput(17);
    RpsEngine engine(net);

    // Nothing dirty yet.
    EXPECT_EQ(engine.refreshDirty(), 0u);

    // Touch one layer's weights through the Parameter view with a
    // version bump: exactly one layer is newly noted. With no column
    // installed (nothing consumes the cache yet), noting is pure
    // bookkeeping — no cell re-quantizes until install time.
    std::vector<WeightQuantizedLayer *> wl = net.weightQuantizedLayers();
    auto *conv = dynamic_cast<Conv2d *>(wl[0]);
    ASSERT_NE(conv, nullptr);
    for (size_t i = 0; i < conv->weight().value.size(); ++i)
        conv->weight().value[i] += 0.01f;
    conv->weight().bumpVersion();
    uint64_t rebuilds_before = engine.columnRebuilds();
    EXPECT_EQ(engine.refreshDirty(), 1u);
    EXPECT_EQ(engine.refreshDirty(), 0u); // noted already
    EXPECT_EQ(engine.columnRebuilds(), rebuilds_before);

    // The lazily refreshed cache serves bit-identical forwards.
    for (int bits : engine.set().bits()) {
        engine.detach();
        net.setPrecision(bits);
        Tensor y_ref = net.forward(x, false);
        Tensor y = engine.forwardAt(bits, x);
        expectBitIdentical(y_ref, y, bits);
    }
}

/** The lazy column rebuild: a stale layer re-quantizes one cell for
 * the installed column (kept current by refreshDirty) and one per
 * newly installed precision — never the whole |set| column fan — and
 * a clean install rebuilds nothing. */
TEST(RpsEngine, LazyColumnRebuildOnInstall)
{
    Network net = makeTinyNet(54);
    RpsEngine engine(net);
    const size_t nlayers = engine.numQuantLayers();
    const size_t nprec = engine.set().size();

    // Construction built every cell once.
    EXPECT_EQ(engine.columnRebuilds(), nlayers * nprec);

    // Clean installs rebuild nothing.
    uint64_t base = engine.columnRebuilds();
    for (int bits : engine.set().bits())
        engine.setPrecision(bits);
    EXPECT_EQ(engine.columnRebuilds(), base);

    // Dirty one layer with precision 4 installed: refreshDirty keeps
    // exactly the installed column current (one cell — forwards may
    // consume it before any switch), the rest stays lazy.
    engine.setPrecision(4);
    std::vector<WeightQuantizedLayer *> wl = net.weightQuantizedLayers();
    auto *conv = dynamic_cast<Conv2d *>(wl[0]);
    ASSERT_NE(conv, nullptr);
    conv->weight().value[0] += 0.5f;
    conv->weight().bumpVersion();
    EXPECT_EQ(engine.refreshDirty(), 1u);
    EXPECT_EQ(engine.columnRebuilds(), base + 1);
    // Re-installing the current precision stays clean...
    engine.setPrecision(4);
    EXPECT_EQ(engine.columnRebuilds(), base + 1);
    // ...every other precision pays its one cell on first install.
    engine.setPrecision(8);
    engine.setPrecision(8);
    EXPECT_EQ(engine.columnRebuilds(), base + 2);

    // An SGD-style full dirtying rebuilds one cell per layer for the
    // installed column plus one per layer at the next switch — not
    // nlayers x |set| up front.
    for (Parameter *p : net.parameters())
        p->bumpVersion();
    base = engine.columnRebuilds();
    EXPECT_EQ(engine.refreshDirty(), nlayers);
    EXPECT_EQ(engine.columnRebuilds(), base + nlayers); // column 8
    engine.setPrecision(6);
    EXPECT_EQ(engine.columnRebuilds(), base + 2 * nlayers);

    // Detached, refreshDirty is bookkeeping only.
    engine.detach();
    for (Parameter *p : net.parameters())
        p->bumpVersion();
    base = engine.columnRebuilds();
    EXPECT_EQ(engine.refreshDirty(), nlayers);
    EXPECT_EQ(engine.columnRebuilds(), base);
}

/** An SGD step bumps every parameter version, so a subsequent
 * dirty refresh touches all weight layers. */
TEST(RpsEngine, SgdStepDirtiesAllLayers)
{
    Network net = makeTinyNet(52);
    Tensor x = makeInput(18);
    RpsEngine engine(net);

    engine.setPrecision(4);
    Tensor y = net.forward(x, /*train=*/true);
    net.zeroGrad();
    net.backward(Tensor::ones(y.shape()));
    Sgd sgd(0.01f);
    sgd.step(net.parameters());
    net.zeroGrad();

    EXPECT_EQ(engine.refreshDirty(), engine.numQuantLayers());
}

/** Free adversarial training replays several optimizer steps per
 * precision draw, so the installed column is consumed between steps
 * without a switch — refreshDirty() must keep it current. Cached
 * trajectories stay bit-identical to uncached ones. */
TEST(RpsEngine, CachedFreeTrainingMatchesUncached)
{
    SyntheticConfig dcfg;
    dcfg.trainSize = 32;
    dcfg.testSize = 8;
    Dataset data = makeSynthetic(dcfg, "rps-engine-free-test").train;

    TrainConfig base;
    base.method = TrainMethod::Free;
    base.rps = true;
    base.epochs = 1;
    base.batchSize = 16;
    base.freeReplays = 3;
    base.seed = 11;

    Network cached_net = makeTinyNet(55);
    Network uncached_net = makeTinyNet(55);

    TrainConfig cached_cfg = base;
    cached_cfg.cachedEngine = true;
    TrainConfig uncached_cfg = base;
    uncached_cfg.cachedEngine = false;

    Trainer cached(cached_net, cached_cfg);
    float l_cached = cached.fit(data);
    Trainer uncached(uncached_net, uncached_cfg);
    float l_uncached = uncached.fit(data);

    EXPECT_EQ(l_cached, l_uncached);
    std::vector<Parameter *> pa = cached_net.parameters();
    std::vector<Parameter *> pb = uncached_net.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
        ASSERT_EQ(pa[i]->value.size(), pb[i]->value.size());
        for (size_t t = 0; t < pa[i]->value.size(); ++t)
            ASSERT_EQ(pa[i]->value[t], pb[i]->value[t])
                << "param " << i << " elem " << t;
    }
}

/** Cached RPS adversarial training (the Trainer engine hook) is
 * bit-identical to the uncached path: the dirty-refreshed cache never
 * serves stale codes. */
TEST(RpsEngine, CachedTrainingMatchesUncached)
{
    SyntheticConfig dcfg;
    dcfg.trainSize = 32;
    dcfg.testSize = 8;
    Dataset data = makeSynthetic(dcfg, "rps-engine-test").train;

    TrainConfig base;
    base.method = TrainMethod::Fgsm;
    base.rps = true;
    base.epochs = 1;
    base.batchSize = 16;
    base.seed = 7;

    Network cached_net = makeTinyNet(53);
    Network uncached_net = makeTinyNet(53);

    TrainConfig cached_cfg = base;
    cached_cfg.cachedEngine = true;
    TrainConfig uncached_cfg = base;
    uncached_cfg.cachedEngine = false;

    Trainer cached(cached_net, cached_cfg);
    float l_cached = cached.fit(data);
    Trainer uncached(uncached_net, uncached_cfg);
    float l_uncached = uncached.fit(data);

    EXPECT_EQ(l_cached, l_uncached);
    std::vector<Parameter *> pa = cached_net.parameters();
    std::vector<Parameter *> pb = uncached_net.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
        ASSERT_EQ(pa[i]->value.size(), pb[i]->value.size());
        for (size_t t = 0; t < pa[i]->value.size(); ++t)
            ASSERT_EQ(pa[i]->value[t], pb[i]->value[t])
                << "param " << i << " elem " << t;
    }
}

} // namespace
} // namespace twoinone
