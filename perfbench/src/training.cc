/**
 * @file
 * The RPS PGD-7 training loop, decomposed into the public calls
 * Trainer::fit makes so the traced run can time each one.
 */

#include <cmath>
#include <numeric>

#include "adversarial/pgd.hh"
#include "bench.hh"
#include "io/checkpoint.hh"
#include "nn/loss.hh"
#include "stats.hh"

namespace perfbench {

using namespace twoinone;

TrainConfig
trainConfig(uint64_t seed, int batch)
{
    TrainConfig cfg;
    cfg.method = TrainMethod::Pgd7;
    cfg.rps = true;
    cfg.cachedEngine = true;
    cfg.epochs = 1;
    cfg.batchSize = batch;
    cfg.seed = seed;
    return cfg;
}

TrainStats
trainLoop(Network &net, RpsEngine &engine, Sgd &sgd, const Dataset &data,
          const TrainConfig &cfg, Rng &rng, double seconds,
          uint64_t max_steps, Tracer *tr)
{
    // Same call sequence and RNG consumption as Trainer::fit with
    // TrainMethod::Pgd7 and rps: shuffle per epoch; per batch draw the
    // precision, install it, perturb, update, dirty-refresh.
    AttackConfig acfg;
    acfg.eps = cfg.eps;
    acfg.alpha = cfg.alpha;
    acfg.trainMode = true;
    acfg.restarts = 1;
    acfg.steps = cfg.pgdSteps;

    TrainStats ts;
    int n = data.size();
    int bs = std::min(cfg.batchSize, n);
    std::vector<int> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::vector<int> shape = data.images.shape();
    shape[0] = bs;

    uint64_t t0 = nowNs();
    uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
    SpanScope window(tr, "bench.train");
    for (;;) {
        rng.shuffle(order);
        for (int start = 0; start + bs <= n; start += bs) {
            uint64_t s0 = nowNs();
            if (ts.steps >= max_steps || s0 >= deadline) {
                ts.wallS = secondsSince(t0);
                return ts;
            }
            SpanScope step(tr, "bench.step", ts.steps + 1);
            int bits = net.precisionSet().sample(rng);
            {
                SpanScope s(tr, "quant.engine.setPrecision");
                engine.setPrecision(bits);
            }
            Tensor x(shape);
            std::vector<int> y(static_cast<size_t>(bs));
            for (int i = 0; i < bs; ++i) {
                int src = order[static_cast<size_t>(start + i)];
                x.setSlice0(i, data.images.slice0(src, 1));
                y[static_cast<size_t>(i)] =
                    data.labels[static_cast<size_t>(src)];
            }
            Tensor x_adv;
            {
                SpanScope s(tr, "adversarial.pgd.perturb");
                PgdAttack attack(acfg);
                x_adv = attack.perturb(net, x, y, rng);
            }
            float loss_value = 0.0f;
            {
                SpanScope s(tr, "nn.fwd_bwd");
                Tensor logits = net.forward(x_adv, /*train=*/true);
                SoftmaxCrossEntropy loss;
                loss_value = loss.forward(logits, y);
                net.zeroGrad();
                net.backward(loss.backward());
            }
            {
                SpanScope s(tr, "nn.sgd.step");
                sgd.step(net.parameters());
                net.zeroGrad();
            }
            {
                SpanScope s(tr, "quant.engine.refreshDirty");
                ts.refreshedLayers += engine.refreshDirty();
            }
            if (!std::isfinite(loss_value))
                ++ts.nonFinite;
            ts.drawn.push_back(bits);
            uint64_t s1 = nowNs();
            ts.stepMs.push_back(static_cast<double>(s1 - s0) / 1e6);
            ts.endS.push_back(static_cast<double>(s1 - t0) / 1e9);
            ++ts.steps;
            ts.images += static_cast<uint64_t>(bs);
        }
    }
}

void
trainLayerMetrics(const std::vector<Span> &spans, const TrainStats &ts,
                  RunResult &r)
{
    r.layer("adversarial.pgd.perturb_ms_p50",
            median(spanMs(spans, "adversarial.pgd.perturb")), "ms");
    r.layer("nn.fwd_bwd_ms_p50", median(spanMs(spans, "nn.fwd_bwd")), "ms");
    r.layer("nn.sgd_ms_p50", median(spanMs(spans, "nn.sgd.step")), "ms");
    r.layer("quant.engine.refresh_ms_p50",
            median(spanMs(spans, "quant.engine.refreshDirty")), "ms");
    r.layer("quant.engine.refreshed_layers",
            ts.steps ? static_cast<double>(ts.refreshedLayers) /
                           static_cast<double>(ts.steps)
                     : 0.0,
            "count");
}

void
trainingProbe(const std::string &artifact, const std::vector<int> &shape,
              int num_classes, uint64_t seed, uint64_t steps, int batch,
              Tracer *tr, RunResult &r)
{
    Network net = checkpoint::Checkpoint::read(artifact).instantiate();
    RpsEngine engine(net);
    TrainConfig cfg = trainConfig(deriveSeed(seed, "probe-trainer"), batch);
    Sgd sgd(cfg.lr, cfg.momentum, cfg.weightDecay);
    Rng rng(cfg.seed);

    Rng data_rng(deriveSeed(seed, "probe-data"));
    int n = static_cast<int>(steps) * batch;
    std::vector<int> dshape{n};
    dshape.insert(dshape.end(), shape.begin(), shape.end());
    Dataset d;
    d.images = Tensor::uniform(dshape, data_rng, 0.0f, 1.0f);
    for (int i = 0; i < n; ++i)
        d.labels.push_back(data_rng.uniformInt(0, num_classes - 1));
    d.numClasses = num_classes;

    TrainStats ts = trainLoop(net, engine, sgd, d, cfg, rng, 1e9, steps, tr);
    if (ts.nonFinite)
        r.fail("training probe produced a non-finite loss");
    trainLayerMetrics(tr->spans(), ts, r);
}

} // namespace perfbench
