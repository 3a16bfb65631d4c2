/**
 * @file
 * Evaluation harness implementation.
 */

#include "adversarial/evaluation.hh"

#include "common/stats.hh"
#include "quant/rps_engine.hh"
#include "tensor/ops.hh"

namespace twoinone {

namespace {

/** Iterate a dataset in batches, invoking fn(batch_x, batch_labels). */
template <typename Fn>
void
forEachBatch(const Dataset &data, int batch_size, Fn &&fn)
{
    int n = data.size();
    for (int start = 0; start < n; start += batch_size) {
        int len = std::min(batch_size, n - start);
        Dataset b = data.batch(start, len);
        fn(b.images, b.labels);
    }
}

/**
 * A float plan sized for @p data's batches: evaluation predictions
 * run the flat allocation-free step list instead of the per-layer
 * loop (bit-identical outputs). Attack generation is unaffected:
 * forward()/backward() keep the layer loops they need. Warm-up is
 * lazy: each precision sizes its buffers on its first batch. Null on
 * an empty dataset (there is nothing to size a plan for).
 */
std::unique_ptr<serve::ExecutionPlan>
evalPlan(Network &net, const Dataset &data, int batch_size)
{
    if (data.size() == 0)
        return nullptr;
    std::vector<int> shape = data.images.shape();
    shape[0] = std::min(batch_size, data.size());
    return net.compile(net.precisionSet(), serve::PlanMode::Float, shape,
                       /*warm_all=*/false);
}

} // namespace

double
naturalAccuracy(Network &net, const Dataset &data, int batch_size)
{
    std::unique_ptr<serve::ExecutionPlan> plan =
        evalPlan(net, data, batch_size);
    Accuracy acc;
    forEachBatch(data, batch_size,
                 [&](const Tensor &x, const std::vector<int> &y) {
                     std::vector<int> pred = ops::argmaxRows(plan->run(x));
                     for (size_t i = 0; i < y.size(); ++i)
                         acc.add(pred[i] == y[i]);
                 });
    return acc.percent();
}

double
robustAccuracy(Network &net, Attack &attack, const Dataset &data,
               int attack_bits, int infer_bits, Rng &rng, int batch_size)
{
    int restore = net.activePrecision();
    std::unique_ptr<serve::ExecutionPlan> plan =
        evalPlan(net, data, batch_size);
    Accuracy acc;
    forEachBatch(data, batch_size,
                 [&](const Tensor &x, const std::vector<int> &y) {
                     net.setPrecision(attack_bits);
                     Tensor x_adv = attack.perturb(net, x, y, rng);
                     net.setPrecision(infer_bits);
                     std::vector<int> pred =
                         ops::argmaxRows(plan->run(x_adv));
                     for (size_t i = 0; i < y.size(); ++i)
                         acc.add(pred[i] == y[i]);
                 });
    net.setPrecision(restore);
    return acc.percent();
}

double
rpsRobustAccuracy(Session &s, Attack &attack, const Dataset &data,
                  Rng &rng, int batch_size)
{
    // Inference predictions run the session's plans; the attack's
    // forward/backward passes keep the layer loops they need.
    Accuracy acc;
    const PrecisionSet &set = s.candidates();
    forEachBatch(data, batch_size,
                 [&](const Tensor &x, const std::vector<int> &y) {
                     // Adversary and defender sample independently
                     // (paper Sec. 4.1.1 threat model).
                     int attack_bits = set.sample(rng);
                     int infer_bits = set.sample(rng);
                     s.switchPrecision(attack_bits);
                     Tensor x_adv =
                         attack.perturb(s.network(), x, y, rng);
                     s.switchPrecision(infer_bits);
                     std::vector<int> pred = s.predict(x_adv);
                     for (size_t i = 0; i < y.size(); ++i)
                         acc.add(pred[i] == y[i]);
                 });
    return acc.percent();
}

double
rpsNaturalAccuracy(Session &s, const Dataset &data, Rng &rng,
                   int batch_size)
{
    Accuracy acc;
    forEachBatch(data, batch_size,
                 [&](const Tensor &x, const std::vector<int> &y) {
                     s.switchRandom(rng);
                     std::vector<int> pred = s.predict(x);
                     for (size_t i = 0; i < y.size(); ++i)
                         acc.add(pred[i] == y[i]);
                 });
    return acc.percent();
}

double
rpsNaturalAccuracyQuantized(Session &s, const Dataset &data, Rng &rng,
                            int batch_size)
{
    Accuracy acc;
    forEachBatch(data, batch_size,
                 [&](const Tensor &x, const std::vector<int> &y) {
                     s.switchRandom(rng);
                     std::vector<int> pred = s.predictQuantized(x);
                     for (size_t i = 0; i < y.size(); ++i)
                         acc.add(pred[i] == y[i]);
                 });
    return acc.percent();
}

namespace {

/**
 * The shared shape of the Network-level conveniences: wire a
 * temporary attached Session (engine cache on @p set, plan-run
 * predictions), run @p fn against it, then restore the network's
 * precision. The old five-step wiring, now an internal detail.
 */
template <typename Fn>
double
withSession(Network &net, const PrecisionSet &set, Fn &&fn)
{
    TWOINONE_ASSERT(!set.empty(), "RPS evaluation needs a precision set");
    int restore = net.activePrecision();
    double out;
    {
        SessionConfig cfg;
        cfg.cacheSet = set;
        Session s = Session::attach(net, cfg);
        out = fn(s);
    }
    net.setPrecision(restore);
    return out;
}

} // namespace

double
rpsRobustAccuracy(Network &net, Attack &attack, const Dataset &data,
                  const PrecisionSet &set, Rng &rng, int batch_size)
{
    return withSession(net, set, [&](Session &s) {
        return rpsRobustAccuracy(s, attack, data, rng, batch_size);
    });
}

double
rpsNaturalAccuracy(Network &net, const Dataset &data,
                   const PrecisionSet &set, Rng &rng, int batch_size)
{
    return withSession(net, set, [&](Session &s) {
        return rpsNaturalAccuracy(s, data, rng, batch_size);
    });
}

double
rpsNaturalAccuracyQuantized(Network &net, const Dataset &data,
                            const PrecisionSet &set, Rng &rng,
                            int batch_size)
{
    return withSession(net, set, [&](Session &s) {
        return rpsNaturalAccuracyQuantized(s, data, rng, batch_size);
    });
}

std::vector<std::vector<double>>
transferMatrix(Network &net, Attack &attack, const Dataset &data,
               const PrecisionSet &set, Rng &rng, int batch_size)
{
    size_t k = set.size();
    std::vector<std::vector<double>> m(k, std::vector<double>(k, 0.0));
    for (size_t i = 0; i < k; ++i) {
        for (size_t j = 0; j < k; ++j) {
            m[i][j] = robustAccuracy(net, attack, data, set.bits()[i],
                                     set.bits()[j], rng, batch_size);
        }
    }
    return m;
}

} // namespace twoinone
