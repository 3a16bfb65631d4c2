/**
 * @file
 * Adversarial training (paper Sec. 2.1) and RPS training (Alg. 1).
 *
 * Four SOTA adversarial-training methods from the paper's setup —
 * FGSM [24], FGSM-RS [78], PGD-7 [48] and Free [65] — plus natural
 * training, each available with the RPS switch: when enabled, every
 * iteration samples a precision q from the model's candidate set,
 * generates the adversarial example at q, and updates the model at q
 * through the straight-through estimator, with SBN recording
 * per-precision statistics (exactly Alg. 1 of the paper).
 */

#ifndef TWOINONE_ADVERSARIAL_TRAINER_HH
#define TWOINONE_ADVERSARIAL_TRAINER_HH

#include <memory>

#include "adversarial/attack.hh"
#include "data/synthetic.hh"
#include "nn/sgd.hh"

namespace twoinone {

class RpsEngine;

/**
 * The adversarial-training method of the outer loop.
 */
enum class TrainMethod
{
    Natural,
    Fgsm,
    FgsmRs,
    Pgd7,
    Free,
};

/** Human-readable method name ("PGD-7", "FGSM-RS", ...). */
std::string trainMethodName(TrainMethod m);

/**
 * Training hyper-parameters.
 */
struct TrainConfig
{
    TrainMethod method = TrainMethod::Pgd7;
    int epochs = 6;
    int batchSize = 64;
    float lr = 0.05f;
    float momentum = 0.9f;
    float weightDecay = 5e-4f;
    /** Adversarial budget (0-1 scale), 8/255 by default. */
    float eps = 8.0f / 255.0f;
    /** Inner-maximization step size. */
    float alpha = 2.0f / 255.0f;
    /** PGD inner steps (paper: 7). */
    int pgdSteps = 7;
    /** Free replays m (paper setting: 4..8). */
    int freeReplays = 4;
    /** Enable RPS training (Alg. 1): random precision per iteration. */
    bool rps = false;
    /** When RPS is off, train at this precision (0 = full). */
    int staticPrecision = 0;
    /**
     * Route RPS precision switches through a per-fit RpsEngine weight
     * cache, refreshed per optimizer step via per-layer dirty flags
     * (Parameter::version), so every iteration's switch is a cache
     * install instead of a re-quantization pass. Bit-identical to the
     * uncached path — the cached codes dequantize to exactly what
     * fakeQuantSymmetric would produce, and the backward derives the
     * same STE mask from the forward's grid — so training trajectories
     * do not change.
     */
    bool cachedEngine = true;
    uint64_t seed = 1;
    /** Print per-epoch progress to stderr. */
    bool verbose = false;
};

/**
 * Runs (RPS-)adversarial training on a network.
 */
class Trainer
{
  public:
    /**
     * @param net Network to train (bound precision set supplies the
     *            RPS candidates).
     * @param cfg Hyper-parameters.
     */
    Trainer(Network &net, TrainConfig cfg);
    ~Trainer(); // out of line: RpsEngine is incomplete here

    /** Train on a dataset; returns the final mean training loss. */
    float fit(const Dataset &train);

    /** Total optimizer steps taken so far. */
    int stepsTaken() const { return steps_; }

    /** Cache refreshes skipped because no layer was dirty (engine
     * accounting; 0 when the cached engine is off). */
    int cleanRefreshes() const { return cleanRefreshes_; }

    /** The trainer's optimizer — checkpointing reads its velocity
     * buffers (SaveOptions::optimizer) and a resumed run restores
     * them (Checkpoint::restoreOptimizer), so the momentum trajectory
     * survives the save/load boundary bit-identically. */
    Sgd &optimizer() { return sgd_; }
    const Sgd &optimizer() const { return sgd_; }

  private:
    Network &net_;
    TrainConfig cfg_;
    Sgd sgd_;
    Rng rng_;
    int steps_ = 0;
    int cleanRefreshes_ = 0;
    /** Per-fit weight cache (cfg.rps && cfg.cachedEngine). */
    std::unique_ptr<RpsEngine> engine_;

    /** Switch the training precision, through the engine when one is
     * attached. */
    void switchPrecision(int bits);

    /** Re-sync the engine cache after an optimizer step (dirty
     * layers only). */
    void syncEngine();

    /** Build the inner-maximization adversarial batch. */
    Tensor makeAdversarial(const Tensor &x, const std::vector<int> &y);

    /** One optimizer update on (x, y); returns the batch loss. */
    float updateStep(const Tensor &x, const std::vector<int> &y);

    /** One epoch of Free adversarial training over the dataset. */
    float freeEpoch(const Dataset &train,
                    const std::vector<int> &order);
};

} // namespace twoinone

#endif // TWOINONE_ADVERSARIAL_TRAINER_HH
