/**
 * @file
 * Evaluation harness: natural accuracy, robust accuracy under a given
 * attack with independent attack/inference precisions (the Fig. 1
 * transfer matrix), and RPS random-precision inference evaluation
 * (Alg. 1 lines 14-19).
 */

#ifndef TWOINONE_ADVERSARIAL_EVALUATION_HH
#define TWOINONE_ADVERSARIAL_EVALUATION_HH

#include "adversarial/attack.hh"
#include "data/synthetic.hh"
#include "serve/session.hh"

namespace twoinone {

/**
 * Natural (clean) accuracy of the network at its active precision.
 *
 * @param net Network under test.
 * @param data Evaluation dataset.
 * @param batch_size Evaluation batch size.
 * @return Accuracy percentage in [0, 100].
 */
double naturalAccuracy(Network &net, const Dataset &data,
                       int batch_size = 64);

/**
 * Robust accuracy with explicit attack / inference precisions.
 *
 * The attack is generated against the model quantized to
 * @p attack_bits, then evaluated with the model quantized to
 * @p infer_bits — off-diagonal settings measure transferability
 * (paper Fig. 1).
 *
 * @param net Network under test (precision is restored on return).
 * @param attack Attack to run.
 * @param data Evaluation dataset.
 * @param attack_bits Precision used for attack generation (0 = FP).
 * @param infer_bits Precision used for inference (0 = FP).
 * @param rng Attack randomness.
 * @param batch_size Evaluation batch size.
 * @return Robust accuracy percentage.
 */
double robustAccuracy(Network &net, Attack &attack, const Dataset &data,
                      int attack_bits, int infer_bits, Rng &rng,
                      int batch_size = 64);

/**
 * RPS-inference robust accuracy (Alg. 1 RPS Inference).
 *
 * Per batch, the adversary samples an attack precision and the
 * defender independently samples an inference precision, both
 * uniformly from the session's candidate set — the paper's default
 * threat model where the adversary knows and uses the same candidate
 * set (Sec. 4.1.1). Precision switches run through the session's
 * engine cache; predictions run the session's compiled plans.
 *
 * @param s Deployed model under test.
 * @param attack Attack to run.
 * @param data Evaluation dataset.
 * @param rng Randomness for both samplers.
 * @param batch_size Evaluation batch size (one precision draw each).
 * @return Robust accuracy percentage.
 */
double rpsRobustAccuracy(Session &s, Attack &attack, const Dataset &data,
                         Rng &rng, int batch_size = 16);

/**
 * Network-level convenience: wires a temporary Session (engine cache
 * on @p set, predictions on its plans) around @p net, runs the
 * Session overload, and restores the network's precision.
 */
double rpsRobustAccuracy(Network &net, Attack &attack, const Dataset &data,
                         const PrecisionSet &set, Rng &rng,
                         int batch_size = 16);

/**
 * RPS natural accuracy: random inference precision per batch, clean
 * inputs.
 */
double rpsNaturalAccuracy(Session &s, const Dataset &data, Rng &rng,
                          int batch_size = 16);

/** Network-level convenience (see rpsRobustAccuracy). */
double rpsNaturalAccuracy(Network &net, const Dataset &data,
                          const PrecisionSet &set, Rng &rng,
                          int batch_size = 16);

/**
 * RPS natural accuracy served from the integer datapath
 * (the session's quantized plans over the engine's cached int codes) —
 * what the bit-serial accelerator would actually compute. Matches
 * rpsNaturalAccuracy up to the documented int-vs-float rounding
 * tolerance; calibrate the session first for the quantization-free
 * static-scale path.
 */
double rpsNaturalAccuracyQuantized(Session &s, const Dataset &data,
                                   Rng &rng, int batch_size = 16);

/** Network-level convenience (see rpsRobustAccuracy). */
double rpsNaturalAccuracyQuantized(Network &net, const Dataset &data,
                                   const PrecisionSet &set, Rng &rng,
                                   int batch_size = 16);

/**
 * The Fig. 1 transferability matrix.
 *
 * entry[i][j] = robust accuracy when attacking at set[i] and
 * inferring at set[j].
 */
std::vector<std::vector<double>>
transferMatrix(Network &net, Attack &attack, const Dataset &data,
               const PrecisionSet &set, Rng &rng, int batch_size = 64);

} // namespace twoinone

#endif // TWOINONE_ADVERSARIAL_EVALUATION_HH
