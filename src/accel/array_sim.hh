/**
 * @file
 * Cycle-stepped functional simulation of the 2-in-1 MAC array.
 *
 * The analytical predictor (predictor.hh) answers "how fast/with how
 * much energy"; this simulator answers "is the datapath *correct* and
 * does its schedule really take that many cycles". It executes a
 * quantized convolution layer on an array of grouped spatial-temporal
 * MAC units (bit-true GroupedMacDatapath arithmetic, the Sec. 3.2.1
 * schedule cycle by cycle) and reports the exact integer outputs plus
 * the cycle count, so tests can check both against the nn library's
 * quantized execution and against the predictor's compute model.
 */

#ifndef TWOINONE_ACCEL_ARRAY_SIM_HH
#define TWOINONE_ACCEL_ARRAY_SIM_HH

#include <cstdint>
#include <vector>

#include "accel/bitserial.hh"
#include "quant/quant_tensor.hh"
#include "workloads/layer_shape.hh"

namespace twoinone {

/**
 * Integer feature map / weight container for the simulator:
 * row-major [C, H, W] (activations) or [K, C, R, S] (weights).
 */
struct IntTensor
{
    std::vector<int> shape;
    std::vector<int64_t> data;

    int64_t &at(std::initializer_list<int> idx);
    int64_t at(std::initializer_list<int> idx) const;
    size_t size() const { return data.size(); }

    static IntTensor zeros(std::vector<int> shape);

    /** Copy a QuantTensor's codes (the canonical quantized form) —
     * the simulator consumes codes directly, no float re-pass. */
    static IntTensor fromCodes(const QuantTensor &q);
};

/**
 * Result of simulating one layer on the array.
 */
struct ArraySimResult
{
    /** Exact integer outputs [K, OY, OX]. */
    IntTensor output;
    /** Cycles the schedule consumed. */
    uint64_t cycles = 0;
    /** MAC operations executed (excluding idle-lane padding). */
    uint64_t macs = 0;
    /** MAC slots wasted to under-filled passes. */
    uint64_t idleMacSlots = 0;
};

/**
 * The array simulator: num_units grouped MAC units stepping in
 * lockstep waves.
 */
class MacArraySimulator
{
  public:
    /**
     * @param num_units MAC units in the array.
     * @param units_per_group Partial sums per unit pass (Opt-1's n).
     */
    explicit MacArraySimulator(int num_units, int units_per_group = 4);

    /**
     * Execute a conv layer (batch 1).
     *
     * @param weights Integer weight codes [K, C, R, S], |w| < 2^(p-1).
     * @param input Integer activation codes [C, IY, IX].
     * @param stride Convolution stride.
     * @param padding Zero padding.
     * @param w_bits Weight precision.
     * @param a_bits Activation precision.
     */
    ArraySimResult runConv(const IntTensor &weights,
                           const IntTensor &input, int stride,
                           int padding, int w_bits, int a_bits) const;

    /**
     * Execute a conv layer straight from canonical quantized tensors:
     * the same int codes the nn library's quantized plan steps consume
     * (e.g. out of the RpsEngine cache and an ActQuant), with the
     * precisions taken from the QuantTensors themselves. @p weights
     * is [K,C,R,S]; @p input is one image [C,IY,IX].
     */
    ArraySimResult runConv(const QuantTensor &weights,
                           const QuantTensor &input, int stride,
                           int padding) const;

    int numUnits() const { return numUnits_; }

  private:
    int numUnits_;
    int unitsPerGroup_;
    GroupedMacDatapath datapath_;
};

} // namespace twoinone

#endif // TWOINONE_ACCEL_ARRAY_SIM_HH
