/**
 * @file
 * Pooling and shape-adapter layers.
 */

#ifndef TWOINONE_NN_POOLING_HH
#define TWOINONE_NN_POOLING_HH

#include "nn/layer.hh"

namespace twoinone {

/**
 * Global average pooling: [N,C,H,W] -> [N,C].
 */
class GlobalAvgPool : public Layer
{
  public:
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;

    /** Quantized plans pool codes through inferQuantInto when the
     * input carries them, else run inferFloatInto. */
    void emitPlanSteps(serve::PlanBuilder &b) override;

    /** @name Allocation-free plan kernels */
    /** @{ */
    void inferFloatInto(const Tensor &x, Tensor &out) const;
    /** Integer-exact pooled codes: summing the grid codes and folding
     * 1/(H*W) into the scale keeps the value on an integer grid
     * (wider codes, scale / HW), so the classifier head can stay on
     * the integer datapath. */
    void inferQuantInto(const QuantTensor &xq, QuantTensor &out) const;
    /** @} */

    std::string describe() const override { return "GlobalAvgPool"; }
    LayerSpec spec() const override { return {"gap", {}}; }

  private:
    std::vector<int> cachedInShape_;
};

/**
 * Non-overlapping 2x2 average pooling: [N,C,H,W] -> [N,C,H/2,W/2].
 */
class AvgPool2x2 : public Layer
{
  public:
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    void emitPlanSteps(serve::PlanBuilder &b) override;
    /** Pool into a caller-owned buffer (the allocation-free plan
     * form; forward wraps it). */
    void inferFloatInto(const Tensor &x, Tensor &out) const;
    std::string describe() const override { return "AvgPool2x2"; }
    LayerSpec spec() const override { return {"avgpool2x2", {}}; }

  private:
    std::vector<int> cachedInShape_;
};

/**
 * Flatten: [N, ...] -> [N, prod(...)].
 */
class Flatten : public Layer
{
  public:
    Tensor forward(const Tensor &x, bool train) override;
    Tensor backward(const Tensor &grad_out) override;
    void emitPlanSteps(serve::PlanBuilder &b) override;
    std::string describe() const override { return "Flatten"; }
    LayerSpec spec() const override { return {"flatten", {}}; }

  private:
    std::vector<int> cachedInShape_;
};

} // namespace twoinone

#endif // TWOINONE_NN_POOLING_HH
