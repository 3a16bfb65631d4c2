/**
 * @file
 * Compiled execution plans: the one inference executor. Session's
 * inference calls, the serving Server (one replica per worker), the
 * evaluation helpers and the network's own integer reference
 * (Network::forwardQuantized) all run a plan.
 *
 * A Network is compiled once per (mode, max input shape) into an
 * ExecutionPlan — a flat list of steps (input quantize, int im2col +
 * igemm + fused dequant/bias, BN, ReLU, activation quantize, pool,
 * residual join, classifier GEMM) over a preallocated arena of
 * activation values, per-layer scratch buffers and one plan-wide
 * operand staging block. Executing a plan
 * performs *zero tensor allocations*: every buffer is sized during
 * compile()'s warm-up dry runs (one per candidate precision) and
 * reused across forwards; Tensor::allocationCount() pins the contract
 * in tests.
 *
 * Producer fusion is a compile choice. A fused plan (every serving
 * plan) runs an SBN followed by a ReLU as one pass, and when an
 * ActQuant and a conv follow, as one producer of the conv's
 * channel-last operand codes. An unfused plan (the network's
 * reference) runs each layer as its own step. Either way an ActQuant
 * whose consumers are all convs writes their channel-last operand,
 * and a conv step reads only channel-last codes or falls back to
 * float. The fused steps compute each element exactly as the unfused
 * ones do, so both plans are bit-identical at every candidate
 * precision, cached or uncached. Precision state is read live from
 * the layers at execution time: RpsEngine::setPrecision() between
 * runs switches the plan with no recompilation.
 *
 * A plan instance is not thread-safe (one arena); the serving runtime
 * (serve/runtime.hh) compiles one replica per worker and runs them
 * concurrently over read-only layer state.
 */

#ifndef TWOINONE_SERVE_EXECUTION_PLAN_HH
#define TWOINONE_SERVE_EXECUTION_PLAN_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hh"
#include "quant/linear_quantizer.hh"
#include "quant/quant_tensor.hh"
#include "tensor/tensor.hh"

namespace twoinone {

class Network;
class PrecisionSet;

namespace serve {

class ExecutionPlan;

/** Which forward path a plan compiles. */
enum class PlanMode {
    /** The float fake-quant datapath, bit-identical to
     * Network::forward at eval. */
    Float,
    /** The integer-code datapath (Network::forwardQuantized runs it
     * unfused). */
    Quantized,
};

/**
 * An arena-resident activation value: integer codes and/or a float
 * view, with persistent storage. Steps write NCHW codes (hasCodes:
 * an ActQuant feeding a non-conv consumer, GlobalAvgPool),
 * channel-last conv operand codes (hasChannelLast: an ActQuant or a
 * fused SBN+ReLU+quantize producer whose consumers are all convs) or
 * dense (denseReady), or alias another tensor (pass-through and the
 * external input); denseView() materializes the float view from the
 * codes on demand, into arena storage.
 */
struct Value
{
    /** External tensor this value aliases (input / pass-through). */
    const Tensor *alias = nullptr;
    Tensor dense;
    QuantTensor q;
    ChannelLastCodes cl;
    bool hasCodes = false;
    bool hasChannelLast = false;
    bool denseReady = false;

    const Tensor &
    denseView()
    {
        if (alias)
            return *alias;
        if (!denseReady && hasChannelLast) {
            cl.toQuantTensor(q);
            hasCodes = true;
        }
        if (!denseReady && hasCodes) {
            q.dequantizeInto(dense);
            denseReady = true;
        }
        return dense;
    }

    /** Reset per run (storage is retained). */
    void
    reset()
    {
        alias = nullptr;
        hasCodes = false;
        hasChannelLast = false;
        denseReady = false;
    }

    /** Bytes held by the value's storage. */
    size_t
    bytes() const
    {
        return dense.size() * sizeof(float) + q.bytes() + cl.bytes();
    }
};

/**
 * Per-emitted-layer scratch: the float weights a float step
 * dequantizes into, the uncached-codes fallback and the locally built
 * weight pack. Allocated once at compile, reused every forward. The operand staging (im2col columns, accumulators)
 * is plan-wide instead: steps run one after another, so one block
 * serves them all (ExecutionPlan::operands / floatCols).
 */
struct LayerScratch
{
    Tensor wq;          ///< float weights of a float step
    QuantTensor wcodes; ///< uncached weight codes fallback
    PackScratch pack;   ///< locally built tile-packed weights
};

/**
 * Step-emission interface handed to Layer::emitPlanSteps. Tracks the
 * "current" value id flowing through the (mostly sequential) graph;
 * composite layers fork and join ids explicitly.
 */
class PlanBuilder
{
  public:
    explicit PlanBuilder(ExecutionPlan &plan) : plan_(plan) {}

    PlanMode mode() const;

    /** Whether producer fusion is on (see ExecutionPlan::compile). */
    bool fuse() const;

    /** Id of the value feeding the next layer. */
    int top() const { return top_; }
    void setTop(int id) { top_ = id; }

    /** Allocate a fresh arena value. */
    int newValue();

    /** Allocate a per-layer scratch block. */
    int newScratch();

    /** Append a step. @p fn receives the executing plan; it must
     * perform no tensor allocations in the steady state. */
    void addStep(std::string label,
                 std::function<void(ExecutionPlan &)> fn);

  private:
    ExecutionPlan &plan_;
    int top_ = 0;
};

/**
 * The compiled plan: steps + arena. Compile through Network::compile.
 */
class ExecutionPlan
{
  public:
    ExecutionPlan(const ExecutionPlan &) = delete;
    ExecutionPlan &operator=(const ExecutionPlan &) = delete;

    /**
     * Compile @p net for @p mode with buffers sized for
     * @p max_input_shape ([N, C, H, W] of the largest batch). With
     * @p warm_all (the default), runs one warm-up dry pass per
     * candidate in @p precisions (plus full precision) so every arena
     * buffer reaches its high-water size before the first real
     * forward; with it off, only the full-precision structural pass
     * runs (shape discovery) and each candidate's buffers grow on its
     * first real run instead — the lazy-compilation mode that cuts
     * cold-start latency for large candidate sets (the zero-allocation
     * steady state is reached per precision after its first serve).
     * The network's active precision is restored on return.
     * @p fuse (the default) turns the SBN+ReLU and
     * SBN+ReLU+ActQuant producer peepholes on; with it off every
     * layer runs as its own step — the network's reference plan.
     */
    static std::unique_ptr<ExecutionPlan>
    compile(Network &net, const PrecisionSet &precisions, PlanMode mode,
            const std::vector<int> &max_input_shape,
            bool warm_all = true, bool fuse = true);

    /** Whether @p x runs on this plan: same rank and trailing dims as
     * the compiled shape, batch within maxBatch(). Owners of a plan
     * recompile for inputs that do not fit. */
    bool fits(const Tensor &x) const;

    /**
     * Execute the plan on @p x (x.dim(0) <= maxBatch(), trailing dims
     * must match the compiled shape) at the network's currently
     * active precision. Returns the logits, resident in the arena —
     * valid until the next run on this plan.
     */
    const Tensor &run(const Tensor &x);

    /** Execute on rows [row_lo, row_hi) of @p batch (staged into the
     * arena) — the micro-batch entry point over one packed tensor. */
    const Tensor &runRows(const Tensor &batch, int row_lo, int row_hi);

    /**
     * Execute on @p nrows rows gathered straight from caller-owned
     * row pointers (each @p row_elems floats) — the serving runtime's
     * zero-intermediate entry point: request tensors stage directly
     * into the plan arena with no packed batch buffer in between.
     */
    const Tensor &runStaged(const float *const *rows, int nrows,
                            size_t row_elems);

    PlanMode mode() const { return mode_; }
    int maxBatch() const { return maxShape_[0]; }
    const std::vector<int> &maxInputShape() const { return maxShape_; }
    const std::vector<int> &outputShape() const { return outShape_; }
    size_t numSteps() const { return steps_.size(); }

    /** One line per step (diagnostics). */
    std::string describe() const;

    /** Mean wall microseconds per step over @p reps runs of @p x
     * (diagnostics; labels match describe()). */
    std::vector<std::pair<std::string, double>>
    profileSteps(const Tensor &x, int reps);

    /** Bytes held by the arena values and scratch blocks. */
    size_t arenaBytes() const;

    /** @name Step-execution accessors (used by emitted closures) */
    /** @{ */
    Value &value(int id);
    LayerScratch &scratch(int id);
    /** The integer operand staging every step shares. */
    IntGemmScratch &operands() { return operands_; }
    /** The float im2col columns every float conv step shares. */
    Tensor &floatCols() { return floatCols_; }
    /** @} */

    /** @name Arena introspection (tests/diagnostics) */
    /** @{ */
    size_t numScratch() const { return scratch_.size(); }
    const LayerScratch &scratchAt(int id) const;
    /** @} */

  private:
    friend class PlanBuilder;

    ExecutionPlan() = default;

    struct Step
    {
        std::string label;
        std::function<void(ExecutionPlan &)> fn;
    };

    void execute();

    PlanMode mode_ = PlanMode::Float;
    bool fuse_ = true;
    std::vector<int> maxShape_;
    std::vector<int> outShape_;
    std::vector<Step> steps_;
    /** Deques keep element addresses stable while emitters append. */
    std::deque<Value> values_;
    std::deque<LayerScratch> scratch_;
    IntGemmScratch operands_;
    Tensor floatCols_;
    Tensor stage_;   ///< runRows staging buffer
    int inputId_ = 0;
    int outputId_ = 0;
    const Tensor *input_ = nullptr;
};

} // namespace serve
} // namespace twoinone

#endif // TWOINONE_SERVE_EXECUTION_PLAN_HH
