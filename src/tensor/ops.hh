/**
 * @file
 * Elementwise / reduction / linear-algebra operations on Tensor.
 *
 * All functions are shape-checked (panic on mismatch) and allocate
 * fresh outputs except the *InPlace variants used on hot paths of the
 * training loop and the attacks.
 *
 * The matmul variants dispatch to the gemm backend (blocked/parallel
 * by default, TWOINONE_BACKEND=naive for the reference path) and the
 * element-wise ops parallelize across the global ThreadPool above a
 * size threshold; see tensor/gemm.hh for the determinism contract.
 */

#ifndef TWOINONE_TENSOR_OPS_HH
#define TWOINONE_TENSOR_OPS_HH

#include <cstdint>
#include <functional>

#include "tensor/tensor.hh"

namespace twoinone {
namespace ops {

/**
 * Run fn(lo, hi) over [0, n) on the global thread pool above
 * @p grain elements, serial under TWOINONE_BACKEND=naive — the one
 * backend-gated chunking helper shared by the quantizer passes and
 * the nn-layer epilogues. Callers must make fn's writes disjoint so
 * results are identical for any thread count.
 */
void gatedParallelFor(int64_t n, int64_t grain,
                      const std::function<void(int64_t, int64_t)> &fn);

/** @name Elementwise binary ops (shapes must match) */
/** @{ */
Tensor add(const Tensor &a, const Tensor &b);
/** out = a + b into a caller-owned buffer (reshaped as needed) — the
 * allocation-free form the serving plan's residual join runs on;
 * add() wraps it, so both are bit-identical. @p out must not alias
 * the inputs. */
void addInto(const Tensor &a, const Tensor &b, Tensor &out);
Tensor sub(const Tensor &a, const Tensor &b);
Tensor mul(const Tensor &a, const Tensor &b);
/** @} */

/** @name Elementwise scalar ops */
/** @{ */
Tensor addScalar(const Tensor &a, float s);
Tensor mulScalar(const Tensor &a, float s);
/** @} */

/** @name In-place updates (a is mutated and returned by reference) */
/** @{ */
Tensor &addInPlace(Tensor &a, const Tensor &b);
Tensor &subInPlace(Tensor &a, const Tensor &b);
/** a += s * b  (axpy). */
Tensor &axpyInPlace(Tensor &a, float s, const Tensor &b);
Tensor &mulScalarInPlace(Tensor &a, float s);
/** Clamp every element into [lo, hi]. */
Tensor &clampInPlace(Tensor &a, float lo, float hi);
/** @} */

/** Elementwise sign: -1 / 0 / +1. */
Tensor sign(const Tensor &a);

/** Elementwise absolute value. */
Tensor abs(const Tensor &a);

/** Clamp copy. */
Tensor clamp(const Tensor &a, float lo, float hi);

/** @name Reductions */
/** @{ */
float sum(const Tensor &a);
float mean(const Tensor &a);
/** Maximum |a[i]| (0 for empty). Parallel over fixed-size chunks —
 * float max is exact under any combination order, so the result is
 * bit-identical to the serial reference (which TWOINONE_BACKEND=naive
 * forces). */
float maxAbs(const Tensor &a);
/** Maximum of max(a[i], 0) — the unsigned-quantizer range; same
 * chunked-parallel reduction as maxAbs. */
float maxVal(const Tensor &a);
/** Index of the maximum element of a rank-1 tensor or a row. */
int argmaxRow(const Tensor &logits, int row);
/** argmaxRow of every row of rank-2 logits (predicted classes). */
std::vector<int> argmaxRows(const Tensor &logits);
/** L-infinity distance between two same-shape tensors. */
float linfDistance(const Tensor &a, const Tensor &b);
/** L2 norm of all elements. */
float l2Norm(const Tensor &a);
/** @} */

/**
 * Row-major matrix multiply: C[m,n] = A[m,k] * B[k,n].
 */
Tensor matmul(const Tensor &a, const Tensor &b);

/**
 * Matrix multiply with transposed second operand:
 * C[m,n] = A[m,k] * B[n,k]^T. Used by Linear backward.
 *
 * Accumulates in float like the other two variants (the seed
 * accumulated this one in double; the backends keep all three
 * consistent — see tensor/gemm.hh).
 */
Tensor matmulTransposeB(const Tensor &a, const Tensor &b);

/** matmulTransposeB into a caller-owned buffer (reshaped as needed) —
 * the allocation-free form Linear's plan step runs on; the allocating
 * overload wraps it, so both hit the same backend dispatch. */
void matmulTransposeBInto(const Tensor &a, const Tensor &b, Tensor &out);

/**
 * Matrix multiply with transposed first operand:
 * C[k,n] = A[m,k]^T * B[m,n]. Used by Linear weight gradients.
 */
Tensor matmulTransposeA(const Tensor &a, const Tensor &b);

/**
 * Project b onto the L-infinity ball of radius eps centered at a,
 * in place on b (the PGD projection step).
 */
void projectLinf(const Tensor &center, float eps, Tensor &x);

} // namespace ops
} // namespace twoinone

#endif // TWOINONE_TENSOR_OPS_HH
