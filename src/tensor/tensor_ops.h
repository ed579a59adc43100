// Threaded compute kernels over contiguous tensors.
//
// These are the forward primitives; autograd composes them into
// differentiable ops.  Kernels parallelize over the leading dimension
// with OpenMP-style parallel_for.  Inputs must be contiguous (views
// from index-batching are made contiguous during batch assembly, which
// is exactly the copy the paper's batch collation performs).
//
// Determinism invariant (DESIGN.md §14): every kernel accumulates each
// output element in an order that is a pure function of the operand
// shapes — never of the thread count, blocking factors, or SIMD width.
// The register-blocked matmul family and the fused epilogues below are
// therefore bit-identical to the seed kernels (kept as test and bench
// oracles in reference/), and losses stay bit-identical across world
// sizes, strategies, and prefetch depths.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace pgti::ops {

/// Activation applied by the fused matmul/SpMM epilogues.
enum class Act : std::uint8_t { kIdentity, kSigmoid, kTanh, kRelu };

/// Scalar activation — the single definition every fused kernel and its
/// unfused counterpart share, so fused/unfused results are bit-identical.
inline float act_apply(Act act, float x) {
  switch (act) {
    case Act::kSigmoid:
      return 1.0f / (1.0f + std::exp(-x));
    case Act::kTanh:
      return std::tanh(x);
    case Act::kRelu:
      return x > 0.0f ? x : 0.0f;
    case Act::kIdentity:
      break;
  }
  return x;
}

// --- elementwise binary (same shape) ---------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

// --- elementwise with scalar ------------------------------------------
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

// --- in-place ----------------------------------------------------------
void add_(Tensor& a, const Tensor& b);           ///< a += b
void sub_(Tensor& a, const Tensor& b);           ///< a -= b
void mul_(Tensor& a, const Tensor& b);           ///< a *= b
void scale_(Tensor& a, float s);                 ///< a *= s
void axpy_(float alpha, const Tensor& x, Tensor& y);  ///< y += alpha * x
void apply_act_(Tensor& t, Act act);             ///< t = act(t)

// --- output-reusing binary (out preallocated; may alias a or b) --------
void sub_into(const Tensor& a, const Tensor& b, Tensor& out);  ///< out = a - b

// --- unary ---------------------------------------------------------------
Tensor sigmoid(const Tensor& t);
Tensor tanh(const Tensor& t);
Tensor relu(const Tensor& t);
Tensor exp(const Tensor& t);
Tensor abs(const Tensor& t);
Tensor neg(const Tensor& t);

// --- linear algebra -------------------------------------------------------
/// C[M,N] = A[M,K] * B[K,N]  (register-blocked, cache-tiled)
Tensor matmul(const Tensor& a, const Tensor& b);
/// C[M,N] = A[K,M]^T * B[K,N]  (used by matmul backward wrt rhs)
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C[M,N] = A[M,K] * B[N,K]^T  (used by matmul backward wrt lhs)
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// Fused C = act(A * B + bias): the bias add and activation run in the
/// matmul's store epilogue instead of as two extra passes with two
/// intermediate tensors.  Bit-identical to
/// act(add_bias(matmul(a, b), bias)).
Tensor matmul_bias_act(const Tensor& a, const Tensor& b, const Tensor& bias, Act act);

/// dz = g ⊙ act'(y), evaluated from the saved forward output y with the
/// exact per-element expressions of the unfused sigmoid/tanh/relu
/// backwards.  Identity returns g itself (aliasing view, no copy).
Tensor act_backward(const Tensor& g, const Tensor& y, Act act);

/// Fused backward epilogue (DESIGN.md §16): computes dz = g ⊙ act'(y)
/// into `dz` (preallocated, g's shape) and returns dA = dz * W^T in one
/// parallel dispatch — each row block runs the activation-backward
/// pre-pass immediately before its NT panel gemm, so dz rows are
/// consumed cache-hot and the separate elementwise pass disappears.
/// Bit-identical to matmul_nt(act_backward(g, y, act), w): the dz
/// expressions and the panel kernel are the same code, per element.
/// `dz` stays fully materialized for the matmul_tn/colsum consumers.
Tensor matmul_nt_act_backward(const Tensor& g, const Tensor& y, Act act,
                              const Tensor& w, Tensor& dz);

/// out[M,C] = m[M,C] + bias[C] broadcast over rows.
Tensor add_bias(const Tensor& m, const Tensor& bias);
/// out[M,C] = m[M,C] * col[M,1] broadcast over columns.
Tensor mul_colvec(const Tensor& m, const Tensor& col);

// --- fused GRU gate kernels -------------------------------------------------
/// One pass over pre [.., 2H] and h [.., H] computing the DCGRU gate
/// block: r = sigmoid(pre[.., :H]), u = sigmoid(pre[.., H:]), rh = r*h.
/// r/u/rh must be preallocated with h's shape.  Replaces
/// sigmoid + 2x slice + mul (four tensors, four passes) with one pass.
void gru_gates(const Tensor& pre, const Tensor& h, Tensor& r, Tensor& u, Tensor& rh);
/// out = c + u*(h - c) in one pass (the GRU state update), without the
/// sub/mul/add temporaries.
Tensor gru_state(const Tensor& c, const Tensor& u, const Tensor& h);

// --- reductions ------------------------------------------------------------
double sum(const Tensor& t);
double mean(const Tensor& t);
float max_abs(const Tensor& t);
/// Column sums: [M,C] -> [C] (bias gradients).
Tensor colsum(const Tensor& m);
/// Row sums: [M,C] -> [M,1].
Tensor rowsum(const Tensor& m);

// --- shape/manipulation -----------------------------------------------------
/// Concatenate along the last dimension; all other dims must match.
Tensor concat_lastdim(const std::vector<Tensor>& parts);

// --- softmax -----------------------------------------------------------------
/// Softmax over the last dimension (numerically stabilized).
Tensor softmax_lastdim(const Tensor& t);

// --- metrics ------------------------------------------------------------------
double mae(const Tensor& pred, const Tensor& target);
double mse(const Tensor& pred, const Tensor& target);
/// Max |a-b| over all elements; handy for exactness tests.
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace pgti::ops
