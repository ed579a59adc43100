// Differentiable operations.
//
// Forward computation delegates to pgti::ops kernels; each function
// installs a closed-form backward.  All gradients are exercised by
// finite-difference tests (tests/autograd_test.cpp).
#pragma once

#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "graph/csr.h"
#include "tensor/tensor_ops.h"

namespace pgti::ag {

// --- arithmetic -------------------------------------------------------
Variable add(const Variable& a, const Variable& b);
Variable sub(const Variable& a, const Variable& b);
Variable mul(const Variable& a, const Variable& b);
Variable neg(const Variable& a);
Variable mul_scalar(const Variable& a, float s);

/// m[M,C] + bias[C] broadcast over rows.
Variable add_bias(const Variable& m, const Variable& bias);
/// m[M,C] * col[M,1] broadcast over columns.
Variable mul_colvec(const Variable& m, const Variable& col);

// --- linear algebra ----------------------------------------------------
/// [M,K] x [K,N] -> [M,N]
Variable matmul(const Variable& a, const Variable& b);
/// Sparse graph propagation: y = P x for x [N,C] or [B,N,C].
/// `p_transpose` must be P^T (used for the input gradient).
Variable spmm(const Csr& p, const Csr& p_transpose, const Variable& x);

// --- fused ops (DESIGN.md §14) -----------------------------------------
// Forward runs the bias add and activation in the producing kernel's
// store epilogue; backward applies the activation derivative once and
// feeds the matmul/SpMM/colsum gradients directly.  Values and
// gradients are bit-identical to the unfused composition
// act(add_bias(matmul(a, w), bias)) etc.
/// act(a * w + bias) in one node.
Variable matmul_bias_act(const Variable& a, const Variable& w, const Variable& bias,
                         ops::Act act);
/// act(P x + bias) in one node, x [N,C] or [B,N,C], bias [C].
Variable spmm_bias_act(const Csr& p, const Csr& p_transpose, const Variable& x,
                       const Variable& bias, ops::Act act);
/// Fused DCGRU gate block over pre [.., 2H] and hidden state h [.., H]:
/// r = sigmoid(pre[.., :H]), u = sigmoid(pre[.., H:]), returns
/// {r*h, u} as two nodes.  Replaces sigmoid + two slices + mul (four
/// tape nodes, four materialized tensors) with one kernel pass.
std::pair<Variable, Variable> gru_gates(const Variable& pre, const Variable& h);
/// c + u*(h - c) in one node (the GRU state update) without the
/// sub/mul/add temporaries.
Variable gru_state(const Variable& c, const Variable& u, const Variable& h);

// --- activations -------------------------------------------------------
Variable sigmoid(const Variable& a);
Variable tanh(const Variable& a);
Variable relu(const Variable& a);

// --- shape -----------------------------------------------------------------
Variable reshape(const Variable& a, const Shape& shape);
Variable concat_lastdim(const std::vector<Variable>& parts);
/// Contiguous subrange along dimension 0.
Variable slice_dim0(const Variable& a, std::int64_t start, std::int64_t length);
/// Subrange along the last dimension (gate splitting in GRU cells).
Variable slice_lastdim(const Variable& a, std::int64_t start, std::int64_t length);

// --- reductions -------------------------------------------------------------
Variable sum_all(const Variable& a);   ///< scalar [1]
Variable mean_all(const Variable& a);  ///< scalar [1]

// --- normalization / attention ------------------------------------------------
Variable softmax_lastdim(const Variable& a);
/// LayerNorm over the last dimension with affine parameters.
Variable layer_norm(const Variable& a, const Variable& gamma, const Variable& beta,
                    float eps = 1e-5f);
/// Fused scaled-dot-product self-attention over B batches of N tokens:
/// inputs q,k,v are [B*N, D]; output is [B*N, D].  Softmax over each
/// batch's N keys.
Variable batched_attention(const Variable& q, const Variable& k, const Variable& v,
                           std::int64_t batch, std::int64_t tokens);

// --- losses (target is constant) ----------------------------------------------
Variable mae_loss(const Variable& pred, const Tensor& target);
Variable mse_loss(const Variable& pred, const Tensor& target);
/// Masked MAE as used by DCRNN on PeMS: entries where the target equals
/// `null_value` (missing sensor readings) contribute neither loss nor
/// gradient; the mean is over valid entries only.
Variable masked_mae_loss(const Variable& pred, const Tensor& target,
                         float null_value = 0.0f);
/// Huber/smooth-L1 loss with threshold delta.
Variable huber_loss(const Variable& pred, const Tensor& target, float delta = 1.0f);

}  // namespace pgti::ag
