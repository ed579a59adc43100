// Oracles for the optimized compute path (DESIGN.md §14).
//
// The seed kernels and the unfused DCGRU composition that the memcmp
// parity tests and bench_kernels' before/after claims compare the hot
// path against.  This is the pgti_reference library: only tests/ and
// bench/ link it, so libpgti ships one compute path and no oracle.
// Every oracle here is bit-identical to the kernel it checks; the
// accumulation-order argument is §14's.
#pragma once

#include <string>
#include <vector>

#include "autograd/variable.h"
#include "graph/csr.h"
#include "nn/layers.h"
#include "tensor/tensor.h"

namespace pgti::ops {

/// Seed naive triple-loop matmul (with its `a[i][k] == 0` skip).
Tensor matmul_reference(const Tensor& a, const Tensor& b);
/// Seed backward kernels (rank-1 update loop and row-row dot products).
/// Same per-element k-ascending accumulation as the blocked tn/nt, so
/// identical bits at pre-optimization speed.
Tensor matmul_tn_reference(const Tensor& a, const Tensor& b);
Tensor matmul_nt_reference(const Tensor& a, const Tensor& b);

}  // namespace pgti::ops

namespace pgti::ag {

/// Differentiable matmul over the seed kernels, forward and backward,
/// so a reference training step is priced like the code it replaced.
Variable matmul_reference(const Variable& a, const Variable& b);

}  // namespace pgti::ag

namespace pgti {

/// Seed batched SpMM: x [B, cols, C] -> [B, rows, C], parallel over the
/// batch only, each row accumulated left to right over `a`'s entries.
Tensor spmm_batched_reference(const Csr& a, const Tensor& x);

}  // namespace pgti

namespace pgti::nn {

/// The unfused DCGRU cell over a DCGRUCell's parameters: sigmoid, two
/// slices and a mul for the gates, a separate tanh for the candidate,
/// sub/mul/add for the state update, and every diffusion-conv
/// projection through ag::matmul_reference plus ag::add_bias.
/// Gradients land on the bound module's own parameters.
class DcgruCellReference {
 public:
  /// Binds `<prefix>gates.{weight,bias}` and
  /// `<prefix>candidate.{weight,bias}` from `owner.named_parameters()`:
  /// "" for a DCGRUCell, "cell." for a PGTDCRNN.
  DcgruCellReference(const Module& owner, const std::string& prefix);

  /// x [B, N, in], h [B, N, H] -> new hidden state, diffusing over
  /// `supports` (the cell's own, or a dynamic step's).
  Variable forward(const Variable& x, const Variable& h,
                   const GraphSupports& supports) const;

  std::int64_t hidden_dim() const;

 private:
  Variable gates_weight_;
  Variable gates_bias_;
  Variable candidate_weight_;
  Variable candidate_bias_;
};

/// PGTDCRNN::forward_seq with DcgruCellReference as the cell.  The
/// readout is the model's own `readout.*` Linear, applied exactly as
/// the model applies it.
class PgtDcrnnReference {
 public:
  PgtDcrnnReference(const Module& model, const GraphSupports& supports);

  std::vector<Variable> forward_seq(const Tensor& x) const;

 private:
  const GraphSupports* supports_;  // not owned; outlives this
  DcgruCellReference cell_;
  Variable readout_weight_;
  Variable readout_bias_;
};

}  // namespace pgti::nn
