// Core layers: Linear and graph diffusion convolution.
#pragma once

#include <vector>

#include "autograd/ops.h"
#include "graph/csr.h"
#include "nn/module.h"
#include "runtime/rng.h"

namespace pgti::nn {

/// Fully connected layer: y = x W + b for x [M, in].
class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng);

  Variable forward(const Variable& x) const;
  /// Fused y = act(x W + b): the activation runs in the matmul store
  /// epilogue — one tape node, no intermediate tensors.  Bit-identical
  /// to act(forward(x)).
  Variable forward_act(const Variable& x, ops::Act act) const;

  std::int64_t in_features() const noexcept { return in_; }
  std::int64_t out_features() const noexcept { return out_; }

 private:
  std::int64_t in_;
  std::int64_t out_;
  Variable weight_;
  Variable bias_;
};

/// Graph supports prepared for diffusion convolution: each transition
/// matrix is stored together with its transpose (for SpMM backward).
struct GraphSupports {
  std::vector<Csr> mats;
  std::vector<Csr> transposed;

  static GraphSupports from(std::vector<Csr> supports);
  std::size_t count() const noexcept { return mats.size(); }
};

/// Diffusion convolution (DCRNN, Li et al. 2018):
///   out = sum_{s in supports} sum_{k=1..K} (P_s^k x) W_{s,k}  +  x W_0  + b
/// computed by concatenating the K-hop propagated features and applying
/// one fused weight matrix.  Input [B, N, Cin] -> output [B, N, Cout].
class DiffusionConv : public Module {
 public:
  DiffusionConv(std::int64_t in_channels, std::int64_t out_channels,
                const GraphSupports& supports, int max_diffusion_steps, Rng& rng);

  Variable forward(const Variable& x) const;

  /// Forward with per-call graph supports (dynamic topology, paper §7
  /// future work).  `supports` must have the same count as the
  /// constructor's supports (the weight layout depends on it).
  Variable forward(const Variable& x, const GraphSupports& supports) const;

  /// Fused out = act(DConv(x)): the activation runs in the projection
  /// matmul's store epilogue.  Bit-identical to act(forward(x, supports)).
  Variable forward_act(const Variable& x, const GraphSupports& supports,
                       ops::Act act) const;

  std::int64_t in_channels() const noexcept { return in_; }
  std::int64_t out_channels() const noexcept { return out_; }

 private:
  std::int64_t in_;
  std::int64_t out_;
  const GraphSupports* supports_;  // not owned; outlives the model
  int k_;
  Variable weight_;  // [(1 + S*K) * Cin, Cout]
  Variable bias_;    // [Cout]
};

}  // namespace pgti::nn
