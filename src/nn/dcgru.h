// Diffusion-convolutional GRU cell (the DCRNN building block).
#pragma once

#include "nn/layers.h"

namespace pgti::nn {

/// GRU cell whose input/hidden transforms are diffusion convolutions
/// over the sensor graph (Li et al. 2018, Eq. 3):
///   r,u = sigmoid(DConv([x, h]))
///   c   = tanh(DConv([x, r*h]))
///   h'  = u*h + (1-u)*c
/// The gate sigmoids + r*h, the candidate tanh (in the DConv projection
/// epilogue), and the state update run as three fused kernel passes
/// (ag::gru_gates / forward_act / ag::gru_state); values and gradients
/// are bit-identical to the unfused composition (DESIGN.md §14).
class DCGRUCell : public Module {
 public:
  DCGRUCell(std::int64_t input_dim, std::int64_t hidden_dim,
            const GraphSupports& supports, int max_diffusion_steps, Rng& rng);

  /// x [B, N, input_dim], h [B, N, hidden_dim] -> new hidden state.
  Variable forward(const Variable& x, const Variable& h) const;

  /// Dynamic-topology step: uses `supports` for this step's diffusion
  /// (paper §7's dynamic graphs with temporal signal).
  Variable forward(const Variable& x, const Variable& h,
                   const GraphSupports& supports) const;

  std::int64_t hidden_dim() const noexcept { return hidden_; }
  std::int64_t input_dim() const noexcept { return input_; }

 private:
  std::int64_t input_;
  std::int64_t hidden_;
  const GraphSupports* supports_;  // not owned; outlives the model
  DiffusionConv gates_;      // -> [B, N, 2H] (r, u fused)
  DiffusionConv candidate_;  // -> [B, N, H]
};

}  // namespace pgti::nn
