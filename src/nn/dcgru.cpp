#include "nn/dcgru.h"

namespace pgti::nn {

DCGRUCell::DCGRUCell(std::int64_t input_dim, std::int64_t hidden_dim,
                     const GraphSupports& supports, int max_diffusion_steps, Rng& rng)
    : input_(input_dim),
      hidden_(hidden_dim),
      supports_(&supports),
      gates_(input_dim + hidden_dim, 2 * hidden_dim, supports, max_diffusion_steps, rng),
      candidate_(input_dim + hidden_dim, hidden_dim, supports, max_diffusion_steps, rng) {
  register_module("gates", &gates_);
  register_module("candidate", &candidate_);
}

Variable DCGRUCell::forward(const Variable& x, const Variable& h) const {
  return forward(x, h, *supports_);
}

Variable DCGRUCell::forward(const Variable& x, const Variable& h,
                            const GraphSupports& supports) const {
  Variable xh = ag::concat_lastdim({x, h});
  Variable pre = gates_.forward(xh, supports);  // [B, N, 2H]
  auto [rh, u] = ag::gru_gates(pre, h);
  Variable xc = ag::concat_lastdim({x, rh});
  Variable c = candidate_.forward_act(xc, supports, ops::Act::kTanh);
  return ag::gru_state(c, u, h);
}

}  // namespace pgti::nn
