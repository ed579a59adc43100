#include "nn/dcrnn.h"

#include <stdexcept>

namespace pgti::nn {
namespace {

// Wraps time step t of batch tensor x [B, T, N, F] as a constant
// Variable [B, N, F].
Variable step_input(const Tensor& x, std::int64_t t) {
  return Variable(x.select(1, t).contiguous(), /*requires_grad=*/false);
}

Variable zero_state(std::int64_t b, std::int64_t n, std::int64_t h, MemorySpaceId space) {
  return Variable(Tensor::zeros({b, n, h}, space), /*requires_grad=*/false);
}

}  // namespace

PGTDCRNN::PGTDCRNN(const PgtDcrnnOptions& options, const GraphSupports& supports)
    : options_(options),
      rng_(options.seed),
      cell_(options.input_dim, options.hidden_dim, supports, options.max_diffusion_steps,
            rng_),
      readout_(options.hidden_dim, options.output_dim, rng_) {
  register_module("cell", &cell_);
  register_module("readout", &readout_);
}

std::vector<Variable> PGTDCRNN::forward_seq(const Tensor& x) const {
  if (x.dim() != 4 || x.size(3) != options_.input_dim) {
    throw std::invalid_argument("PGTDCRNN: expected input [B, T, N, F]");
  }
  const std::int64_t b = x.size(0);
  const std::int64_t t_steps = x.size(1);
  const std::int64_t n = x.size(2);

  Variable h = zero_state(b, n, options_.hidden_dim, x.space());
  std::vector<Variable> outputs;
  outputs.reserve(static_cast<std::size_t>(t_steps));
  for (std::int64_t t = 0; t < t_steps; ++t) {
    h = cell_.forward(step_input(x, t), h);
    Variable flat = ag::reshape(h, {b * n, options_.hidden_dim});
    Variable out = readout_.forward(flat);
    outputs.push_back(ag::reshape(out, {b, n, options_.output_dim}));
  }
  return outputs;
}

DCRNN::DCRNN(const DcrnnOptions& options, const GraphSupports& supports)
    : options_(options),
      rng_(options.seed),
      projection_(options.hidden_dim, options.output_dim, rng_) {
  for (int l = 0; l < options.num_layers; ++l) {
    const std::int64_t in_dim = l == 0 ? options.input_dim : options.hidden_dim;
    encoder_.push_back(std::make_unique<DCGRUCell>(
        in_dim, options.hidden_dim, supports, options.max_diffusion_steps, rng_));
    register_module("encoder" + std::to_string(l), encoder_.back().get());
  }
  for (int l = 0; l < options.num_layers; ++l) {
    const std::int64_t in_dim = l == 0 ? options.output_dim : options.hidden_dim;
    decoder_.push_back(std::make_unique<DCGRUCell>(
        in_dim, options.hidden_dim, supports, options.max_diffusion_steps, rng_));
    register_module("decoder" + std::to_string(l), decoder_.back().get());
  }
  register_module("projection", &projection_);
}

std::vector<Variable> DCRNN::forward_seq(const Tensor& x) const {
  return unroll(x, nullptr);
}

std::vector<Variable> DCRNN::forward_seq_scheduled(const Tensor& x, const Tensor& y,
                                                   float teacher_forcing_prob,
                                                   Rng& rng) const {
  if (y.dim() != 4 || y.size(1) < options_.horizon || y.size(3) != options_.output_dim) {
    throw std::invalid_argument("DCRNN: scheduled sampling targets [B, H, N, out]");
  }
  const TeacherForcing forcing{y, teacher_forcing_prob, rng};
  return unroll(x, &forcing);
}

std::vector<Variable> DCRNN::unroll(const Tensor& x, const TeacherForcing* forcing) const {
  if (x.dim() != 4 || x.size(3) != options_.input_dim) {
    throw std::invalid_argument("DCRNN: expected input [B, T, N, F]");
  }
  const std::int64_t b = x.size(0);
  const std::int64_t t_steps = x.size(1);
  const std::int64_t n = x.size(2);

  // Encoder pass.
  std::vector<Variable> h;
  for (std::size_t l = 0; l < encoder_.size(); ++l) {
    h.push_back(zero_state(b, n, options_.hidden_dim, x.space()));
  }
  for (std::int64_t t = 0; t < t_steps; ++t) {
    Variable input = step_input(x, t);
    for (std::size_t l = 0; l < encoder_.size(); ++l) {
      h[l] = encoder_[l]->forward(input, h[l]);
      input = h[l];
    }
  }

  // Decoder pass: starts from a GO symbol (zeros) and consumes its own
  // previous prediction, or, under teacher forcing, the ground truth
  // with probability `forcing->prob` per step.
  std::vector<Variable> outputs;
  outputs.reserve(static_cast<std::size_t>(options_.horizon));
  Variable prev = zero_state(b, n, options_.output_dim, x.space());
  for (std::int64_t t = 0; t < options_.horizon; ++t) {
    Variable input = prev;
    for (std::size_t l = 0; l < decoder_.size(); ++l) {
      h[l] = decoder_[l]->forward(input, h[l]);
      input = h[l];
    }
    Variable flat = ag::reshape(h.back(), {b * n, options_.hidden_dim});
    prev = ag::reshape(projection_.forward(flat), {b, n, options_.output_dim});
    outputs.push_back(prev);
    if (forcing != nullptr && t + 1 < options_.horizon &&
        forcing->rng.uniform() < forcing->prob) {
      prev = step_input(forcing->y, t);
    }
  }
  return outputs;
}

}  // namespace pgti::nn
