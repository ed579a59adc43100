#include "nn/layers.h"

#include <stdexcept>

#include "nn/init.h"

namespace pgti::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng)
    : in_(in_features), out_(out_features) {
  weight_ = register_parameter("weight", xavier_uniform(in_features, out_features, rng));
  bias_ = register_parameter("bias", Tensor::zeros({out_features}));
}

Variable Linear::forward(const Variable& x) const {
  return forward_act(x, ops::Act::kIdentity);
}

Variable Linear::forward_act(const Variable& x, ops::Act act) const {
  if (x.value().dim() != 2 || x.value().size(1) != in_) {
    throw std::invalid_argument("Linear::forward: expected [M, " + std::to_string(in_) +
                                "], got " + shape_to_string(x.value().shape()));
  }
  return ag::matmul_bias_act(x, weight_, bias_, act);
}

GraphSupports GraphSupports::from(std::vector<Csr> supports) {
  GraphSupports out;
  out.transposed.reserve(supports.size());
  for (const Csr& s : supports) out.transposed.push_back(s.transpose());
  out.mats = std::move(supports);
  return out;
}

DiffusionConv::DiffusionConv(std::int64_t in_channels, std::int64_t out_channels,
                             const GraphSupports& supports, int max_diffusion_steps,
                             Rng& rng)
    : in_(in_channels),
      out_(out_channels),
      supports_(&supports),
      k_(max_diffusion_steps) {
  const std::int64_t num_matrices =
      1 + static_cast<std::int64_t>(supports.count()) * k_;
  weight_ = register_parameter(
      "weight", xavier_uniform(num_matrices * in_channels, out_channels, rng));
  bias_ = register_parameter("bias", Tensor::zeros({out_channels}));
}

namespace {

// K-hop propagation + flatten: x, P x, P^2 x, ... per support,
// concatenated to [B*N, M*Cin].
Variable diffusion_features(const Variable& x, const GraphSupports& supports, int k,
                            std::int64_t b, std::int64_t n) {
  std::vector<Variable> feats;
  feats.reserve(1 + supports.count() * static_cast<std::size_t>(k));
  feats.push_back(x);
  for (std::size_t s = 0; s < supports.count(); ++s) {
    Variable cur = x;
    for (int hop = 0; hop < k; ++hop) {
      cur = ag::spmm(supports.mats[s], supports.transposed[s], cur);
      feats.push_back(cur);
    }
  }
  Variable cat = ag::concat_lastdim(feats);  // [B, N, M*Cin]
  const std::int64_t total_c = cat.value().size(2);
  return ag::reshape(cat, {b * n, total_c});
}

}  // namespace

Variable DiffusionConv::forward(const Variable& x) const {
  return forward_act(x, *supports_, ops::Act::kIdentity);
}

Variable DiffusionConv::forward(const Variable& x, const GraphSupports& supports) const {
  return forward_act(x, supports, ops::Act::kIdentity);
}

Variable DiffusionConv::forward_act(const Variable& x, const GraphSupports& supports,
                                    ops::Act act) const {
  const Tensor& v = x.value();
  if (v.dim() != 3 || v.size(2) != in_) {
    throw std::invalid_argument("DiffusionConv::forward: expected [B, N, Cin]");
  }
  if (supports.count() != supports_->count()) {
    throw std::invalid_argument(
        "DiffusionConv::forward: support count differs from construction");
  }
  const std::int64_t b = v.size(0);
  const std::int64_t n = v.size(1);
  Variable flat = diffusion_features(x, supports, k_, b, n);
  // The activation commutes with the trailing reshape, so applying it
  // in the matmul epilogue is bit-identical to act(reshape(...)).
  Variable out = ag::matmul_bias_act(flat, weight_, bias_, act);
  return ag::reshape(out, {b, n, out_});
}

}  // namespace pgti::nn
