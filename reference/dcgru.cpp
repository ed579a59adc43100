// The unfused DCGRU cell and a PGT-DCRNN built on it (DESIGN.md §14).
#include <stdexcept>

#include "autograd/ops.h"
#include "reference/reference.h"

namespace pgti::nn {
namespace {

Variable parameter(const Module& owner, const std::string& name) {
  for (const auto& [path, p] : owner.named_parameters()) {
    if (path == name) return p;
  }
  throw std::invalid_argument("reference: no parameter named " + name);
}

// DiffusionConv::forward with the seed projection: the K-hop features
// x, P x, P^2 x, ... per support, concatenated and flattened, then
// add_bias(matmul_reference(flat, W), b).  K follows from W's
// (1 + S*K) * Cin rows; matmul_reference rejects a W that does not fit.
Variable diffusion_conv(const Variable& x, const GraphSupports& supports,
                        const Variable& weight, const Variable& bias) {
  const std::int64_t b = x.value().size(0);
  const std::int64_t n = x.value().size(1);
  const auto s = static_cast<std::int64_t>(supports.count());
  const std::int64_t k =
      s == 0 ? 0 : (weight.value().size(0) / x.value().size(2) - 1) / s;

  std::vector<Variable> feats{x};
  for (std::size_t i = 0; i < supports.count(); ++i) {
    Variable cur = x;
    for (std::int64_t hop = 0; hop < k; ++hop) {
      cur = ag::spmm(supports.mats[i], supports.transposed[i], cur);
      feats.push_back(cur);
    }
  }
  Variable cat = ag::concat_lastdim(feats);
  Variable flat = ag::reshape(cat, {b * n, cat.value().size(2)});
  Variable out = ag::add_bias(ag::matmul_reference(flat, weight), bias);
  return ag::reshape(out, {b, n, bias.value().size(0)});
}

}  // namespace

DcgruCellReference::DcgruCellReference(const Module& owner, const std::string& prefix)
    : gates_weight_(parameter(owner, prefix + "gates.weight")),
      gates_bias_(parameter(owner, prefix + "gates.bias")),
      candidate_weight_(parameter(owner, prefix + "candidate.weight")),
      candidate_bias_(parameter(owner, prefix + "candidate.bias")) {}

std::int64_t DcgruCellReference::hidden_dim() const {
  return candidate_bias_.value().size(0);
}

Variable DcgruCellReference::forward(const Variable& x, const Variable& h,
                                     const GraphSupports& supports) const {
  const std::int64_t hidden = hidden_dim();
  Variable xh = ag::concat_lastdim({x, h});
  Variable ru = ag::sigmoid(diffusion_conv(xh, supports, gates_weight_, gates_bias_));
  Variable r = ag::slice_lastdim(ru, 0, hidden);
  Variable u = ag::slice_lastdim(ru, hidden, hidden);
  Variable xc = ag::concat_lastdim({x, ag::mul(r, h)});
  Variable c =
      ag::tanh(diffusion_conv(xc, supports, candidate_weight_, candidate_bias_));
  // h' = u*h + (1-u)*c  ==  c + u*(h - c)
  return ag::add(c, ag::mul(u, ag::sub(h, c)));
}

PgtDcrnnReference::PgtDcrnnReference(const Module& model, const GraphSupports& supports)
    : supports_(&supports),
      cell_(model, "cell."),
      readout_weight_(parameter(model, "readout.weight")),
      readout_bias_(parameter(model, "readout.bias")) {}

std::vector<Variable> PgtDcrnnReference::forward_seq(const Tensor& x) const {
  if (x.dim() != 4) throw std::invalid_argument("reference: expected x [B, T, N, F]");
  const std::int64_t b = x.size(0);
  const std::int64_t t_steps = x.size(1);
  const std::int64_t n = x.size(2);
  const std::int64_t hidden = cell_.hidden_dim();
  const std::int64_t out_dim = readout_bias_.value().size(0);

  Variable h(Tensor::zeros({b, n, hidden}, x.space()), /*requires_grad=*/false);
  std::vector<Variable> outputs;
  outputs.reserve(static_cast<std::size_t>(t_steps));
  for (std::int64_t t = 0; t < t_steps; ++t) {
    Variable xt(x.select(1, t).contiguous(), /*requires_grad=*/false);
    h = cell_.forward(xt, h, *supports_);
    Variable flat = ag::reshape(h, {b * n, hidden});
    Variable out =
        ag::matmul_bias_act(flat, readout_weight_, readout_bias_, ops::Act::kIdentity);
    outputs.push_back(ag::reshape(out, {b, n, out_dim}));
  }
  return outputs;
}

}  // namespace pgti::nn
