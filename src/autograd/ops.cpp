// Contract every backward_fn here upholds (and that backward()'s
// grad-ready counting relies on, see GradReadyObserver in variable.h):
// a node's backward_fn accumulates the ENTIRE contribution into each
// parent exactly once, synchronously, before it returns.  A backward_fn
// that deferred part of a parent's accumulation — or touched a Variable
// it did not list as an input — would make backward() fire
// on_grad_ready with a partial gradient and silently corrupt the
// overlapped all-reduce.
#include "autograd/ops.h"

#include <cmath>
#include <stdexcept>

#include "runtime/thread_pool.h"
#include "tensor/tensor_ops.h"

namespace pgti::ag {
namespace {

using Impl = Variable::Impl;
using ImplPtr = std::shared_ptr<Variable::Impl>;

// Whether a parent takes a gradient at all.  Variable::accumulate drops
// a delta for any other parent, so a backward_fn skips computing it.
bool needs_grad(const ImplPtr& impl) { return impl && impl->needs_grad; }

// Direct-accumulation access to a parent's gradient buffer: returns
// nullptr when the parent doesn't participate, otherwise the (zeroed on
// first use) grad data.  Writing `+=` through this pointer is the
// alloc-free equivalent of Variable::accumulate(impl, delta) — the
// whole contribution must still land before backward_fn returns (the
// contract at the top of this file).
float* grad_data(const ImplPtr& impl) {
  if (!needs_grad(impl)) return nullptr;
  if (!impl->grad.defined()) {
    impl->grad = Tensor::zeros(impl->value.shape(), impl->value.space());
  }
  return impl->grad.data();
}

}  // namespace

Variable add(const Variable& a, const Variable& b) {
  ImplPtr ia = a.impl(), ib = b.impl();
  return Variable::make_node(ops::add(a.value(), b.value()), {a, b},
                             [ia, ib](Impl& node) {
                               Variable::accumulate(ia, node.grad);
                               Variable::accumulate(ib, node.grad);
                             });
}

Variable sub(const Variable& a, const Variable& b) {
  ImplPtr ia = a.impl(), ib = b.impl();
  return Variable::make_node(ops::sub(a.value(), b.value()), {a, b},
                             [ia, ib](Impl& node) {
                               Variable::accumulate(ia, node.grad);
                               Variable::accumulate(ib, ops::neg(node.grad));
                             });
}

Variable mul(const Variable& a, const Variable& b) {
  ImplPtr ia = a.impl(), ib = b.impl();
  Tensor va = a.value(), vb = b.value();
  return Variable::make_node(ops::mul(va, vb), {a, b}, [ia, ib, va, vb](Impl& node) {
    Variable::accumulate(ia, ops::mul(node.grad, vb));
    Variable::accumulate(ib, ops::mul(node.grad, va));
  });
}

Variable neg(const Variable& a) {
  ImplPtr ia = a.impl();
  return Variable::make_node(ops::neg(a.value()), {a}, [ia](Impl& node) {
    Variable::accumulate(ia, ops::neg(node.grad));
  });
}

Variable mul_scalar(const Variable& a, float s) {
  ImplPtr ia = a.impl();
  return Variable::make_node(ops::mul_scalar(a.value(), s), {a}, [ia, s](Impl& node) {
    Variable::accumulate(ia, ops::mul_scalar(node.grad, s));
  });
}

Variable add_bias(const Variable& m, const Variable& bias) {
  ImplPtr im = m.impl(), ib = bias.impl();
  return Variable::make_node(ops::add_bias(m.value(), bias.value()), {m, bias},
                             [im, ib](Impl& node) {
                               Variable::accumulate(im, node.grad);
                               Variable::accumulate(ib, ops::colsum(node.grad));
                             });
}

Variable mul_colvec(const Variable& m, const Variable& col) {
  ImplPtr im = m.impl(), ic = col.impl();
  Tensor vm = m.value(), vc = col.value();
  return Variable::make_node(ops::mul_colvec(vm, vc), {m, col},
                             [im, ic, vm, vc](Impl& node) {
                               Variable::accumulate(im, ops::mul_colvec(node.grad, vc));
                               Variable::accumulate(ic, ops::rowsum(ops::mul(node.grad, vm)));
                             });
}

Variable matmul(const Variable& a, const Variable& b) {
  ImplPtr ia = a.impl(), ib = b.impl();
  Tensor va = a.value(), vb = b.value();
  return Variable::make_node(ops::matmul(va, vb), {a, b}, [ia, ib, va, vb](Impl& node) {
    if (needs_grad(ia)) Variable::accumulate(ia, ops::matmul_nt(node.grad, vb));
    if (needs_grad(ib)) Variable::accumulate(ib, ops::matmul_tn(va, node.grad));
  });
}

Variable spmm(const Csr& p, const Csr& p_transpose, const Variable& x) {
  ImplPtr ix = x.impl();
  const bool batched = x.value().dim() == 3;
  Tensor y = batched ? p.spmm_batched(x.value()) : p.spmm(x.value());
  // The caller owns the graph structure; capture the transpose by value
  // (CSR copies are cheap relative to model tensors and keep the tape
  // self-contained).
  Csr pt = p_transpose;
  return Variable::make_node(std::move(y), {x}, [ix, pt, batched](Impl& node) {
    Variable::accumulate(ix, batched ? pt.spmm_batched(node.grad) : pt.spmm(node.grad));
  });
}

Variable matmul_bias_act(const Variable& a, const Variable& w, const Variable& bias,
                         ops::Act act) {
  ImplPtr ia = a.impl(), iw = w.impl(), ib = bias.impl();
  Tensor va = a.value(), vw = w.value();
  Tensor y = ops::matmul_bias_act(va, vw, bias.value(), act);
  return Variable::make_node(y, {a, w, bias}, [ia, iw, ib, va, vw, y, act](Impl& node) {
    // dz = g ⊙ act'(y), g itself for kIdentity.  When a takes a gradient
    // through an activation, the fused backward epilogue writes dz and
    // computes a's delta in one dispatch; otherwise act_backward, the
    // same per-element code, builds dz alone.  dz stays materialized for
    // the tn/colsum accumulations.
    Tensor dz;
    if (act != ops::Act::kIdentity && needs_grad(ia)) {
      dz = Tensor::empty(y.shape(), y.space());
      Variable::accumulate(ia, ops::matmul_nt_act_backward(node.grad, y, act, vw, dz));
    } else {
      dz = ops::act_backward(node.grad, y, act);
      if (needs_grad(ia)) Variable::accumulate(ia, ops::matmul_nt(dz, vw));
    }
    if (needs_grad(iw)) Variable::accumulate(iw, ops::matmul_tn(va, dz));
    if (needs_grad(ib)) Variable::accumulate(ib, ops::colsum(dz));
  });
}

Variable spmm_bias_act(const Csr& p, const Csr& p_transpose, const Variable& x,
                       const Variable& bias, ops::Act act) {
  ImplPtr ix = x.impl(), ib = bias.impl();
  const bool batched = x.value().dim() == 3;
  Tensor y = p.spmm_bias_act(x.value(), bias.value(), act);
  Csr pt = p_transpose;
  return Variable::make_node(y, {x, bias}, [ix, ib, y, pt, batched, act](Impl& node) {
    Tensor dz = ops::act_backward(node.grad, y, act);
    Variable::accumulate(ix, batched ? pt.spmm_batched(dz) : pt.spmm(dz));
    Variable::accumulate(ib, ops::colsum(dz));
  });
}

std::pair<Variable, Variable> gru_gates(const Variable& pre, const Variable& h) {
  const Tensor& vh = h.value();
  Tensor r = Tensor::empty(vh.shape(), vh.space());
  Tensor u = Tensor::empty(vh.shape(), vh.space());
  Tensor rh = Tensor::empty(vh.shape(), vh.space());
  ops::gru_gates(pre.value(), vh, r, u, rh);
  const std::int64_t hidden = vh.size(-1);
  ImplPtr ipre = pre.impl(), ih = h.impl();
  Tensor vhc = vh.contiguous();
  // Two nodes over one kernel pass.  Both write disjoint column halves
  // of pre's gradient directly, so neither allocates a [.., 2H] delta;
  // the expressions match the unfused mul/slice/sigmoid backward chain
  // element for element.
  Variable rh_var = Variable::make_node(
      rh, {pre, h}, [ipre, ih, r, vhc, hidden](Impl& node) {
        const std::int64_t rows = r.numel() / hidden;
        const float* pg = node.grad.data();
        const float* pr = r.data();
        const float* ph = vhc.data();
        float* gh = grad_data(ih);
        float* gp = grad_data(ipre);
        parallel_for(0, rows, std::max<std::int64_t>(1, 16384 / hidden),
                     [&](std::int64_t lo, std::int64_t hi) {
                       for (std::int64_t i = lo; i < hi; ++i) {
                         const std::int64_t off = i * hidden;
                         float* gprow = gp == nullptr ? nullptr : gp + i * 2 * hidden;
                         for (std::int64_t j = 0; j < hidden; ++j) {
                           const float g = pg[off + j];
                           if (gh != nullptr) gh[off + j] += g * pr[off + j];
                           if (gprow != nullptr) {
                             // d(pre_r) = ((g*h) * r) * (1-r), the sliced
                             // sigmoid backward of the reference chain.
                             gprow[j] += g * ph[off + j] * pr[off + j] *
                                         (1.0f - pr[off + j]);
                           }
                         }
                       }
                     });
      });
  Variable u_var = Variable::make_node(u, {pre}, [ipre, u, hidden](Impl& node) {
    const std::int64_t rows = u.numel() / hidden;
    const float* pg = node.grad.data();
    const float* pu = u.data();
    float* gp = grad_data(ipre);
    if (gp == nullptr) return;
    parallel_for(0, rows, std::max<std::int64_t>(1, 16384 / hidden),
                 [&](std::int64_t lo, std::int64_t hi) {
                   for (std::int64_t i = lo; i < hi; ++i) {
                     const std::int64_t off = i * hidden;
                     float* gprow = gp + i * 2 * hidden + hidden;
                     for (std::int64_t j = 0; j < hidden; ++j) {
                       gprow[j] += pg[off + j] * pu[off + j] * (1.0f - pu[off + j]);
                     }
                   }
                 });
  });
  return {rh_var, u_var};
}

Variable gru_state(const Variable& c, const Variable& u, const Variable& h) {
  ImplPtr ic = c.impl(), iu = u.impl(), ih = h.impl();
  Tensor vc = c.value().contiguous(), vu = u.value().contiguous(),
         vhc = h.value().contiguous();
  Tensor y = ops::gru_state(vc, vu, vhc);
  return Variable::make_node(y, {c, u, h}, [ic, iu, ih, vc, vu, vhc](Impl& node) {
    const float* pg = node.grad.data();
    const float* pc = vc.data();
    const float* pu = vu.data();
    const float* ph = vhc.data();
    float* gc = grad_data(ic);
    float* gu = grad_data(iu);
    float* gh = grad_data(ih);
    parallel_for(0, vc.numel(), 16384, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        const float g = pg[i];
        // d_c = g + (-(g*u)): the add-then-negated-sub accumulation of
        // the unfused c + u*(h-c) chain, in its tape order.
        if (gc != nullptr) gc[i] += g + (-(g * pu[i]));
        if (gu != nullptr) gu[i] += g * (ph[i] - pc[i]);
        if (gh != nullptr) gh[i] += g * pu[i];
      }
    });
  });
}

Variable sigmoid(const Variable& a) {
  ImplPtr ia = a.impl();
  Tensor y = ops::sigmoid(a.value());
  return Variable::make_node(y, {a}, [ia, y](Impl& node) {
    // dx = g * y * (1 - y), accumulated in place — no dx temporary.
    float* pd = grad_data(ia);
    if (pd == nullptr) return;
    const float* py = y.data();
    const float* pg = node.grad.data();
    parallel_for(0, y.numel(), 16384, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) pd[i] += pg[i] * py[i] * (1.0f - py[i]);
    });
  });
}

Variable tanh(const Variable& a) {
  ImplPtr ia = a.impl();
  Tensor y = ops::tanh(a.value());
  return Variable::make_node(y, {a}, [ia, y](Impl& node) {
    float* pd = grad_data(ia);
    if (pd == nullptr) return;
    const float* py = y.data();
    const float* pg = node.grad.data();
    parallel_for(0, y.numel(), 16384, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) pd[i] += pg[i] * (1.0f - py[i] * py[i]);
    });
  });
}

Variable relu(const Variable& a) {
  ImplPtr ia = a.impl();
  Tensor y = ops::relu(a.value());
  return Variable::make_node(y, {a}, [ia, y](Impl& node) {
    float* pd = grad_data(ia);
    if (pd == nullptr) return;
    const float* py = y.data();
    const float* pg = node.grad.data();
    parallel_for(0, y.numel(), 16384, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) pd[i] += py[i] > 0.0f ? pg[i] : 0.0f;
    });
  });
}

Variable reshape(const Variable& a, const Shape& shape) {
  ImplPtr ia = a.impl();
  Shape original = a.value().shape();
  return Variable::make_node(a.value().contiguous().reshape(shape), {a},
                             [ia, original](Impl& node) {
                               Variable::accumulate(
                                   ia, node.grad.contiguous().reshape(original));
                             });
}

Variable concat_lastdim(const std::vector<Variable>& parts) {
  std::vector<Tensor> values;
  values.reserve(parts.size());
  std::vector<ImplPtr> impls;
  impls.reserve(parts.size());
  std::vector<std::int64_t> widths;
  widths.reserve(parts.size());
  for (const Variable& p : parts) {
    values.push_back(p.value());
    impls.push_back(p.impl());
    widths.push_back(p.value().size(-1));
  }
  return Variable::make_node(
      ops::concat_lastdim(values), parts, [impls, widths](Impl& node) {
        std::int64_t off = 0;
        for (std::size_t i = 0; i < impls.size(); ++i) {
          Variable::accumulate(impls[i], node.grad.slice(-1, off, widths[i]));
          off += widths[i];
        }
      });
}

Variable slice_dim0(const Variable& a, std::int64_t start, std::int64_t length) {
  ImplPtr ia = a.impl();
  Shape parent_shape = a.value().shape();
  MemorySpaceId space = a.value().space();
  return Variable::make_node(
      a.value().slice(0, start, length).contiguous(), {a},
      [ia, parent_shape, space, start, length](Impl& node) {
        Tensor delta = Tensor::zeros(parent_shape, space);
        delta.slice(0, start, length).copy_from(node.grad);
        Variable::accumulate(ia, delta);
      });
}

Variable slice_lastdim(const Variable& a, std::int64_t start, std::int64_t length) {
  ImplPtr ia = a.impl();
  Shape parent_shape = a.value().shape();
  MemorySpaceId space = a.value().space();
  return Variable::make_node(
      a.value().slice(-1, start, length).contiguous(), {a},
      [ia, parent_shape, space, start, length](Impl& node) {
        Tensor delta = Tensor::zeros(parent_shape, space);
        delta.slice(-1, start, length).copy_from(node.grad);
        Variable::accumulate(ia, delta);
      });
}

Variable sum_all(const Variable& a) {
  ImplPtr ia = a.impl();
  Shape shape = a.value().shape();
  MemorySpaceId space = a.value().space();
  Tensor out = Tensor::full({1}, static_cast<float>(ops::sum(a.value())), space);
  return Variable::make_node(out, {a}, [ia, shape, space](Impl& node) {
    Variable::accumulate(ia, Tensor::full(shape, node.grad.item(), space));
  });
}

Variable mean_all(const Variable& a) {
  ImplPtr ia = a.impl();
  Shape shape = a.value().shape();
  MemorySpaceId space = a.value().space();
  const float inv_n = 1.0f / static_cast<float>(a.value().numel());
  Tensor out = Tensor::full({1}, static_cast<float>(ops::mean(a.value())), space);
  return Variable::make_node(out, {a}, [ia, shape, space, inv_n](Impl& node) {
    Variable::accumulate(ia, Tensor::full(shape, node.grad.item() * inv_n, space));
  });
}

Variable softmax_lastdim(const Variable& a) {
  ImplPtr ia = a.impl();
  Tensor y = ops::softmax_lastdim(a.value());
  return Variable::make_node(y, {a}, [ia, y](Impl& node) {
    // dx = y * (g - rowsum(g * y)); gy doubles as the dx buffer once
    // its rowsum is taken.
    Tensor gy = ops::mul(node.grad, y);
    Tensor s = ops::rowsum(gy);
    ops::sub_into(gy, ops::mul_colvec(y, s), gy);
    Variable::accumulate(ia, gy);
  });
}

Variable layer_norm(const Variable& a, const Variable& gamma, const Variable& beta,
                    float eps) {
  const Tensor& x = a.value();
  if (x.dim() < 1 || gamma.value().dim() != 1 || beta.value().dim() != 1 ||
      gamma.value().size(0) != x.size(-1) || beta.value().size(0) != x.size(-1)) {
    throw std::invalid_argument("layer_norm: gamma/beta must be [C]");
  }
  const std::int64_t c = x.size(-1);
  const std::int64_t rows = x.numel() / c;

  Tensor xhat = Tensor::empty(x.shape(), x.space());
  Tensor inv_std = Tensor::empty({rows, 1}, x.space());
  {
    float* ph = xhat.data();
    float* pis = inv_std.data();
    const Tensor xc = x.contiguous();
    const float* pxc = xc.data();
    parallel_for(0, rows, 64, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t r = lo; r < hi; ++r) {
        const float* src = pxc + r * c;
        float mu = 0.0f;
        for (std::int64_t j = 0; j < c; ++j) mu += src[j];
        mu /= static_cast<float>(c);
        float var = 0.0f;
        for (std::int64_t j = 0; j < c; ++j) {
          const float d = src[j] - mu;
          var += d * d;
        }
        var /= static_cast<float>(c);
        const float is = 1.0f / std::sqrt(var + eps);
        pis[r] = is;
        float* dst = ph + r * c;
        for (std::int64_t j = 0; j < c; ++j) dst[j] = (src[j] - mu) * is;
      }
    });
  }

  // y = xhat * gamma + beta, gamma/beta broadcast over rows.
  Tensor y = Tensor::empty(x.shape(), x.space());
  {
    const float* ph = xhat.data();
    const float* pgam = gamma.value().data();
    const float* pbet = beta.value().data();
    float* py = y.data();
    parallel_for(0, rows, 64, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t r = lo; r < hi; ++r) {
        const float* src = ph + r * c;
        float* dst = py + r * c;
        for (std::int64_t j = 0; j < c; ++j) dst[j] = src[j] * pgam[j] + pbet[j];
      }
    });
  }
  ImplPtr ia = a.impl(), ig = gamma.impl(), ib = beta.impl();
  Tensor vgamma = gamma.value();
  return Variable::make_node(
      y, {a, gamma, beta}, [ia, ig, ib, xhat, inv_std, vgamma, c, rows](Impl& node) {
        const Tensor& g = node.grad;
        Variable::accumulate(ib, ops::colsum(g));
        Variable::accumulate(ig, ops::colsum(ops::mul(g, xhat)));
        // dxhat = g * gamma (broadcast over rows)
        Tensor dxhat = Tensor::empty(xhat.shape(), xhat.space());
        {
          const float* pg = g.data();
          const float* pgam = vgamma.data();
          float* pd = dxhat.data();
          parallel_for(0, rows, 64, [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t r = lo; r < hi; ++r) {
              const float* srow = pg + r * c;
              float* drow = pd + r * c;
              for (std::int64_t j = 0; j < c; ++j) drow[j] = srow[j] * pgam[j];
            }
          });
        }
        // dx = inv_std/C * (C*dxhat - sum(dxhat) - xhat * sum(dxhat*xhat))
        Tensor dx = Tensor::empty(xhat.shape(), xhat.space());
        {
          const float* ph = xhat.data();
          const float* pdh = dxhat.data();
          const float* pis = inv_std.data();
          float* pd = dx.data();
          parallel_for(0, rows, 64, [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t r = lo; r < hi; ++r) {
              const float* hrow = ph + r * c;
              const float* dhrow = pdh + r * c;
              float s1 = 0.0f, s2 = 0.0f;
              for (std::int64_t j = 0; j < c; ++j) {
                s1 += dhrow[j];
                s2 += dhrow[j] * hrow[j];
              }
              const float scale = pis[r] / static_cast<float>(c);
              float* drow = pd + r * c;
              for (std::int64_t j = 0; j < c; ++j) {
                drow[j] = scale * (static_cast<float>(c) * dhrow[j] - s1 - hrow[j] * s2);
              }
            }
          });
        }
        Variable::accumulate(ia, dx);
      });
}

Variable batched_attention(const Variable& q, const Variable& k, const Variable& v,
                           std::int64_t batch, std::int64_t tokens) {
  const Tensor& vq = q.value();
  const Tensor& vk = k.value();
  const Tensor& vv = v.value();
  if (vq.dim() != 2 || vq.shape() != vk.shape() || vq.shape() != vv.shape() ||
      vq.size(0) != batch * tokens) {
    throw std::invalid_argument("batched_attention: q/k/v must be [B*N, D]");
  }
  const std::int64_t d = vq.size(1);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));

  Tensor out = Tensor::empty(vq.shape(), vq.space());
  Tensor attn = Tensor::empty({batch, tokens, tokens}, vq.space());
  for (std::int64_t b = 0; b < batch; ++b) {
    const Tensor qb = vq.slice(0, b * tokens, tokens);
    const Tensor kb = vk.slice(0, b * tokens, tokens);
    const Tensor vb = vv.slice(0, b * tokens, tokens);
    Tensor s = ops::matmul_nt(qb, kb);  // [N, N]
    ops::scale_(s, scale);
    Tensor a = ops::softmax_lastdim(s);
    attn.select(0, b).copy_from(a);
    out.slice(0, b * tokens, tokens).copy_from(ops::matmul(a, vb));
  }

  ImplPtr iq = q.impl(), ik = k.impl(), iv = v.impl();
  return Variable::make_node(
      out, {q, k, v},
      [iq, ik, iv, vq, vk, vv, attn, batch, tokens, scale](Impl& node) {
        Tensor dq = Tensor::zeros(vq.shape(), vq.space());
        Tensor dk = Tensor::zeros(vk.shape(), vk.space());
        Tensor dv = Tensor::zeros(vv.shape(), vv.space());
        for (std::int64_t b = 0; b < batch; ++b) {
          const Tensor qb = vq.slice(0, b * tokens, tokens);
          const Tensor kb = vk.slice(0, b * tokens, tokens);
          const Tensor vb = vv.slice(0, b * tokens, tokens);
          const Tensor a = attn.select(0, b).contiguous();
          const Tensor go = node.grad.slice(0, b * tokens, tokens).contiguous();
          // dV = A^T go
          dv.slice(0, b * tokens, tokens).copy_from(ops::matmul_tn(a, go));
          // dA = go V^T
          Tensor da = ops::matmul_nt(go, vb.contiguous());
          // dS = A * (dA - rowsum(dA * A))
          Tensor s_row = ops::rowsum(ops::mul(da, a));
          Tensor ds = ops::mul(a, da);
          ops::sub_into(ds, ops::mul_colvec(a, s_row), ds);
          ops::scale_(ds, scale);
          dq.slice(0, b * tokens, tokens).copy_from(ops::matmul(ds, kb.contiguous()));
          dk.slice(0, b * tokens, tokens)
              .copy_from(ops::matmul_tn(ds, qb.contiguous()));
        }
        Variable::accumulate(iq, dq);
        Variable::accumulate(ik, dk);
        Variable::accumulate(iv, dv);
      });
}

Variable mae_loss(const Variable& pred, const Tensor& target) {
  ImplPtr ip = pred.impl();
  Tensor vp = pred.value();
  Tensor vt = target.contiguous();
  Tensor out = Tensor::full({1}, static_cast<float>(ops::mae(vp, vt)), vp.space());
  return Variable::make_node(out, {pred}, [ip, vp, vt](Impl& node) {
    const float g = node.grad.item() / static_cast<float>(vp.numel());
    Tensor dx = Tensor::empty(vp.shape(), vp.space());
    const float* pp = vp.data();
    const float* pt = vt.data();
    float* pd = dx.data();
    parallel_for(0, vp.numel(), 16384, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        const float diff = pp[i] - pt[i];
        pd[i] = diff > 0.0f ? g : (diff < 0.0f ? -g : 0.0f);
      }
    });
    Variable::accumulate(ip, dx);
  });
}

Variable mse_loss(const Variable& pred, const Tensor& target) {
  ImplPtr ip = pred.impl();
  Tensor vp = pred.value();
  Tensor vt = target.contiguous();
  Tensor out = Tensor::full({1}, static_cast<float>(ops::mse(vp, vt)), vp.space());
  return Variable::make_node(out, {pred}, [ip, vp, vt](Impl& node) {
    const float g = 2.0f * node.grad.item() / static_cast<float>(vp.numel());
    Tensor dx = Tensor::empty(vp.shape(), vp.space());
    const float* pp = vp.data();
    const float* pt = vt.data();
    float* pd = dx.data();
    parallel_for(0, vp.numel(), 16384, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) pd[i] = g * (pp[i] - pt[i]);
    });
    Variable::accumulate(ip, dx);
  });
}

Variable masked_mae_loss(const Variable& pred, const Tensor& target, float null_value) {
  ImplPtr ip = pred.impl();
  Tensor vp = pred.value();
  Tensor vt = target.contiguous();
  // Forward: mean |p - t| over entries with t != null_value.
  const float* pp = vp.data();
  const float* pt = vt.data();
  double acc = 0.0;
  std::int64_t valid = 0;
  for (std::int64_t i = 0, n = vp.numel(); i < n; ++i) {
    if (pt[i] == null_value) continue;
    acc += std::fabs(static_cast<double>(pp[i]) - pt[i]);
    ++valid;
  }
  const float inv_valid = valid > 0 ? 1.0f / static_cast<float>(valid) : 0.0f;
  Tensor out = Tensor::full(
      {1}, valid > 0 ? static_cast<float>(acc / static_cast<double>(valid)) : 0.0f,
      vp.space());
  return Variable::make_node(out, {pred}, [ip, vp, vt, null_value, inv_valid](Impl& node) {
    const float g = node.grad.item() * inv_valid;
    Tensor dx = Tensor::empty(vp.shape(), vp.space());
    const float* p = vp.data();
    const float* t = vt.data();
    float* pd = dx.data();
    parallel_for(0, vp.numel(), 16384, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        if (t[i] == null_value) {
          pd[i] = 0.0f;
          continue;
        }
        const float diff = p[i] - t[i];
        pd[i] = diff > 0.0f ? g : (diff < 0.0f ? -g : 0.0f);
      }
    });
    Variable::accumulate(ip, dx);
  });
}

Variable huber_loss(const Variable& pred, const Tensor& target, float delta) {
  ImplPtr ip = pred.impl();
  Tensor vp = pred.value();
  Tensor vt = target.contiguous();
  const float* pp = vp.data();
  const float* pt = vt.data();
  double acc = 0.0;
  const std::int64_t n = vp.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const double d = std::fabs(static_cast<double>(pp[i]) - pt[i]);
    acc += d <= delta ? 0.5 * d * d : delta * (d - 0.5 * delta);
  }
  Tensor out =
      Tensor::full({1}, static_cast<float>(acc / static_cast<double>(n)), vp.space());
  return Variable::make_node(out, {pred}, [ip, vp, vt, delta](Impl& node) {
    const float g = node.grad.item() / static_cast<float>(vp.numel());
    Tensor dx = Tensor::empty(vp.shape(), vp.space());
    const float* p = vp.data();
    const float* t = vt.data();
    float* pd = dx.data();
    parallel_for(0, vp.numel(), 16384, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        const float diff = p[i] - t[i];
        if (diff > delta) {
          pd[i] = g * delta;
        } else if (diff < -delta) {
          pd[i] = -g * delta;
        } else {
          pd[i] = g * diff;
        }
      }
    });
    Variable::accumulate(ip, dx);
  });
}

}  // namespace pgti::ag
