// Seed matmul kernels and their autograd node (DESIGN.md §14).
#include <algorithm>
#include <stdexcept>
#include <string>

#include "reference/reference.h"
#include "runtime/thread_pool.h"

namespace pgti::ops {
namespace {

constexpr std::int64_t kGrain = 16384;  // min elements per parallel chunk

const Tensor& require_contiguous(const Tensor& t, const char* what) {
  if (!t.is_contiguous()) {
    throw std::logic_error(std::string(what) + ": tensor must be contiguous");
  }
  return t;
}

}  // namespace

Tensor matmul_reference(const Tensor& a, const Tensor& b) {
  require_contiguous(a, "matmul_reference");
  require_contiguous(b, "matmul_reference");
  if (a.dim() != 2 || b.dim() != 2 || a.size(1) != b.size(0)) {
    throw std::invalid_argument("matmul_reference: incompatible shapes " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()));
  }
  const std::int64_t M = a.size(0), K = a.size(1), N = b.size(1);
  Tensor out = Tensor::zeros({M, N}, a.space());
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  parallel_for(0, M, std::max<std::int64_t>(1, kGrain / std::max<std::int64_t>(1, K * N / M + 1)),
               [&](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t i = lo; i < hi; ++i) {
                   const float* arow = pa + i * K;
                   float* crow = pc + i * N;
                   for (std::int64_t k = 0; k < K; ++k) {
                     const float aik = arow[k];
                     if (aik == 0.0f) continue;
                     const float* brow = pb + k * N;
                     for (std::int64_t j = 0; j < N; ++j) crow[j] += aik * brow[j];
                   }
                 }
               });
  return out;
}

Tensor matmul_tn_reference(const Tensor& a, const Tensor& b) {
  require_contiguous(a, "matmul_tn_reference");
  require_contiguous(b, "matmul_tn_reference");
  if (a.dim() != 2 || b.dim() != 2 || a.size(0) != b.size(0)) {
    throw std::invalid_argument("matmul_tn_reference: incompatible shapes");
  }
  const std::int64_t K = a.size(0), M = a.size(1), N = b.size(1);
  Tensor out = Tensor::zeros({M, N}, a.space());
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  parallel_for(0, M, 8, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t k = 0; k < K; ++k) {
      const float* arow = pa + k * M;
      const float* brow = pb + k * N;
      for (std::int64_t m = lo; m < hi; ++m) {
        const float akm = arow[m];
        if (akm == 0.0f) continue;
        float* crow = pc + m * N;
        for (std::int64_t n = 0; n < N; ++n) crow[n] += akm * brow[n];
      }
    }
  });
  return out;
}

Tensor matmul_nt_reference(const Tensor& a, const Tensor& b) {
  require_contiguous(a, "matmul_nt_reference");
  require_contiguous(b, "matmul_nt_reference");
  if (a.dim() != 2 || b.dim() != 2 || a.size(1) != b.size(1)) {
    throw std::invalid_argument("matmul_nt_reference: incompatible shapes");
  }
  const std::int64_t M = a.size(0), K = a.size(1), N = b.size(0);
  Tensor out = Tensor::empty({M, N}, a.space());
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  parallel_for(0, M, 8, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const float* arow = pa + i * K;
      float* crow = pc + i * N;
      for (std::int64_t j = 0; j < N; ++j) {
        const float* brow = pb + j * K;
        float acc = 0.0f;
        for (std::int64_t k = 0; k < K; ++k) acc += arow[k] * brow[k];
        crow[j] = acc;
      }
    }
  });
  return out;
}

}  // namespace pgti::ops

namespace pgti::ag {

Variable matmul_reference(const Variable& a, const Variable& b) {
  using Impl = Variable::Impl;
  std::shared_ptr<Impl> ia = a.impl(), ib = b.impl();
  Tensor va = a.value(), vb = b.value();
  // Backward uses the seed tn/nt kernels so the reference path's
  // training-step cost is the honest "before" for the in-run bench
  // ratio; their bits match the blocked kernels exactly.
  return Variable::make_node(ops::matmul_reference(va, vb), {a, b},
                             [ia, ib, va, vb](Impl& node) {
                               Variable::accumulate(ia, ops::matmul_nt_reference(node.grad, vb));
                               Variable::accumulate(ib, ops::matmul_tn_reference(va, node.grad));
                             });
}

}  // namespace pgti::ag
