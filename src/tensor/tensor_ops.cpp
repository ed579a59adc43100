#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

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

void require_same_shape(const Tensor& a, const Tensor& b, const char* what) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(what) + ": shape mismatch " +
                                shape_to_string(a.shape()) + " vs " +
                                shape_to_string(b.shape()));
  }
}

template <typename F>
Tensor binary_op(const Tensor& a, const Tensor& b, const char* what, F f) {
  require_same_shape(a, b, what);
  require_contiguous(a, what);
  require_contiguous(b, what);
  Tensor out = Tensor::empty(a.shape(), a.space());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  parallel_for(0, a.numel(), kGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) po[i] = f(pa[i], pb[i]);
  });
  return out;
}

template <typename F>
void binary_into(const Tensor& a, const Tensor& b, Tensor& out, const char* what, F f) {
  require_same_shape(a, b, what);
  require_same_shape(a, out, what);
  require_contiguous(a, what);
  require_contiguous(b, what);
  require_contiguous(out, what);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  parallel_for(0, a.numel(), kGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) po[i] = f(pa[i], pb[i]);
  });
}

template <typename F>
Tensor unary_op(const Tensor& t, const char* what, F f) {
  require_contiguous(t, what);
  Tensor out = Tensor::empty(t.shape(), t.space());
  const float* pt = t.data();
  float* po = out.data();
  parallel_for(0, t.numel(), kGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) po[i] = f(pt[i]);
  });
  return out;
}

template <typename F>
void unary_inplace(Tensor& t, const char* what, F f) {
  require_contiguous(t, what);
  float* pt = t.data();
  parallel_for(0, t.numel(), kGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) pt[i] = f(pt[i]);
  });
}

// Rows/cols of a tensor treated as a [M, C] matrix (flatten leading dims).
std::pair<std::int64_t, std::int64_t> as_matrix(const Tensor& t, const char* what) {
  if (t.dim() < 1) throw std::invalid_argument(std::string(what) + ": rank 0");
  const std::int64_t c = t.size(-1);
  return {t.numel() / (c == 0 ? 1 : c), c};
}

// Applies the optional bias/activation epilogue to a freshly computed
// row segment of C (the store step of the blocked kernels).
inline void store_epilogue(const float* acc, float* crow, std::int64_t nr,
                           const float* bias, Act act) {
  if (bias != nullptr) {
    for (std::int64_t j = 0; j < nr; ++j) crow[j] = act_apply(act, acc[j] + bias[j]);
  } else if (act != Act::kIdentity) {
    for (std::int64_t j = 0; j < nr; ++j) crow[j] = act_apply(act, acc[j]);
  } else {
    std::copy(acc, acc + nr, crow);
  }
}

// --- the GEMM micro-kernel (DESIGN.md §14) ------------------------------
//
// Every matmul entry point computes C[M, N] = A * B with B a row-major
// [K, N] array and A read through a strided view, and every element of
// C is one chain c = ((0 + a0*b0) + a1*b1) + ..., k ascending, each
// product rounded before its add (-ffp-contract=off).  The tiles below
// only choose which chains are in flight together, so C's bits do not
// depend on the tile, the vector width, the thread count or the row
// partition.

// One vector register of floats at the target's widest width: GCC and
// Clang set __BIGGEST_ALIGNMENT__ to it (64 bytes with AVX-512, 32 with
// AVX2, 16 with SSE2 or NEON).  A vector's lanes are independent
// chains, so the width moves speed, never bits.
constexpr std::int64_t kVecBytes = __BIGGEST_ALIGNMENT__;
using Vec = float __attribute__((vector_size(kVecBytes)));
constexpr std::int64_t kLanes = kVecBytes / static_cast<std::int64_t>(sizeof(float));
static_assert(kLanes <= 16 && 16 % kLanes == 0, "panel widths are multiples of 16 floats");

// A[i, k] = p[i * row_stride + k * k_stride]: (K, 1) is a row-major
// [M, K] A, (1, M) the transpose of a row-major [K, M] one.
struct StridedA {
  const float* p;
  std::int64_t row_stride;
  std::int64_t k_stride;
};

// Columns [j0, j0 + W) of C's rows [lo, hi), W = NV * kLanes, in MR x W
// tiles whose MR * NV accumulators stay in vector registers for the
// whole k loop: one load of each B vector feeds MR rows.  A ragged last
// tile repeats row hi - 1 in its spare rows and stores only real ones.
template <int MR, int NV>
void gemm_panel(StridedA a, const float* pb, float* pc, std::int64_t lo, std::int64_t hi,
                std::int64_t K, std::int64_t N, std::int64_t j0, const float* bias, Act act) {
  constexpr std::int64_t W = NV * kLanes;
  for (std::int64_t i0 = lo; i0 < hi; i0 += MR) {
    std::int64_t arow[MR];
    for (int r = 0; r < MR; ++r) arow[r] = std::min(i0 + r, hi - 1) * a.row_stride;
    Vec acc[MR][NV] = {};
    const float* brow = pb + j0;
    for (std::int64_t k = 0; k < K; ++k, brow += N) {
      Vec b[NV];
      for (int v = 0; v < NV; ++v) std::memcpy(&b[v], brow + v * kLanes, sizeof(Vec));
      for (int r = 0; r < MR; ++r) {
        const float x = a.p[arow[r] + k * a.k_stride];
        for (int v = 0; v < NV; ++v) acc[r][v] = acc[r][v] + x * b[v];
      }
    }
    for (std::int64_t r = 0; r < std::min<std::int64_t>(MR, hi - i0); ++r) {
      float row[W];
      std::memcpy(row, acc[r], sizeof row);
      store_epilogue(row, pc + (i0 + r) * N + j0, W, bias == nullptr ? nullptr : bias + j0,
                     act);
    }
  }
}

// N < 16 is too narrow for a column panel, so vectorize across rows
// instead: lane l accumulates row i0 + l, one vector per column of C.
// With row stride 1 (matmul_tn's transposed A) a full block's kLanes
// rows are contiguous at each k and load in place; otherwise they are
// packed k-major on the stack, kKc k-steps at a time, with row hi - 1
// repeated past the end.
constexpr std::int64_t kKc = 256;

void gemm_narrow(StridedA a, const float* pb, float* pc, std::int64_t lo, std::int64_t hi,
                 std::int64_t K, std::int64_t N, const float* bias, Act act) {
  float pack[kKc * kLanes];
  for (std::int64_t i0 = lo; i0 < hi; i0 += kLanes) {
    std::int64_t arow[kLanes];
    for (std::int64_t l = 0; l < kLanes; ++l) arow[l] = std::min(i0 + l, hi - 1) * a.row_stride;
    Vec acc[15] = {};  // one per column of C, N < 16
    for (std::int64_t k0 = 0; k0 < K; k0 += kKc) {
      const std::int64_t kc = std::min(kKc, K - k0);
      const float* ak = pack;
      std::int64_t ak_step = kLanes;
      if (a.row_stride == 1 && i0 + kLanes <= hi) {
        ak = a.p + i0 + k0 * a.k_stride;
        ak_step = a.k_stride;
      } else {
        for (std::int64_t k = 0; k < kc; ++k) {
          const std::int64_t ak_off = (k0 + k) * a.k_stride;
          for (std::int64_t l = 0; l < kLanes; ++l) pack[k * kLanes + l] = a.p[arow[l] + ak_off];
        }
      }
      for (std::int64_t j = 0; j < N; ++j) {
        const float* bcol = pb + k0 * N + j;
        Vec sum = acc[j];
        for (std::int64_t k = 0; k < kc; ++k) {
          Vec x;
          std::memcpy(&x, ak + k * ak_step, sizeof x);
          sum = sum + x * bcol[k * N];
        }
        acc[j] = sum;
      }
    }
    float rows[kLanes][16];
    for (std::int64_t j = 0; j < N; ++j) {
      for (std::int64_t l = 0; l < kLanes; ++l) rows[l][j] = acc[j][l];
    }
    for (std::int64_t l = 0; l < std::min(kLanes, hi - i0); ++l) {
      store_epilogue(rows[l], pc + (i0 + l) * N, N, bias, act);
    }
  }
}

// Rows [lo, hi) of C[M, N] = A * B[K, N], with the fused bias/activation
// epilogue.  Panels of 64, then 32, then 16 columns, in 6 x 64, 12 x 32
// and 16 x 16 tiles: at 16 lanes their 24, 24 and 16 accumulators, the
// B vectors and a broadcast A value fit AVX-512's 32 vector registers.
// A ragged remainder takes one more 16-wide panel ending at N: the
// columns it shares with the panel before are recomputed as the same
// chains, so they are rewritten with the same bits.
void gemm_rows(StridedA a, const float* pb, float* pc, std::int64_t lo, std::int64_t hi,
               std::int64_t K, std::int64_t N, const float* bias, Act act) {
  if (N < 16) {
    gemm_narrow(a, pb, pc, lo, hi, K, N, bias, act);
    return;
  }
  std::int64_t j0 = 0;
  for (; j0 + 64 <= N; j0 += 64) {
    gemm_panel<6, 64 / kLanes>(a, pb, pc, lo, hi, K, N, j0, bias, act);
  }
  if (j0 + 32 <= N) {
    gemm_panel<12, 32 / kLanes>(a, pb, pc, lo, hi, K, N, j0, bias, act);
    j0 += 32;
  }
  if (j0 + 16 <= N) {
    gemm_panel<16, 16 / kLanes>(a, pb, pc, lo, hi, K, N, j0, bias, act);
    j0 += 16;
  }
  if (j0 < N) gemm_panel<16, 16 / kLanes>(a, pb, pc, lo, hi, K, N, N - 16, bias, act);
}

// Minimum rows per parallel_for chunk: enough multiply-adds to amortize
// a dispatch.  Smaller products run inline.
std::int64_t gemm_grain(std::int64_t K, std::int64_t N) {
  return std::max<std::int64_t>(1, 4 * kGrain / std::max<std::int64_t>(1, K * N));
}

Tensor matmul_bias_act_impl(const Tensor& a, const Tensor& b, const float* bias,
                            Act act, const char* what) {
  require_contiguous(a, what);
  require_contiguous(b, what);
  if (a.dim() != 2 || b.dim() != 2 || a.size(1) != b.size(0)) {
    throw std::invalid_argument(std::string(what) + ": incompatible shapes " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()));
  }
  const std::int64_t M = a.size(0), K = a.size(1), N = b.size(1);
  Tensor out = Tensor::empty({M, N}, a.space());
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  parallel_for(0, M, gemm_grain(K, N), [&](std::int64_t lo, std::int64_t hi) {
    gemm_rows({pa, K, 1}, pb, pc, lo, hi, K, N, bias, act);
  });
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, "add", [](float x, float y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, "sub", [](float x, float y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, "mul", [](float x, float y) { return x * y; });
}
Tensor div(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, "div", [](float x, float y) { return x / y; });
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary_op(a, "add_scalar", [s](float x) { return x + s; });
}
Tensor mul_scalar(const Tensor& a, float s) {
  return unary_op(a, "mul_scalar", [s](float x) { return x * s; });
}

void add_(Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "add_");
  require_contiguous(a, "add_");
  require_contiguous(b, "add_");
  float* pa = a.data();
  const float* pb = b.data();
  parallel_for(0, a.numel(), kGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) pa[i] += pb[i];
  });
}

void sub_(Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "sub_");
  require_contiguous(a, "sub_");
  require_contiguous(b, "sub_");
  float* pa = a.data();
  const float* pb = b.data();
  parallel_for(0, a.numel(), kGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) pa[i] -= pb[i];
  });
}

void mul_(Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "mul_");
  require_contiguous(a, "mul_");
  require_contiguous(b, "mul_");
  float* pa = a.data();
  const float* pb = b.data();
  parallel_for(0, a.numel(), kGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) pa[i] *= pb[i];
  });
}

void scale_(Tensor& a, float s) {
  require_contiguous(a, "scale_");
  float* pa = a.data();
  parallel_for(0, a.numel(), kGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) pa[i] *= s;
  });
}

void axpy_(float alpha, const Tensor& x, Tensor& y) {
  require_same_shape(x, y, "axpy_");
  require_contiguous(x, "axpy_");
  require_contiguous(y, "axpy_");
  const float* px = x.data();
  float* py = y.data();
  parallel_for(0, x.numel(), kGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) py[i] += alpha * px[i];
  });
}

void apply_act_(Tensor& t, Act act) {
  if (act == Act::kIdentity) return;
  unary_inplace(t, "apply_act_", [act](float x) { return act_apply(act, x); });
}

void sub_into(const Tensor& a, const Tensor& b, Tensor& out) {
  binary_into(a, b, out, "sub_into", [](float x, float y) { return x - y; });
}

Tensor sigmoid(const Tensor& t) {
  return unary_op(t, "sigmoid", [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}
Tensor tanh(const Tensor& t) {
  return unary_op(t, "tanh", [](float x) { return std::tanh(x); });
}
Tensor relu(const Tensor& t) {
  return unary_op(t, "relu", [](float x) { return x > 0.0f ? x : 0.0f; });
}
Tensor exp(const Tensor& t) {
  return unary_op(t, "exp", [](float x) { return std::exp(x); });
}
Tensor abs(const Tensor& t) {
  return unary_op(t, "abs", [](float x) { return std::fabs(x); });
}
Tensor neg(const Tensor& t) {
  return unary_op(t, "neg", [](float x) { return -x; });
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  return matmul_bias_act_impl(a, b, nullptr, Act::kIdentity, "matmul");
}

Tensor matmul_bias_act(const Tensor& a, const Tensor& b, const Tensor& bias, Act act) {
  require_contiguous(bias, "matmul_bias_act");
  if (bias.dim() != 1 || bias.size(0) != b.size(1)) {
    throw std::invalid_argument("matmul_bias_act: bias must be [N]");
  }
  return matmul_bias_act_impl(a, b, bias.data(), act, "matmul_bias_act");
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  require_contiguous(a, "matmul_tn");
  require_contiguous(b, "matmul_tn");
  if (a.dim() != 2 || b.dim() != 2 || a.size(0) != b.size(0)) {
    throw std::invalid_argument("matmul_tn: incompatible shapes");
  }
  const std::int64_t K = a.size(0), M = a.size(1), N = b.size(1);
  Tensor out = Tensor::empty({M, N}, a.space());
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  // C[m, n] = sum_k A[k, m] * B[k, n]: A read transposed, in place.
  parallel_for(0, M, gemm_grain(K, N), [&](std::int64_t lo, std::int64_t hi) {
    gemm_rows({pa, 1, M}, pb, pc, lo, hi, K, N, nullptr, Act::kIdentity);
  });
  return out;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  require_contiguous(a, "matmul_nt");
  require_contiguous(b, "matmul_nt");
  if (a.dim() != 2 || b.dim() != 2 || a.size(1) != b.size(1)) {
    throw std::invalid_argument("matmul_nt: incompatible shapes");
  }
  const std::int64_t M = a.size(0), K = a.size(1), N = b.size(0);
  // Row-row dot products cannot vectorize: each C[i, j] is one serial
  // k-chain, and SIMD across k would reassociate the sum.  Instead,
  // transpose B once (O(K*N), negligible next to the 2*M*K*N GEMM) and
  // run the same micro-kernel as matmul.  Accumulation per element is
  // still a single k-ascending chain — identical bits to the
  // dot-product form, ~10x faster at backward shapes.  The [K, N]
  // scratch is an ordinary tensor: inside a train step the arena
  // recycles it like every other step tensor (DESIGN.md §16).
  Tensor bt = Tensor::empty({K, N}, b.space());
  const float* pb = b.data();
  float* pbt = bt.data();
  parallel_for(0, N, std::max<std::int64_t>(1, kGrain / std::max<std::int64_t>(1, K)),
               [&](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t j = lo; j < hi; ++j) {
                   const float* brow = pb + j * K;
                   for (std::int64_t k = 0; k < K; ++k) pbt[k * N + j] = brow[k];
                 }
               });
  Tensor out = Tensor::empty({M, N}, a.space());
  const float* pa = a.data();
  float* pc = out.data();
  parallel_for(0, M, gemm_grain(K, N), [&](std::int64_t lo, std::int64_t hi) {
    gemm_rows({pa, K, 1}, pbt, pc, lo, hi, K, N, nullptr, Act::kIdentity);
  });
  return out;
}

namespace {

// dz[i] = g[i] * act'(y[i]) over the flat range [lo, hi).  The exact
// per-element expressions of the unfused activation backwards; both the
// standalone act_backward kernel and the fused epilogue pre-pass run
// this code, so their bits agree regardless of how the range is
// partitioned (each element is independent).
inline void act_backward_range(const float* pg, const float* py, float* pd,
                               std::int64_t lo, std::int64_t hi, Act act) {
  switch (act) {
    case Act::kSigmoid:
      for (std::int64_t i = lo; i < hi; ++i) pd[i] = pg[i] * py[i] * (1.0f - py[i]);
      break;
    case Act::kTanh:
      for (std::int64_t i = lo; i < hi; ++i) pd[i] = pg[i] * (1.0f - py[i] * py[i]);
      break;
    case Act::kRelu:
      for (std::int64_t i = lo; i < hi; ++i) pd[i] = py[i] > 0.0f ? pg[i] : 0.0f;
      break;
    case Act::kIdentity:
      std::copy(pg + lo, pg + hi, pd + lo);
      break;
  }
}

}  // namespace

Tensor act_backward(const Tensor& g, const Tensor& y, Act act) {
  if (act == Act::kIdentity) return g;
  require_same_shape(g, y, "act_backward");
  require_contiguous(g, "act_backward");
  require_contiguous(y, "act_backward");
  Tensor dz = Tensor::empty(y.shape(), y.space());
  const float* py = y.data();
  const float* pg = g.data();
  float* pd = dz.data();
  parallel_for(0, y.numel(), kGrain, [&](std::int64_t lo, std::int64_t hi) {
    act_backward_range(pg, py, pd, lo, hi, act);
  });
  return dz;
}

Tensor matmul_nt_act_backward(const Tensor& g, const Tensor& y, Act act,
                              const Tensor& w, Tensor& dz) {
  require_contiguous(g, "matmul_nt_act_backward");
  require_contiguous(y, "matmul_nt_act_backward");
  require_contiguous(w, "matmul_nt_act_backward");
  require_contiguous(dz, "matmul_nt_act_backward");
  require_same_shape(g, y, "matmul_nt_act_backward");
  require_same_shape(g, dz, "matmul_nt_act_backward");
  if (g.dim() != 2 || w.dim() != 2 || g.size(1) != w.size(1)) {
    throw std::invalid_argument("matmul_nt_act_backward: incompatible shapes");
  }
  const std::int64_t M = g.size(0), K = g.size(1), N = w.size(0);
  // Same W transpose scratch as matmul_nt(dz, w).
  Tensor wt = Tensor::empty({K, N}, w.space());
  const float* pw = w.data();
  float* pwt = wt.data();
  parallel_for(0, N, std::max<std::int64_t>(1, kGrain / std::max<std::int64_t>(1, K)),
               [&](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t j = lo; j < hi; ++j) {
                   const float* wrow = pw + j * K;
                   for (std::int64_t k = 0; k < K; ++k) pwt[k * N + j] = wrow[k];
                 }
               });
  Tensor out = Tensor::empty({M, N}, g.space());
  const float* pg = g.data();
  const float* py = y.data();
  float* pd = dz.data();
  float* pc = out.data();
  // One dispatch: each row block materializes its dz rows (epilogue
  // pre-pass) and immediately streams them through the gemm micro-kernel
  // while they are cache-hot.  dz remains fully written for the
  // downstream matmul_tn/colsum consumers.
  parallel_for(0, M, gemm_grain(K, N), [&](std::int64_t lo, std::int64_t hi) {
    act_backward_range(pg, py, pd, lo * K, hi * K, act);
    gemm_rows({pd, K, 1}, pwt, pc, lo, hi, K, N, nullptr, Act::kIdentity);
  });
  return out;
}

Tensor add_bias(const Tensor& m, const Tensor& bias) {
  require_contiguous(m, "add_bias");
  require_contiguous(bias, "add_bias");
  const auto [rows, cols] = as_matrix(m, "add_bias");
  if (bias.dim() != 1 || bias.size(0) != cols) {
    throw std::invalid_argument("add_bias: bias must be [C]");
  }
  Tensor out = Tensor::empty(m.shape(), m.space());
  const float* pm = m.data();
  const float* pb = bias.data();
  float* po = out.data();
  parallel_for(0, rows, std::max<std::int64_t>(1, kGrain / std::max<std::int64_t>(1, cols)),
               [&](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t r = lo; r < hi; ++r) {
                   const float* src = pm + r * cols;
                   float* dst = po + r * cols;
                   for (std::int64_t c = 0; c < cols; ++c) dst[c] = src[c] + pb[c];
                 }
               });
  return out;
}

Tensor mul_colvec(const Tensor& m, const Tensor& col) {
  require_contiguous(m, "mul_colvec");
  require_contiguous(col, "mul_colvec");
  const auto [rows, cols] = as_matrix(m, "mul_colvec");
  if (col.numel() != rows) {
    throw std::invalid_argument("mul_colvec: col must have one entry per row");
  }
  Tensor out = Tensor::empty(m.shape(), m.space());
  const float* pm = m.data();
  const float* pc = col.data();
  float* po = out.data();
  parallel_for(0, rows, std::max<std::int64_t>(1, kGrain / std::max<std::int64_t>(1, cols)),
               [&](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t r = lo; r < hi; ++r) {
                   const float s = pc[r];
                   const float* src = pm + r * cols;
                   float* dst = po + r * cols;
                   for (std::int64_t c = 0; c < cols; ++c) dst[c] = src[c] * s;
                 }
               });
  return out;
}

void gru_gates(const Tensor& pre, const Tensor& h, Tensor& r, Tensor& u, Tensor& rh) {
  require_contiguous(pre, "gru_gates");
  require_contiguous(h, "gru_gates");
  require_contiguous(r, "gru_gates");
  require_contiguous(u, "gru_gates");
  require_contiguous(rh, "gru_gates");
  const auto [rows, hidden] = as_matrix(h, "gru_gates");
  if (pre.size(-1) != 2 * hidden || pre.numel() != 2 * h.numel() ||
      r.shape() != h.shape() || u.shape() != h.shape() || rh.shape() != h.shape()) {
    throw std::invalid_argument("gru_gates: pre must be [.., 2H] matching h [.., H]");
  }
  const float* pp = pre.data();
  const float* ph = h.data();
  float* pr = r.data();
  float* pu = u.data();
  float* prh = rh.data();
  parallel_for(0, rows, std::max<std::int64_t>(1, kGrain / std::max<std::int64_t>(1, hidden)),
               [&](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t i = lo; i < hi; ++i) {
                   const float* prow = pp + i * 2 * hidden;
                   const std::int64_t off = i * hidden;
                   for (std::int64_t j = 0; j < hidden; ++j) {
                     const float rv = 1.0f / (1.0f + std::exp(-prow[j]));
                     pr[off + j] = rv;
                     pu[off + j] = 1.0f / (1.0f + std::exp(-prow[hidden + j]));
                     prh[off + j] = rv * ph[off + j];
                   }
                 }
               });
}

Tensor gru_state(const Tensor& c, const Tensor& u, const Tensor& h) {
  require_same_shape(c, u, "gru_state");
  require_same_shape(c, h, "gru_state");
  require_contiguous(c, "gru_state");
  require_contiguous(u, "gru_state");
  require_contiguous(h, "gru_state");
  Tensor out = Tensor::empty(c.shape(), c.space());
  const float* pc = c.data();
  const float* pu = u.data();
  const float* ph = h.data();
  float* po = out.data();
  parallel_for(0, c.numel(), kGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) po[i] = pc[i] + pu[i] * (ph[i] - pc[i]);
  });
  return out;
}

double sum(const Tensor& t) {
  require_contiguous(t, "sum");
  const float* p = t.data();
  double acc = 0.0;
  for (std::int64_t i = 0, n = t.numel(); i < n; ++i) acc += p[i];
  return acc;
}

double mean(const Tensor& t) {
  const std::int64_t n = t.numel();
  return n == 0 ? 0.0 : sum(t) / static_cast<double>(n);
}

float max_abs(const Tensor& t) {
  require_contiguous(t, "max_abs");
  const float* p = t.data();
  float m = 0.0f;
  for (std::int64_t i = 0, n = t.numel(); i < n; ++i) m = std::max(m, std::fabs(p[i]));
  return m;
}

Tensor colsum(const Tensor& m) {
  require_contiguous(m, "colsum");
  const auto [rows, cols] = as_matrix(m, "colsum");
  Tensor out = Tensor::zeros({cols}, m.space());
  const float* pm = m.data();
  float* po = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* src = pm + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) po[c] += src[c];
  }
  return out;
}

Tensor rowsum(const Tensor& m) {
  require_contiguous(m, "rowsum");
  const auto [rows, cols] = as_matrix(m, "rowsum");
  Tensor out = Tensor::zeros({rows, 1}, m.space());
  const float* pm = m.data();
  float* po = out.data();
  parallel_for(0, rows, std::max<std::int64_t>(1, kGrain / std::max<std::int64_t>(1, cols)),
               [&](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t r = lo; r < hi; ++r) {
                   const float* src = pm + r * cols;
                   float acc = 0.0f;
                   for (std::int64_t c = 0; c < cols; ++c) acc += src[c];
                   po[r] = acc;
                 }
               });
  return out;
}

Tensor concat_lastdim(const std::vector<Tensor>& parts) {
  if (parts.empty()) throw std::invalid_argument("concat_lastdim: no inputs");
  std::int64_t total_c = 0;
  for (const Tensor& p : parts) {
    require_contiguous(p, "concat_lastdim");
    if (p.dim() != parts[0].dim()) {
      throw std::invalid_argument("concat_lastdim: rank mismatch");
    }
    for (int d = 0; d + 1 < p.dim(); ++d) {
      if (p.size(d) != parts[0].size(d)) {
        throw std::invalid_argument("concat_lastdim: leading dim mismatch");
      }
    }
    total_c += p.size(-1);
  }
  Shape out_shape = parts[0].shape();
  out_shape.back() = total_c;
  Tensor out = Tensor::empty(out_shape, parts[0].space());
  const std::int64_t rows = out.numel() / total_c;
  float* po = out.data();
  std::int64_t col_off = 0;
  for (const Tensor& p : parts) {
    const std::int64_t c = p.size(-1);
    const float* pp = p.data();
    parallel_for(0, rows, std::max<std::int64_t>(1, kGrain / std::max<std::int64_t>(1, c)),
                 [&](std::int64_t lo, std::int64_t hi) {
                   for (std::int64_t r = lo; r < hi; ++r) {
                     std::copy(pp + r * c, pp + (r + 1) * c, po + r * total_c + col_off);
                   }
                 });
    col_off += c;
  }
  return out;
}

Tensor softmax_lastdim(const Tensor& t) {
  require_contiguous(t, "softmax_lastdim");
  const auto [rows, cols] = as_matrix(t, "softmax_lastdim");
  Tensor out = Tensor::empty(t.shape(), t.space());
  const float* pt = t.data();
  float* po = out.data();
  parallel_for(0, rows, std::max<std::int64_t>(1, kGrain / std::max<std::int64_t>(1, cols)),
               [&](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t r = lo; r < hi; ++r) {
                   const float* src = pt + r * cols;
                   float* dst = po + r * cols;
                   float mx = src[0];
                   for (std::int64_t c = 1; c < cols; ++c) mx = std::max(mx, src[c]);
                   float z = 0.0f;
                   for (std::int64_t c = 0; c < cols; ++c) {
                     dst[c] = std::exp(src[c] - mx);
                     z += dst[c];
                   }
                   const float inv = 1.0f / z;
                   for (std::int64_t c = 0; c < cols; ++c) dst[c] *= inv;
                 }
               });
  return out;
}

double mae(const Tensor& pred, const Tensor& target) {
  require_same_shape(pred, target, "mae");
  const float* pp = pred.data();
  const float* pt = target.data();
  double acc = 0.0;
  const std::int64_t n = pred.numel();
  for (std::int64_t i = 0; i < n; ++i) acc += std::fabs(static_cast<double>(pp[i]) - pt[i]);
  return n == 0 ? 0.0 : acc / static_cast<double>(n);
}

double mse(const Tensor& pred, const Tensor& target) {
  require_same_shape(pred, target, "mse");
  const float* pp = pred.data();
  const float* pt = target.data();
  double acc = 0.0;
  const std::int64_t n = pred.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(pp[i]) - pt[i];
    acc += d * d;
  }
  return n == 0 ? 0.0 : acc / static_cast<double>(n);
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "max_abs_diff");
  const Tensor ca = a.contiguous();
  const Tensor cb = b.contiguous();
  const float* pa = ca.data();
  const float* pb = cb.data();
  float m = 0.0f;
  for (std::int64_t i = 0, n = ca.numel(); i < n; ++i) {
    m = std::max(m, std::fabs(pa[i] - pb[i]));
  }
  return m;
}

}  // namespace pgti::ops
