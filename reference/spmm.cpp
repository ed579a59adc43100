// Seed batch-only SpMM, transcribed over Csr's public arrays.  Built
// with -falign-functions=64 like graph/csr.cpp, so the in-run
// collapsed-vs-batch-only claim measures the kernels, not where the
// linker put them.  Keep the seed's shape: a reworked loop compiles
// differently and moves the claim's baseline (DESIGN.md §16).
#include <algorithm>
#include <stdexcept>

#include "reference/reference.h"
#include "runtime/thread_pool.h"

namespace pgti {
namespace {

// One batch item, every row in order: the seed's Csr::spmm_into.
void spmm_item(const Csr& a, const float* x, float* y, std::int64_t c) {
  const std::vector<std::int64_t>& row_ptr = a.row_ptr();
  const std::vector<std::int64_t>& col_idx = a.col_idx();
  const std::vector<float>& values = a.values();
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    float* yrow = y + r * c;
    std::fill(yrow, yrow + c, 0.0f);
    for (std::int64_t k = row_ptr[static_cast<std::size_t>(r)];
         k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      const float v = values[static_cast<std::size_t>(k)];
      const float* xrow = x + col_idx[static_cast<std::size_t>(k)] * c;
      for (std::int64_t j = 0; j < c; ++j) yrow[j] += v * xrow[j];
    }
  }
}

}  // namespace

Tensor spmm_batched_reference(const Csr& a, const Tensor& x) {
  if (x.dim() != 3 || x.size(1) != a.cols()) {
    throw std::invalid_argument("spmm_batched_reference: x must be [B, cols, C]");
  }
  const Tensor xc = x.contiguous();
  const std::int64_t b = x.size(0);
  const std::int64_t c = x.size(2);
  Tensor y = Tensor::empty({b, a.rows(), c}, x.space());
  const float* px = xc.data();
  float* py = y.data();
  const std::int64_t in_stride = a.cols() * c;
  const std::int64_t out_stride = a.rows() * c;
  parallel_for(0, b, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      spmm_item(a, px + i * in_stride, py + i * out_stride, c);
    }
  });
  return y;
}

}  // namespace pgti
