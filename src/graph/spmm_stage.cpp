#include "graph/spmm_stage.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "runtime/thread_pool.h"

namespace pgti::detail {

// Dense staging for strided SpMM inputs (views from index-batching).
// The packed copy is an ordinary tensor, so inside a train step the
// arena recycles it like every other step tensor.  Contiguous inputs
// skip the copy entirely and `stage` stays undefined.
//
// This lives in its own translation unit on purpose: the staging
// loops vectorize into a lot of code, and keeping them out of csr.cpp
// leaves the hot spmm_rows/spmm_impl inlining budget untouched.
const float* stage_dense(const Tensor& t, Tensor& stage, const char* what) {
  if (t.is_contiguous()) return t.data();
  stage = Tensor::empty(t.shape(), t.space());
  float* dst = stage.data();
  if (t.dim() == 2) {
    const std::int64_t r = t.size(0), c = t.size(1);
    const std::int64_t s0 = t.strides()[0], s1 = t.strides()[1];
    const float* src = t.data();
    parallel_for(0, r, std::max<std::int64_t>(1, 16384 / std::max<std::int64_t>(1, c)),
                 [&](std::int64_t lo, std::int64_t hi) {
                   for (std::int64_t i = lo; i < hi; ++i) {
                     for (std::int64_t j = 0; j < c; ++j) {
                       dst[i * c + j] = src[i * s0 + j * s1];
                     }
                   }
                 });
    return dst;
  }
  if (t.dim() != 3) {
    throw std::invalid_argument(std::string(what) + ": staging needs rank 2 or 3");
  }
  const std::int64_t b = t.size(0), r = t.size(1), c = t.size(2);
  const std::int64_t s0 = t.strides()[0], s1 = t.strides()[1], s2 = t.strides()[2];
  const float* src = t.data();
  parallel_for(0, b * r, std::max<std::int64_t>(1, 16384 / std::max<std::int64_t>(1, c)),
               [&](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t t2 = lo; t2 < hi; ++t2) {
                   const std::int64_t i = t2 / r, j = t2 % r;
                   for (std::int64_t k = 0; k < c; ++k) {
                     dst[(i * r + j) * c + k] = src[i * s0 + j * s1 + k * s2];
                   }
                 }
               });
  return dst;
}

}  // namespace pgti::detail
