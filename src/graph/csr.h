// Compressed-sparse-row matrices and sparse-dense products.
//
// ST-GNN spatial layers are built on SpMM with graph transition
// matrices (DCRNN's dual random-walk diffusion, TGCN's symmetric
// normalized adjacency).  Row-major CSR with threaded SpMM over a
// collapsed (batch x row-block) iteration space, so small batches
// still saturate the thread pool.  The bias add and activation of the
// downstream layer can run in the SpMM store epilogue (spmm_bias_act)
// instead of as extra materializing passes; results are bit-identical
// to the unfused composition (DESIGN.md §14).
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace pgti {

/// One (row, col, value) sparse entry.
struct CooEntry {
  std::int64_t row = 0;
  std::int64_t col = 0;
  float value = 0.0f;
};

/// Immutable CSR sparse matrix.
class Csr {
 public:
  Csr() = default;
  /// Builds from COO entries (duplicates are summed).
  static Csr from_coo(std::int64_t rows, std::int64_t cols,
                      std::vector<CooEntry> entries);
  /// Identity matrix of size n.
  static Csr identity(std::int64_t n);

  std::int64_t rows() const noexcept { return rows_; }
  std::int64_t cols() const noexcept { return cols_; }
  std::int64_t nnz() const noexcept { return static_cast<std::int64_t>(col_idx_.size()); }

  const std::vector<std::int64_t>& row_ptr() const noexcept { return row_ptr_; }
  const std::vector<std::int64_t>& col_idx() const noexcept { return col_idx_; }
  const std::vector<float>& values() const noexcept { return values_; }

  /// A^T as CSR (two-pass counting transpose, O(nnz + rows + cols)).
  Csr transpose() const;

  /// D^{-1} A: rows scaled to sum to 1 (random-walk transition matrix).
  /// Zero rows stay zero.
  Csr row_normalized() const;

  /// Row sums as a dense vector of length rows().
  std::vector<float> row_sums() const;

  /// Dense copy (tests / small graphs only).
  Tensor to_dense() const;

  /// Y = A * X for X [cols, C] -> Y [rows, C].
  Tensor spmm(const Tensor& x) const;

  /// Batched: X [B, cols, C] -> Y [B, rows, C], parallel over the
  /// collapsed (batch x row-block) space.
  Tensor spmm_batched(const Tensor& x) const;

  /// Fused Y = act(A * X + bias) for X [cols, C] or [B, cols, C] and
  /// bias [C].  The gather, accumulate, bias add, and activation run in
  /// one pass per output row; bit-identical to
  /// act(add_bias(spmm(x), bias)).
  Tensor spmm_bias_act(const Tensor& x, const Tensor& bias, ops::Act act) const;

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<std::int64_t> row_ptr_;
  std::vector<std::int64_t> col_idx_;
  std::vector<float> values_;

  /// Rows [r_lo, r_hi) of one SpMM with optional fused epilogue.
  void spmm_rows(const float* x, float* y, std::int64_t c, std::int64_t r_lo,
                 std::int64_t r_hi, const float* bias, ops::Act act) const;
  Tensor spmm_impl(const Tensor& x, const float* bias, ops::Act act,
                   const char* what) const;
};

}  // namespace pgti
