#include "graph/csr.h"

#include <algorithm>
#include <stdexcept>

#include "graph/spmm_stage.h"
#include "runtime/thread_pool.h"

namespace pgti {
namespace {

// Row-block width for the collapsed (batch x row-block) SpMM space:
// each task owns every output row it touches, so blocks are
// independent and the per-row accumulation order never depends on the
// task schedule.
constexpr std::int64_t kSpmmRowBlock = 64;

}  // namespace

Csr Csr::from_coo(std::int64_t rows, std::int64_t cols, std::vector<CooEntry> entries) {
  for (const CooEntry& e : entries) {
    if (e.row < 0 || e.row >= rows || e.col < 0 || e.col >= cols) {
      throw std::out_of_range("Csr::from_coo: entry out of bounds");
    }
  }
  std::sort(entries.begin(), entries.end(), [](const CooEntry& a, const CooEntry& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  Csr m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);
  m.col_idx_.reserve(entries.size());
  m.values_.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size();) {
    std::size_t j = i;
    float acc = 0.0f;
    while (j < entries.size() && entries[j].row == entries[i].row &&
           entries[j].col == entries[i].col) {
      acc += entries[j].value;
      ++j;
    }
    m.col_idx_.push_back(entries[i].col);
    m.values_.push_back(acc);
    ++m.row_ptr_[static_cast<std::size_t>(entries[i].row) + 1];
    i = j;
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
    m.row_ptr_[r + 1] += m.row_ptr_[r];
  }
  return m;
}

Csr Csr::identity(std::int64_t n) {
  std::vector<CooEntry> entries;
  entries.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) entries.push_back(CooEntry{i, i, 1.0f});
  return from_coo(n, n, std::move(entries));
}

Csr Csr::transpose() const {
  // Two-pass counting transpose: histogram the column indices, prefix-
  // sum into the transposed row_ptr, then scatter with per-row cursors.
  // Walking this matrix row-major emits each transposed row's entries
  // in ascending column (= our row) order, so the output is the same
  // canonical sorted CSR the old from_coo round-trip produced — without
  // the O(nnz log nnz) sort.
  Csr out;
  out.rows_ = cols_;
  out.cols_ = rows_;
  const std::size_t n = values_.size();
  out.row_ptr_.assign(static_cast<std::size_t>(cols_) + 1, 0);
  out.col_idx_.resize(n);
  out.values_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    ++out.row_ptr_[static_cast<std::size_t>(col_idx_[k]) + 1];
  }
  for (std::size_t c = 0; c < static_cast<std::size_t>(cols_); ++c) {
    out.row_ptr_[c + 1] += out.row_ptr_[c];
  }
  std::vector<std::int64_t> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      const std::int64_t c = col_idx_[static_cast<std::size_t>(k)];
      const std::int64_t dst = cursor[static_cast<std::size_t>(c)]++;
      out.col_idx_[static_cast<std::size_t>(dst)] = r;
      out.values_[static_cast<std::size_t>(dst)] = values_[static_cast<std::size_t>(k)];
    }
  }
  return out;
}

std::vector<float> Csr::row_sums() const {
  // Single flat pass over values_; the row boundary walks forward with k.
  std::vector<float> sums(static_cast<std::size_t>(rows_), 0.0f);
  std::size_t r = 0;
  for (std::size_t k = 0; k < values_.size(); ++k) {
    while (static_cast<std::int64_t>(k) >= row_ptr_[r + 1]) ++r;
    sums[r] += values_[k];
  }
  return sums;
}

Csr Csr::row_normalized() const {
  const std::vector<float> sums = row_sums();
  Csr out = *this;
  std::size_t r = 0;
  for (std::size_t k = 0; k < out.values_.size(); ++k) {
    while (static_cast<std::int64_t>(k) >= row_ptr_[r + 1]) ++r;
    const float s = sums[r];
    if (s != 0.0f) out.values_[k] *= 1.0f / s;
  }
  return out;
}

Tensor Csr::to_dense() const {
  Tensor d = Tensor::zeros({rows_, cols_});
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      d.at({r, col_idx_[static_cast<std::size_t>(k)]}) =
          values_[static_cast<std::size_t>(k)];
    }
  }
  return d;
}

void Csr::spmm_rows(const float* x, float* y, std::int64_t c, std::int64_t r_lo,
                    std::int64_t r_hi, const float* bias, ops::Act act) const {
  for (std::int64_t r = r_lo; r < r_hi; ++r) {
    float* yrow = y + r * c;
    std::fill(yrow, yrow + c, 0.0f);
    for (std::int64_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      const float v = values_[static_cast<std::size_t>(k)];
      const float* xrow = x + col_idx_[static_cast<std::size_t>(k)] * c;
      for (std::int64_t j = 0; j < c; ++j) yrow[j] += v * xrow[j];
    }
    if (bias != nullptr) {
      for (std::int64_t j = 0; j < c; ++j) yrow[j] = ops::act_apply(act, yrow[j] + bias[j]);
    } else if (act != ops::Act::kIdentity) {
      for (std::int64_t j = 0; j < c; ++j) yrow[j] = ops::act_apply(act, yrow[j]);
    }
  }
}

Tensor Csr::spmm_impl(const Tensor& x, const float* bias, ops::Act act,
                      const char* what) const {
  // Strided x (a view from index-batching) needs dense staging before
  // the row gather; stage_dense packs it into `stage` and is a no-op
  // for contiguous x.  It lives in its own translation unit so the
  // staging loops don't eat into this file's inlining budget around
  // the hot row-gather dispatch below.
  Tensor stage;
  if (x.dim() == 2) {
    if (x.size(0) != cols_) {
      throw std::invalid_argument(std::string(what) + ": x must be [cols, C]");
    }
    const std::int64_t c = x.size(1);
    const float* px = detail::stage_dense(x, stage, what);
    Tensor y = Tensor::empty({rows_, c}, x.space());
    float* py = y.data();
    parallel_for(0, rows_, kSpmmRowBlock, [&](std::int64_t lo, std::int64_t hi) {
      spmm_rows(px, py, c, lo, hi, bias, act);
    });
    return y;
  }
  if (x.dim() != 3 || x.size(1) != cols_) {
    throw std::invalid_argument(std::string(what) + ": x must be [B, cols, C]");
  }
  const std::int64_t b = x.size(0);
  const std::int64_t c = x.size(2);
  const float* px = detail::stage_dense(x, stage, what);
  Tensor y = Tensor::empty({b, rows_, c}, x.space());
  float* py = y.data();
  const std::int64_t in_stride = cols_ * c;
  const std::int64_t out_stride = rows_ * c;
  // Collapsed (batch x row-block) tasks: a batch of 1 still exposes
  // ceil(rows/kSpmmRowBlock) units of parallelism instead of one.
  const std::int64_t blocks = (rows_ + kSpmmRowBlock - 1) / kSpmmRowBlock;
  parallel_for(0, b * blocks, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t t = lo; t < hi; ++t) {
      const std::int64_t i = t / blocks;
      const std::int64_t r_lo = (t % blocks) * kSpmmRowBlock;
      const std::int64_t r_hi = std::min(rows_, r_lo + kSpmmRowBlock);
      spmm_rows(px + i * in_stride, py + i * out_stride, c, r_lo, r_hi, bias, act);
    }
  });
  return y;
}

Tensor Csr::spmm(const Tensor& x) const {
  if (x.dim() != 2) throw std::invalid_argument("Csr::spmm: x must be [cols, C]");
  return spmm_impl(x, nullptr, ops::Act::kIdentity, "Csr::spmm");
}

Tensor Csr::spmm_batched(const Tensor& x) const {
  if (x.dim() != 3) {
    throw std::invalid_argument("Csr::spmm_batched: x must be [B, cols, C]");
  }
  return spmm_impl(x, nullptr, ops::Act::kIdentity, "Csr::spmm_batched");
}

Tensor Csr::spmm_bias_act(const Tensor& x, const Tensor& bias, ops::Act act) const {
  const Tensor bc = bias.contiguous();
  const std::int64_t c = x.dim() >= 1 ? x.size(-1) : 0;
  if (bc.dim() != 1 || bc.size(0) != c) {
    throw std::invalid_argument("Csr::spmm_bias_act: bias must be [C]");
  }
  return spmm_impl(x, bc.data(), act, "Csr::spmm_bias_act");
}

}  // namespace pgti
