#pragma once

#include "tensor/tensor.h"

namespace pgti::detail {

/// Returns a dense contiguous view of `t` for SpMM row gathers: `t`'s
/// own data pointer when it is already contiguous, otherwise a packed
/// copy in a fresh tensor assigned to `stage` (which keeps the copy
/// alive for the caller's scope).  Rank 2 or 3 only.
const float* stage_dense(const Tensor& t, Tensor& stage, const char* what);

}  // namespace pgti::detail
