// FP32 spelling of la::gemm (la/blas.h) for callers that name it.
#pragma once

#include "la/blas.h"
#include "la/matrix32.h"

namespace tdg::la {

/// C = alpha * op(A) op(B) + beta * C at T = float.
inline constexpr auto& gemm_f = gemm<float>;

}  // namespace tdg::la
