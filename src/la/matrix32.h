// FP32 spellings of the dense containers (la/matrix.h) for callers that
// name them.
#pragma once

#include "la/matrix.h"

namespace tdg {

using MatrixF = MatrixT<float>;

/// Round-to-nearest demotion of a full FP64 matrix.
inline constexpr auto& to_fp32 = converted<float, double>;

}  // namespace tdg
