// Back transformation of the stage-1 (band reduction) orthogonal factor.
//
// After SBR/DBBR, A = Q1 B Q1^T with Q1 = Q_p0 Q_p1 ... Q_pm, each panel
// factor Q_p = I - V_p T_p V_p^T. Forming eigenvectors requires C <- Q1 C.
// Three algorithms with identical results but very different GEMM shapes:
//
//  * conventional — apply panels one by one (LAPACK ormqr order). Every GEMM
//    has inner dimension b; slow on GPUs for the same reason as stage-1's
//    skinny syr2k.
//  * recursive    — the paper's Algorithm 3: recursively merge all panels
//    into one (W, Y) pair with Q1 = I - W Y^T, then apply with two huge
//    GEMMs. Maximum GEMM quality, but forms the full n x n W (extra flops
//    and memory).
//  * blocked      — the paper's production variant (Figure 13): merge
//    groups of consecutive panels pairwise (batched GEMMs) until each
//    group's W reaches width kw (they use kw = 2048), then apply group by
//    group. Fat GEMMs without the full-W blow-up.
//
// All three are templated on the scalar (double and float).
//
// Merge rule (WY representation, Section 2.1):
//   (I - W1 Y1^T)(I - W2 Y2^T) = I - [W1 | W2 - W1 (Y1^T W2)] [Y1 | Y2]^T.
#pragma once

#include "la/matrix.h"
#include "sbr/sbr.h"

namespace tdg::bt {

/// C <- Q1 C, one panel at a time (GEMM inner dimension = b).
template <class T>
void apply_q1_conventional(const sbr::BandFactorT<T>& f, MatrixViewT<T> c);

/// C <- Q1 C via the fully merged I - W Y^T (paper Algorithm 3).
template <class T>
void apply_q1_recursive(const sbr::BandFactorT<T>& f, MatrixViewT<T> c);

/// C <- Q1 C via group-wise merged W of width ~kw (paper Figure 13).
template <class T>
void apply_q1_blocked(const sbr::BandFactorT<T>& f, index_t kw,
                      MatrixViewT<T> c);

/// A single merged WY pair: Q = I - W Y^T over global rows [row0, n).
template <class T>
struct MergedWyT {
  index_t row0 = 0;
  MatrixT<T> w;
  MatrixT<T> y;
};
using MergedWy = MergedWyT<double>;

/// Merge consecutive panels [lo, hi) of `f` into one WY pair (exposed for
/// tests and for the GPU-model trace of the merge GEMM shapes).
template <class T>
MergedWyT<T> merge_panels(const sbr::BandFactorT<T>& f, std::size_t lo,
                          std::size_t hi);

}  // namespace tdg::bt
