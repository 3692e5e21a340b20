// Shared internals of the band-reduction implementations (defined in
// dbbr.cc for double and float).
#pragma once

#include "la/blas.h"
#include "lapack/lapack.h"
#include "sbr/sbr.h"

namespace tdg::sbr::detail {

/// ZY-representation update matrix from the product P = A_cur * V:
///   W = P T - (1/2) V T^T (V^T P T),
/// so that Q^T A_cur Q = A_cur - V W^T - W V^T for Q = I - V T V^T.
template <class T = double>
MatrixT<T> zy_w_from_av(InView<T> p, InView<T> v, InView<T> t);

/// Zero the sub-R part of a just-factorised panel: columns [j0, j0+w) of
/// `a`, rows strictly below the R triangle (row > j0 + b + c for local
/// column c). Those positions held Householder vectors during the panel QR.
template <class T>
void zero_below_r(MatrixViewT<T> a, index_t j0, index_t b, index_t w);

/// atail -= V W^T + W V^T (lower triangle): the square-block schedule when
/// opts.use_square_syr2k, else the reference column sweep.
template <class T>
void trailing_syr2k(const BandReductionOptions& opts, InView<T> v,
                    InView<T> w, MatrixViewT<T> atail);

}  // namespace tdg::sbr::detail
