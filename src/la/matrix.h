// Dense column-major matrix container and non-owning views, templated on
// the scalar: Matrix, MatrixView and ConstMatrixView are the FP64 (the
// paper's precision) instantiations; the float ones carry the
// mixed-precision engine's FP32 stage. Views mirror the BLAS/LAPACK
// convention: a matrix is a pointer, a row count, a column count and a
// leading dimension, so sub-blocks of a larger matrix can be passed to any
// kernel without copying.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "la/workspace.h"

namespace tdg {

using index_t = std::int64_t;

/// Non-owning read-only view of a column-major matrix block.
template <class T>
struct ConstMatrixViewT {
  const T* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 0;

  const T& operator()(index_t i, index_t j) const {
    return data[i + static_cast<std::size_t>(j) * ld];
  }

  /// Column pointer (for BLAS-1 style iteration down a column).
  const T* col(index_t j) const {
    return data + static_cast<std::size_t>(j) * ld;
  }

  /// Sub-block starting at (i, j) of size m x n.
  ConstMatrixViewT block(index_t i, index_t j, index_t m, index_t n) const {
    TDG_CHECK(i >= 0 && j >= 0 && m >= 0 && n >= 0 && i + m <= rows &&
                  j + n <= cols,
              "block out of range");
    return {data + i + static_cast<std::size_t>(j) * ld, m, n, ld};
  }
};

/// Non-owning mutable view of a column-major matrix block.
template <class T>
struct MatrixViewT {
  T* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 0;

  T& operator()(index_t i, index_t j) const {
    return data[i + static_cast<std::size_t>(j) * ld];
  }

  T* col(index_t j) const {
    return data + static_cast<std::size_t>(j) * ld;
  }

  MatrixViewT block(index_t i, index_t j, index_t m, index_t n) const {
    TDG_CHECK(i >= 0 && j >= 0 && m >= 0 && n >= 0 && i + m <= rows &&
                  j + n <= cols,
              "block out of range");
    return {data + i + static_cast<std::size_t>(j) * ld, m, n, ld};
  }

  operator ConstMatrixViewT<T>() const {  // NOLINT
    return {data, rows, cols, ld};
  }
};

/// Owning column-major dense matrix.
template <class T>
class MatrixT {
 public:
  MatrixT() = default;

  /// m x n matrix, zero-initialised.
  MatrixT(index_t m, index_t n)
      : m_(m), n_(n), d_(static_cast<std::size_t>(m) * n, T(0)) {
    TDG_CHECK(m >= 0 && n >= 0, "matrix dimensions must be non-negative");
  }

  static MatrixT identity(index_t n) {
    MatrixT I(n, n);
    for (index_t i = 0; i < n; ++i) I(i, i) = T(1);
    return I;
  }

  index_t rows() const { return m_; }
  index_t cols() const { return n_; }
  index_t ld() const { return m_; }

  T& operator()(index_t i, index_t j) {
    return d_[i + static_cast<std::size_t>(j) * m_];
  }
  const T& operator()(index_t i, index_t j) const {
    return d_[i + static_cast<std::size_t>(j) * m_];
  }

  T* data() { return d_.data(); }
  const T* data() const { return d_.data(); }

  MatrixViewT<T> view() { return {d_.data(), m_, n_, m_}; }
  ConstMatrixViewT<T> view() const { return {d_.data(), m_, n_, m_}; }
  MatrixViewT<T> block(index_t i, index_t j, index_t m, index_t n) {
    return view().block(i, j, m, n);
  }
  ConstMatrixViewT<T> block(index_t i, index_t j, index_t m,
                            index_t n) const {
    return view().block(i, j, m, n);
  }

  void set_zero() { std::fill(d_.begin(), d_.end(), T(0)); }

 private:
  index_t m_ = 0;
  index_t n_ = 0;
  // Tracked so la::workspace_peak_bytes() sees every dense allocation
  // (see la/workspace.h); numerically the storage is a plain vector.
  std::vector<T, la::TrackingAlloc<T>> d_;
};

using ConstMatrixView = ConstMatrixViewT<double>;
using MatrixView = MatrixViewT<double>;
using Matrix = MatrixT<double>;

// Parameter spellings for functions templated on the scalar T. T is deduced
// from the written (output) argument only, so callers keep passing a
// MatrixView where a read-only view is expected and double literals as
// coefficients. A function whose only matrix arguments are read-only views
// takes T explicitly, defaulting to double.
template <class T>
using Scalar = std::type_identity_t<T>;
template <class T>
using InView = std::type_identity_t<ConstMatrixViewT<T>>;

/// Copy src into dst (dimensions must match).
template <class T>
void copy(InView<T> src, MatrixViewT<T> dst);

/// Fill every entry of the view with the given value.
template <class T>
void fill(MatrixViewT<T> a, Scalar<T> value);

/// Copy of `a` at scalar To: round-to-nearest when narrowing, exact when
/// widening.
template <class To, class From = double>
MatrixT<To> converted(InView<From> a);

/// max_ij |a(i,j) - b(i,j)|.
template <class T = double>
T max_abs_diff(InView<T> a, InView<T> b);

/// Mirror the strict lower triangle into the upper triangle (square views).
void symmetrize_from_lower(MatrixView a);

/// Frobenius norm.
double frobenius_norm(ConstMatrixView a);

/// Transpose of a into a newly allocated matrix.
Matrix transposed(ConstMatrixView a);

/// ||Q^T Q - I||_max — orthogonality defect of Q's columns.
double orthogonality_error(ConstMatrixView q);

}  // namespace tdg
