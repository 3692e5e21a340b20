#include "la/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace tdg {

template <class T>
void copy(InView<T> src, MatrixViewT<T> dst) {
  TDG_CHECK(src.rows == dst.rows && src.cols == dst.cols,
            "copy: shape mismatch");
  for (index_t j = 0; j < src.cols; ++j) {
    std::memcpy(dst.col(j), src.col(j),
                static_cast<std::size_t>(src.rows) * sizeof(T));
  }
}

template <class T>
void fill(MatrixViewT<T> a, Scalar<T> value) {
  for (index_t j = 0; j < a.cols; ++j) {
    std::fill(a.col(j), a.col(j) + a.rows, value);
  }
}

template <class To, class From>
MatrixT<To> converted(InView<From> a) {
  MatrixT<To> out(a.rows, a.cols);
  for (index_t j = 0; j < a.cols; ++j) {
    const From* s = a.col(j);
    To* d = out.view().col(j);
    for (index_t i = 0; i < a.rows; ++i) d[i] = static_cast<To>(s[i]);
  }
  return out;
}

template <class T>
T max_abs_diff(InView<T> a, InView<T> b) {
  TDG_CHECK(a.rows == b.rows && a.cols == b.cols,
            "max_abs_diff: shape mismatch");
  T m = 0;
  for (index_t j = 0; j < a.cols; ++j) {
    for (index_t i = 0; i < a.rows; ++i) {
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
    }
  }
  return m;
}

#define TDG_INSTANTIATE(T)                                             \
  template void copy<T>(ConstMatrixViewT<T>, MatrixViewT<T>);          \
  template void fill<T>(MatrixViewT<T>, T);                            \
  template T max_abs_diff<T>(ConstMatrixViewT<T>, ConstMatrixViewT<T>);
TDG_INSTANTIATE(double)
TDG_INSTANTIATE(float)
template MatrixT<float> converted<float, double>(ConstMatrixView);
template MatrixT<double> converted<double, float>(ConstMatrixViewT<float>);
template MatrixT<double> converted<double, double>(ConstMatrixView);

void symmetrize_from_lower(MatrixView a) {
  TDG_CHECK(a.rows == a.cols, "symmetrize_from_lower: view must be square");
  for (index_t j = 0; j < a.cols; ++j) {
    for (index_t i = j + 1; i < a.rows; ++i) {
      a(j, i) = a(i, j);
    }
  }
}

double frobenius_norm(ConstMatrixView a) {
  double s = 0.0;
  for (index_t j = 0; j < a.cols; ++j) {
    for (index_t i = 0; i < a.rows; ++i) {
      s += a(i, j) * a(i, j);
    }
  }
  return std::sqrt(s);
}

Matrix transposed(ConstMatrixView a) {
  Matrix t(a.cols, a.rows);
  for (index_t j = 0; j < a.cols; ++j) {
    for (index_t i = 0; i < a.rows; ++i) {
      t(j, i) = a(i, j);
    }
  }
  return t;
}

double orthogonality_error(ConstMatrixView q) {
  // Computes max |(Q^T Q - I)(i,j)| column-pair by column-pair to avoid
  // allocating an n x n product for large inputs.
  double m = 0.0;
  for (index_t j = 0; j < q.cols; ++j) {
    for (index_t i = j; i < q.cols; ++i) {
      double dot = 0.0;
      const double* ci = q.col(i);
      const double* cj = q.col(j);
      for (index_t r = 0; r < q.rows; ++r) dot += ci[r] * cj[r];
      const double target = (i == j) ? 1.0 : 0.0;
      m = std::max(m, std::abs(dot - target));
    }
  }
  return m;
}

}  // namespace tdg
