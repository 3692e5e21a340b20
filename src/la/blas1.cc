#include <cmath>

#include "la/blas.h"

namespace tdg::la {

template <class T>
T dot(index_t n, const T* x, const T* y) {
  T s = 0;
  for (index_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

template <class T>
void axpy(index_t n, Scalar<T> alpha, const T* x, T* y) {
  for (index_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

template <class T>
void scal(index_t n, Scalar<T> alpha, T* x) {
  for (index_t i = 0; i < n; ++i) x[i] *= alpha;
}

template <class T>
T nrm2(index_t n, const T* x) {
  // Two-pass scaled norm: overflow/underflow safe like reference dnrm2.
  T amax = 0;
  for (index_t i = 0; i < n; ++i) amax = std::max(amax, std::abs(x[i]));
  if (amax == T(0) || !std::isfinite(amax)) return amax;
  T s = 0;
  const T inv = T(1) / amax;
  for (index_t i = 0; i < n; ++i) {
    const T t = x[i] * inv;
    s += t * t;
  }
  return amax * std::sqrt(s);
}

#define TDG_INSTANTIATE(T)                            \
  template T dot<T>(index_t, const T*, const T*);     \
  template void axpy<T>(index_t, T, const T*, T*);    \
  template void scal<T>(index_t, T, T*);              \
  template T nrm2<T>(index_t, const T*);
TDG_INSTANTIATE(double)
TDG_INSTANTIATE(float)

}  // namespace tdg::la
