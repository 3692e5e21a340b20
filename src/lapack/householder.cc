#include <cmath>

#include "lapack/lapack.h"

namespace tdg::lapack {

template <class T>
T larfg(index_t n, T& alpha, T* x) {
  if (n <= 1) return 0;
  const T xnorm = la::nrm2(n - 1, x);
  if (xnorm == T(0)) return 0;

  // Unlike dlarfg there is no safmin rescaling loop: hypot and the scaled
  // nrm2 keep the norm free of overflow, but a beta below the underflow
  // threshold is used as computed.
  const T beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  const T tau = (beta - alpha) / beta;
  la::scal(n - 1, T(1) / (alpha - beta), x);
  alpha = beta;
  return tau;
}

template <class T>
void larf_left(const T* v, Scalar<T> tau, MatrixViewT<T> c, T* work) {
  if (tau == T(0) || c.rows == 0 || c.cols == 0) return;
  // work = C^T v ; C -= tau * v work^T
  la::gemv<T>(Trans::kTrans, 1, c, v, 0, work);
  la::ger<T>(-tau, v, work, c);
}

#define TDG_INSTANTIATE(T)                       \
  template T larfg<T>(index_t, T&, T*);          \
  template void larf_left<T>(const T*, T, MatrixViewT<T>, T*);
TDG_INSTANTIATE(double)
TDG_INSTANTIATE(float)

}  // namespace tdg::lapack
