// Stage 2 of two-stage tridiagonalization: bulge chasing (band -> tridiag).
//
// The sweep structure follows the paper's Figure 3 / Algorithm 2. Sweep i
// eliminates column i below the first sub-diagonal with one length-b
// Householder reflector, which creates a bulge below the band; the bulge's
// first column is then repeatedly eliminated at stride b until it falls off
// the matrix. Each block step applies its reflector to
//   * the diagonal block  B_d  (two-sided, symmetric rank-2 update),
//   * the off-band block  B_ol to its left (left side only),
//   * the off-band block  B_od below (right side / transposed-left),
// creating the next bulge. A full reduction is n-2 sweeps.
//
// The kernel is a template over a "lower accessor" so the identical
// arithmetic runs against two layouts:
//   * DenseLowerAccessor — band embedded in a dense n x n matrix (what the
//     paper's naive GPU kernel reads; entries of a column's band segment are
//     n doubles apart, thrashing the cache), and
//   * packed SymBandMatrix — the paper's Figure-10 layout; consecutive
//     storage, the whole band fits in L2.
//
// bulge_chase_parallel.h builds the pipelined multi-sweep version on top of
// the same per-sweep kernel. The scalar is the accessor's value_type: the
// packed layout is templated (double and float), the dense layout is FP64.
#pragma once

#include <algorithm>
#include <vector>

#include "band/sym_band.h"
#include "common/trace.h"
#include "la/matrix.h"
#include "lapack/lapack.h"

namespace tdg::bc {

/// One bulge-chasing Householder reflector: acts on rows
/// [row0, row0 + len) with v(0) = 1 implicit and v(1:) stored in a sweep's
/// vpool at offset voff.
template <class T>
struct ReflectorT {
  index_t row0 = 0;
  index_t len = 0;
  T tau = 0;
  index_t voff = 0;
};
using Reflector = ReflectorT<double>;

/// Reflectors of one sweep, in execution (chase-down) order.
template <class T>
struct SweepReflectorsT {
  std::vector<ReflectorT<T>> steps;
  std::vector<T> vpool;  // concatenated v(1:) tails
};
using SweepReflectors = SweepReflectorsT<double>;

/// All reflectors of a bulge-chasing run: Q2 = H(sweep0,step0) *
/// H(sweep0,step1) * ... * H(sweep1,step0) * ...  and  T = Q2^T B Q2.
template <class T>
struct ChaseLogT {
  index_t n = 0;
  index_t b = 0;
  std::vector<SweepReflectorsT<T>> sweeps;
};
using ChaseLog = ChaseLogT<double>;

/// Band content of a dense symmetric matrix, read/written through the lower
/// triangle only.
struct DenseLowerAccessor {
  using value_type = double;
  MatrixView a;
  index_t n() const { return a.rows; }
  double& at(index_t i, index_t j) const { return a(i, j); }
};

/// Packed band accessor (requires kd >= 2b for bulge fill-in).
template <class T>
struct PackedLowerAccessor {
  using value_type = T;
  SymBandMatrixT<T>* m;
  index_t n() const { return m->n(); }
  T& at(index_t i, index_t j) const { return m->at(i, j); }
};

namespace detail {

/// Apply the similarity transform of one block step. Acts on rows
/// [s, s+len) with reflector (v, tau); eliminated column is `c` (its
/// in-band/bulge segment must already be rewritten by the caller).
/// Updates B_d = A([s,s+len), [s,s+len)), B_ol = A([s,s+len), [c+1, s)),
/// and B_od = A([s+len, s+len+bod_rows), [s, s+len)).
template <class Acc, class T = typename Acc::value_type>
void apply_step(const Acc& acc, index_t s, index_t len, const T* v, T tau,
                index_t c, index_t b, T* wbuf) {
  const index_t n = acc.n();

  // --- B_ol: left update of columns (c, s). Entries live in rows [s, s+len)
  // (in-band tail plus bulge residue); below s + len they are zero.
  for (index_t q = c + 1; q < s; ++q) {
    T dotv = 0;
    for (index_t r = 0; r < len; ++r) dotv += v[r] * acc.at(s + r, q);
    const T tv = tau * dotv;
    for (index_t r = 0; r < len; ++r) acc.at(s + r, q) -= tv * v[r];
  }

  // --- B_d: two-sided symmetric update, lower triangle only.
  // w = tau * D v ; w -= (tau/2) (w^T v) v ; D -= v w^T + w v^T.
  for (index_t r = 0; r < len; ++r) {
    T sum = 0;
    for (index_t q = 0; q < len; ++q) {
      const index_t i = s + std::max(r, q);
      const index_t j = s + std::min(r, q);
      sum += acc.at(i, j) * v[q];
    }
    wbuf[r] = tau * sum;
  }
  T wv = 0;
  for (index_t r = 0; r < len; ++r) wv += wbuf[r] * v[r];
  const T corr = T(-0.5) * tau * wv;
  for (index_t r = 0; r < len; ++r) wbuf[r] += corr * v[r];
  for (index_t q = 0; q < len; ++q) {
    for (index_t r = q; r < len; ++r) {
      acc.at(s + r, s + q) -= v[r] * wbuf[q] + wbuf[r] * v[q];
    }
  }

  // --- B_od: right update of rows [s+len, s+len+b) across columns
  // [s, s+len). This creates the next bulge.
  const index_t jend = std::min(s + len + b, n);
  for (index_t rr = s + len; rr < jend; ++rr) {
    T dotv = 0;
    for (index_t q = 0; q < len; ++q) dotv += acc.at(rr, s + q) * v[q];
    const T tv = tau * dotv;
    for (index_t q = 0; q < len; ++q) acc.at(rr, s + q) -= tv * v[q];
  }
}

/// Eliminate the sub-segment of column `c` spanning rows [s, s+len): keep
/// the entry at row s, zero rows (s, s+len). Returns tau and writes the
/// reflector tail into vtail (len-1 entries); v(0) = 1 implicit.
template <class Acc, class T = typename Acc::value_type>
T eliminate_column(const Acc& acc, index_t c, index_t s, index_t len,
                   T* vtail) {
  T alpha = acc.at(s, c);
  for (index_t r = 1; r < len; ++r) vtail[r - 1] = acc.at(s + r, c);
  const T tau = lapack::larfg(len, alpha, vtail);
  if (tau != T(0)) {
    acc.at(s, c) = alpha;
    for (index_t r = 1; r < len; ++r) acc.at(s + r, c) = 0;
  }
  return tau;
}

}  // namespace detail

/// Execute sweep `i` of the bulge chase (all steps, chased to the bottom).
/// `progress`, when non-null, is set to the first row of the current block
/// step before the step executes, and to n + 3b on completion — this is the
/// gCom flag of the paper's Algorithm 2. `wait` is invoked before each step
/// with the step's first row (the pipelined driver blocks in it until the
/// predecessor sweep is far enough ahead; the sequential driver passes a
/// no-op).
///
/// `target_d` generalises the sweep to band-to-band reduction (the SBR
/// multi-step scheme): column i is eliminated below distance target_d
/// instead of below the first sub-diagonal, with reflectors of length
/// b - target_d + 1. target_d = 1 is ordinary tridiagonalising chase.
template <class Acc, class WaitFn, class PublishFn,
          class T = typename Acc::value_type>
void chase_sweep(const Acc& acc, index_t b, index_t i,
                 std::type_identity_t<SweepReflectorsT<T>*> log,
                 WaitFn&& wait, PublishFn&& publish, index_t target_d = 1) {
  const index_t n = acc.n();
  const index_t rlen = b - target_d + 1;  // reflector length per step
  std::vector<T> v(static_cast<std::size_t>(std::max<index_t>(rlen, 1)));
  std::vector<T> w(static_cast<std::size_t>(std::max<index_t>(rlen, 1)));

  // Step 1: eliminate column i below distance target_d; rows
  // [i+target_d, i+b].
  {
    const index_t s = i + target_d;
    const index_t len = std::min(rlen, n - s);
    if (len >= 2) {
      wait(s);
      v[0] = 1;
      const T tau = detail::eliminate_column(acc, i, s, len, v.data() + 1);
      if (tau != T(0)) {
        detail::apply_step(acc, s, len, v.data(), tau, i, b, w.data());
      }
      trace::record({trace::OpKind::kBcStep, b, len, 0, 1});
      if (log != nullptr) {
        const index_t voff = static_cast<index_t>(log->vpool.size());
        log->vpool.insert(log->vpool.end(), v.begin() + 1, v.begin() + len);
        log->steps.push_back({s, len, tau, voff});
      }
      publish(s + b);
    }
  }

  // Chase: eliminate the first bulge column at stride b.
  for (index_t c = i + target_d; c + b <= n - 1; c += b) {
    const index_t s = c + b;
    const index_t len = std::min(rlen, n - s);
    if (len < 1) break;
    wait(s);
    if (len >= 2) {
      v[0] = 1;
      const T tau = detail::eliminate_column(acc, c, s, len, v.data() + 1);
      if (tau != T(0)) {
        detail::apply_step(acc, s, len, v.data(), tau, c, b, w.data());
      }
      trace::record({trace::OpKind::kBcStep, b, len, 0, 1});
      if (log != nullptr) {
        const index_t voff = static_cast<index_t>(log->vpool.size());
        log->vpool.insert(log->vpool.end(), v.begin() + 1, v.begin() + len);
        log->steps.push_back({s, len, tau, voff});
      }
    }
    publish(s + b);
  }
  publish(n + 3 * b);  // sweep complete
}

/// Sequential bulge chase of a dense-embedded band matrix (naive layout).
/// On return the lower triangle of `a` is tridiagonal. When `log` is
/// non-null it receives the reflectors for the Q2 back transformation.
void chase_dense(MatrixView a, index_t b, ChaseLog* log);

/// Sequential bulge chase of a packed band matrix (Fig.-10 layout).
/// Requires band.kd() >= min(2b, n-1).
template <class T>
void chase_packed(SymBandMatrixT<T>& band, index_t b,
                  std::type_identity_t<ChaseLogT<T>*> log);

/// Extract diagonal/sub-diagonal from a tridiagonal (post-chase) matrix.
/// The tridiagonal problem is solved in FP64, so a float band is widened
/// (exactly) on the way out.
void extract_tridiag(ConstMatrixView a, std::vector<double>& d,
                     std::vector<double>& e);
template <class T>
void extract_tridiag(const SymBandMatrixT<T>& band, std::vector<double>& d,
                     std::vector<double>& e);

/// C <- Q2 * C where Q2 is the orthogonal factor logged during the chase
/// (T = Q2^T B Q2). Used to back-transform eigenvectors of T into
/// eigenvectors of the band matrix B.
void apply_q2_left(const ChaseLog& log, MatrixView c);

}  // namespace tdg::bc
