// Cuppen's divide & conquer for the symmetric tridiagonal eigenproblem.
//
// Split T into two half-size tridiagonals plus a rank-one coupling:
//   T = diag(T1', T2') + rho * u u^T,  u = e_mid(last of T1) + e_1(of T2),
// where T1'/T2' have their boundary diagonal entries reduced by rho. After
// solving the halves, the merge diagonalises D + rho z z^T via the secular
// equation with the two standard deflation rules (negligible z components;
// nearly-equal poles removed with a Givens rotation), and composes the
// eigenvector update as one fat GEMM — which is why D&C dominates QL for
// eigenvectors, and why the paper reuses MAGMA's stedc on the GPU. The
// merge's per-root loops (secular roots, recomputed weights, eigenvector
// columns) run on the global pool in fixed chunks, so the result is bitwise
// identical for any thread count.

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/cancel.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "eig/eig.h"
#include "eig/secular.h"
#include "la/blas.h"
#include "obs/obs.h"

namespace tdg::eig {

namespace {

// Diagonalise M = D + rho * z z^T in place: d (size m) receives ascending
// eigenvalues, and the columns of q (m x m, holding the current basis) are
// recombined so q_out = q_in * (eigenvectors of M). Returns the secular
// function evaluations spent on the roots.
long long rank_one_merge(std::vector<double>& d, std::vector<double>& z,
                         double rho, MatrixView q) {
  const index_t m = static_cast<index_t>(d.size());
  const double eps = std::numeric_limits<double>::epsilon();

  if (rho == 0.0) {
    // No coupling: just sort.
    std::vector<index_t> order(static_cast<std::size_t>(m));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
      return d[static_cast<std::size_t>(a)] < d[static_cast<std::size_t>(b)];
    });
    std::vector<double> ds(static_cast<std::size_t>(m));
    Matrix qs(m, m);
    for (index_t c = 0; c < m; ++c) {
      ds[static_cast<std::size_t>(c)] =
          d[static_cast<std::size_t>(order[static_cast<std::size_t>(c)])];
      for (index_t r = 0; r < m; ++r)
        qs(r, c) = q(r, order[static_cast<std::size_t>(c)]);
    }
    d = ds;
    copy(qs.view(), q);
    return 0;
  }

  // Reduce to rho > 0 by negation (eigenvectors are unaffected).
  const double sign = (rho > 0.0) ? 1.0 : -1.0;
  std::vector<double> dw(static_cast<std::size_t>(m));
  for (index_t i = 0; i < m; ++i)
    dw[static_cast<std::size_t>(i)] = sign * d[static_cast<std::size_t>(i)];
  double rhow = sign * rho;

  // Normalise z; fold ||z||^2 into rho.
  double zz = 0.0;
  for (double zi : z) zz += zi * zi;
  const double znorm = std::sqrt(zz);
  if (znorm == 0.0) return rank_one_merge(d, z, 0.0, q);
  std::vector<double> zw(static_cast<std::size_t>(m));
  for (index_t i = 0; i < m; ++i)
    zw[static_cast<std::size_t>(i)] = z[static_cast<std::size_t>(i)] / znorm;
  rhow *= zz;

  // Sort poles ascending; permute z and the columns of q physically.
  std::vector<index_t> order(static_cast<std::size_t>(m));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    return dw[static_cast<std::size_t>(a)] < dw[static_cast<std::size_t>(b)];
  });
  std::vector<double> ds(static_cast<std::size_t>(m)),
      zs(static_cast<std::size_t>(m));
  Matrix qp(m, m);
  for (index_t c = 0; c < m; ++c) {
    const index_t src = order[static_cast<std::size_t>(c)];
    ds[static_cast<std::size_t>(c)] = dw[static_cast<std::size_t>(src)];
    zs[static_cast<std::size_t>(c)] = zw[static_cast<std::size_t>(src)];
    for (index_t r = 0; r < m; ++r) qp(r, c) = q(r, src);
  }

  // Deflation (dlaed2 rules). `survivor` chains nearly-equal poles.
  double dmax = 0.0, zmax = 0.0;
  for (index_t i = 0; i < m; ++i) {
    dmax = std::max(dmax, std::abs(ds[static_cast<std::size_t>(i)]));
    zmax = std::max(zmax, std::abs(zs[static_cast<std::size_t>(i)]));
  }
  const double tol = 8.0 * eps * std::max(dmax, zmax);

  std::vector<bool> deflated(static_cast<std::size_t>(m), false);
  index_t prev = -1;  // last surviving index
  for (index_t i = 0; i < m; ++i) {
    if (rhow * std::abs(zs[static_cast<std::size_t>(i)]) <= tol) {
      deflated[static_cast<std::size_t>(i)] = true;
      continue;
    }
    if (prev >= 0) {
      const double zi = zs[static_cast<std::size_t>(i)];
      const double zj = zs[static_cast<std::size_t>(prev)];
      const double dgap =
          ds[static_cast<std::size_t>(i)] - ds[static_cast<std::size_t>(prev)];
      const double r = std::hypot(zi, zj);
      const double c = zi / r;
      const double s = zj / r;
      if (std::abs(dgap * c * s) <= tol) {
        // Rotate (prev, i) with R = [c s; -s c] so (R^T z)_prev = 0;
        // deflate prev. Columns transform as Q <- Q R.
        zs[static_cast<std::size_t>(i)] = r;
        zs[static_cast<std::size_t>(prev)] = 0.0;
        const double dj = ds[static_cast<std::size_t>(prev)];
        const double di = ds[static_cast<std::size_t>(i)];
        ds[static_cast<std::size_t>(prev)] = dj * c * c + di * s * s;
        ds[static_cast<std::size_t>(i)] = dj * s * s + di * c * c;
        for (index_t rr = 0; rr < m; ++rr) {
          const double qj = qp(rr, prev);
          const double qi = qp(rr, i);
          qp(rr, prev) = c * qj - s * qi;
          qp(rr, i) = s * qj + c * qi;
        }
        deflated[static_cast<std::size_t>(prev)] = true;
      }
    }
    prev = i;
  }

  // Gather the non-deflated subproblem.
  std::vector<index_t> surv;
  surv.reserve(static_cast<std::size_t>(m));
  for (index_t i = 0; i < m; ++i) {
    if (!deflated[static_cast<std::size_t>(i)]) surv.push_back(i);
  }
  const index_t k = static_cast<index_t>(surv.size());

  struct OutCol {
    double value;
    index_t src;   // secular root index (if secular) or qp column
    bool secular;
  };
  std::vector<OutCol> out;
  out.reserve(static_cast<std::size_t>(m));

  Matrix qv;  // m x k updated eigenvector columns
  std::vector<SecularRoot> roots;
  long long evals = 0;
  if (k > 0) {
    std::vector<double> dk(static_cast<std::size_t>(k)),
        zk(static_cast<std::size_t>(k));
    for (index_t t = 0; t < k; ++t) {
      dk[static_cast<std::size_t>(t)] =
          ds[static_cast<std::size_t>(surv[static_cast<std::size_t>(t)])];
      zk[static_cast<std::size_t>(t)] =
          zs[static_cast<std::size_t>(surv[static_cast<std::size_t>(t)])];
    }
    roots = solve_secular(dk, zk, rhow);
    for (const SecularRoot& r : roots) evals += r.evals;
    const std::vector<double> zhat = recompute_z(dk, zk, rhow, roots);

    Matrix v(k, k);
    parallel_chunks(k, kSecularChunk, [&](index_t lo, index_t hi) {
      for (index_t j = lo; j < hi; ++j)
        secular_eigenvector(dk, zhat, roots, j, &v(0, j));
    });

    // Q_sub (m x k) * V (k x k): the fat GEMM of the merge.
    Matrix qsub(m, k);
    for (index_t t = 0; t < k; ++t) {
      for (index_t r = 0; r < m; ++r)
        qsub(r, t) = qp(r, surv[static_cast<std::size_t>(t)]);
    }
    qv = Matrix(m, k);
    la::gemm(Trans::kNo, Trans::kNo, 1.0, qsub.view(), v.view(), 0.0,
             qv.view());

    for (index_t j = 0; j < k; ++j) {
      out.push_back({roots[static_cast<std::size_t>(j)].lambda, j, true});
    }
  }
  for (index_t i = 0; i < m; ++i) {
    if (deflated[static_cast<std::size_t>(i)]) {
      out.push_back({ds[static_cast<std::size_t>(i)], i, false});
    }
  }

  // Undo the negation and sort ascending.
  for (auto& oc : out) oc.value *= sign;
  std::sort(out.begin(), out.end(),
            [](const OutCol& a, const OutCol& b) { return a.value < b.value; });

  Matrix qout(m, m);
  for (index_t c = 0; c < m; ++c) {
    const OutCol& oc = out[static_cast<std::size_t>(c)];
    d[static_cast<std::size_t>(c)] = oc.value;
    if (oc.secular) {
      for (index_t r = 0; r < m; ++r) qout(r, c) = qv(r, oc.src);
    } else {
      for (index_t r = 0; r < m; ++r) qout(r, c) = qp(r, oc.src);
    }
  }
  copy(qout.view(), q);
  return evals;
}

// Returns the secular function evaluations spent in this subtree's merges.
long long solve_recursive(double* d, double* e, index_t m, MatrixView q,
                          index_t smlsiz) {
  if (m == 1) {
    q(0, 0) = 1.0;
    return 0;
  }
  if (m <= smlsiz) {
    std::vector<double> dd(d, d + m);
    std::vector<double> ee(e, e + (m - 1));
    fill(q, 0.0);
    for (index_t i = 0; i < m; ++i) q(i, i) = 1.0;
    steqr(dd, ee, &q);
    std::copy(dd.begin(), dd.end(), d);
    return 0;
  }

  // One cancellation poll per merge node of the D&C tree (phase-boundary
  // granularity; the base cases above are bounded by smlsiz).
  cancel::poll("stedc_merge");

  const index_t m1 = m / 2;
  const double rho = e[m1 - 1];
  d[m1 - 1] -= rho;
  d[m1] -= rho;

  fill(q, 0.0);
  long long evals = solve_recursive(d, e, m1, q.block(0, 0, m1, m1), smlsiz);
  evals += solve_recursive(d + m1, e + m1, m - m1,
                           q.block(m1, m1, m - m1, m - m1), smlsiz);

  // z = [last row of Q1 ; first row of Q2].
  std::vector<double> z(static_cast<std::size_t>(m));
  for (index_t i = 0; i < m1; ++i) z[static_cast<std::size_t>(i)] = q(m1 - 1, i);
  for (index_t i = m1; i < m; ++i) z[static_cast<std::size_t>(i)] = q(m1, i);

  std::vector<double> dv(d, d + m);
  evals += rank_one_merge(dv, z, rho, q);
  std::copy(dv.begin(), dv.end(), d);
  return evals;
}

}  // namespace

void stedc(std::vector<double>& d, std::vector<double>& e, MatrixView q,
           index_t smlsiz) {
  const index_t n = static_cast<index_t>(d.size());
  TDG_CHECK(q.rows == n && q.cols == n, "stedc: q must be n x n");
  TDG_CHECK(smlsiz >= 2, "stedc: smlsiz must be >= 2");
  TDG_CHECK(static_cast<index_t>(e.size()) >= std::max<index_t>(n - 1, 0),
            "stedc: e must have n-1 entries");
  if (n == 0) return;
  obs::Span span("stedc");
  span.attr("n", n);
  span.attr("smlsiz", smlsiz);
  span.attr("secular_evals", solve_recursive(d.data(), e.data(), n, q, smlsiz));
}

}  // namespace tdg::eig
