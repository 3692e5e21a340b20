// Secular root finder: safeguarded fixed-weight rational interpolation
// (dlaed4 family). Per iterate, one pass over the poles splits
//     f(mu) = 1/rho + psi(mu) + phi(mu),
// psi over the poles left of the root (i <= j), phi over those right of it,
// together with f'. An interior root fits c + s/(D_j - eta) + S/(D_{j+1} -
// eta) to f and f' with the nearer pole's weight kept exact (dlaed4's
// c, a, b quadratic, D_i = d_i - lambda); the last root fits
// c + s/(D_{k-1} - eta). A step pointing the wrong way falls back to a
// Newton step, an iterate leaving the bracket (lo, hi) to bisection, and the
// iteration stops at dlaed4's error bound
//     |f| <= eps * (8 (phi - psi) + 2/rho + |mu| f')
// or when the bracket collapses.

#include "eig/secular.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/check.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace tdg::eig {

namespace {

// Iteration cap per root: at least the 88 evaluations (80 bisections +
// 8 Newton steps) of an all-bisection search from a half-gap bracket.
constexpr int kMaxIter = 96;

struct SecularMetrics {
  obs::Counter* roots;
  obs::Counter* evals;

  static SecularMetrics& get() {
    static SecularMetrics m = [] {
      obs::Registry& r = obs::Registry::global();
      return SecularMetrics{r.counter("eig.secular.roots"),
                            r.counter("eig.secular.evals")};
    }();
    return m;
  }
};

struct Problem {
  const std::vector<double>& d;
  const std::vector<double>& z;
  double rho;
  double rhoinv;
};

double sq(double x) { return x * x; }

// f and f' at d[base] + mu, the sum split after pole `split`:
// psi = sum_{i <= split} z_i^2 / D_i (<= 0), phi = the rest (>= 0), with
// D_i = (d_i - d_base) - mu.
struct Eval {
  double f;
  double df;
  double psi;
  double phi;
};

Eval eval_split(const Problem& p, index_t base, index_t split, double mu) {
  const std::size_t k = p.d.size();
  const std::size_t s = static_cast<std::size_t>(split) + 1;
  const double dbase = p.d[static_cast<std::size_t>(base)];
  double psi = 0.0;
  double phi = 0.0;
  double df = 0.0;
  for (std::size_t i = 0; i < s; ++i) {
    const double t = p.z[i] / ((p.d[i] - dbase) - mu);
    psi += p.z[i] * t;
    df += t * t;
  }
  for (std::size_t i = s; i < k; ++i) {
    const double t = p.z[i] / ((p.d[i] - dbase) - mu);
    phi += p.z[i] * t;
    df += t * t;
  }
  return {p.rhoinv + psi + phi, df, psi, phi};
}

// Rational-interpolation step eta (mu -> mu + eta) for root j from f, f'
// at the current iterate. `dl` and `dr` are D_j and D_{j+1} there.
double interior_step(const Problem& p, index_t j, index_t base,
                     const Eval& ev, double dl, double dr) {
  const std::size_t uj = static_cast<std::size_t>(j);
  const double gap = p.d[uj + 1] - p.d[uj];
  double c;
  if (base == j) {
    c = ev.f - dr * ev.df + gap * sq(p.z[uj] / dl);
  } else {
    c = ev.f - dl * ev.df - gap * sq(p.z[uj + 1] / dr);
  }
  double a = (dl + dr) * ev.f - dl * dr * ev.df;
  const double b = dl * dr * ev.f;
  if (c == 0.0) {
    if (a == 0.0) {
      a = (base == j) ? sq(p.z[uj]) + dr * dr * ev.df
                      : sq(p.z[uj + 1]) + dl * dl * ev.df;
    }
    return b / a;
  }
  const double disc = std::sqrt(std::abs(a * a - 4.0 * b * c));
  return (a <= 0.0) ? (a - disc) / (2.0 * c) : 2.0 * b / (a + disc);
}

// Iterate root j from mu inside the open bracket (lo, hi) of the shift
// origin d[base]; f(lo) < 0 < f(hi).
SecularRoot iterate(const Problem& p, index_t j, index_t base, double lo,
                    double hi, double mu, int evals) {
  const index_t k = static_cast<index_t>(p.d.size());
  const double eps = std::numeric_limits<double>::epsilon();
  const double dbase = p.d[static_cast<std::size_t>(base)];
  for (int it = 1; it <= kMaxIter; ++it) {
    const Eval ev = eval_split(p, base, j, mu);
    ++evals;
    const double bound =
        8.0 * (ev.phi - ev.psi) + 2.0 * p.rhoinv + std::abs(mu) * ev.df;
    if (std::abs(ev.f) <= eps * bound) return {dbase + mu, mu, base, evals};
    if (ev.f < 0.0) {
      lo = mu;
    } else {
      hi = mu;
    }
    double next;
    if (j + 1 < k) {
      const double dl = (p.d[static_cast<std::size_t>(j)] - dbase) - mu;
      const double dr = (p.d[static_cast<std::size_t>(j + 1)] - dbase) - mu;
      next = mu + interior_step(p, j, base, ev, dl, dr);
    } else {
      // One-pole fit c + s/(D_{k-1} - eta) with D_{k-1} = -mu: s = mu^2 f',
      // c = f + mu f'. Its root, formed without the cancellation of
      // mu + eta (a root far below mu when z_{k-1} is tiny), is mu^2 f'/c.
      next = mu * (mu * ev.df) / (ev.f + mu * ev.df);
    }
    if ((next - mu) * ev.f >= 0.0) next = mu - ev.f / ev.df;  // wrong way
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);      // bisect
    if (!(next > lo && next < hi) || next == mu) {
      return {dbase + mu, mu, base, evals};  // bracket collapsed
    }
    mu = next;
  }
  throw Error(ErrorCode::kNoConvergence,
              "secular: root " + std::to_string(j) + " did not converge in " +
                  std::to_string(kMaxIter) + " iterations",
              {"secular", j, kMaxIter});
}

SecularRoot solve_root(const Problem& p, index_t j) {
  const index_t k = static_cast<index_t>(p.d.size());
  if (j + 1 == k) {
    // Last root in (d_{k-1}, d_{k-1} + rho * z^T z). The bracket's upper
    // end has f >= 0 analytically; the loop guards against roundoff.
    double zz = 0.0;
    for (double zi : p.z) zz += zi * zi;
    double hi = p.rho * zz;
    int evals = 1;
    while (eval_split(p, j, j, hi).f <= 0.0) {
      hi *= 2.0;
      ++evals;
    }
    return iterate(p, j, j, 0.0, hi, 0.5 * hi, evals);
  }

  // Interior root in (d_j, d_{j+1}). Choose the shift origin by the sign
  // of f at the midpoint: f(mid) >= 0 means the root is in the left half
  // (closer to d_j), otherwise the right half (closer to d_{j+1}). The same
  // pass yields the initial guess: the root of the two-pole model
  // c + z_j^2/(d_j - lambda) + z_{j+1}^2/(d_{j+1} - lambda), c the other
  // poles' sum frozen at the midpoint.
  const std::size_t uj = static_cast<std::size_t>(j);
  const double gap = p.d[uj + 1] - p.d[uj];
  const double mid = 0.5 * gap;
  double c = p.rhoinv;
  for (std::size_t i = 0; i < p.d.size(); ++i) {
    if (i == uj || i == uj + 1) continue;
    c += sq(p.z[i]) / ((p.d[i] - p.d[uj]) - mid);
  }
  const double zl = sq(p.z[uj]);
  const double zr = sq(p.z[uj + 1]);
  const double fmid = c - zl / mid + zr / (gap - mid);
  index_t base;
  double lo;
  double hi;
  double tau;
  if (fmid >= 0.0) {
    base = j;
    lo = 0.0;
    hi = mid;
    const double a = c * gap + zl + zr;
    const double b = zl * gap;
    const double disc = std::sqrt(std::abs(a * a - 4.0 * b * c));
    tau = (a > 0.0) ? 2.0 * b / (a + disc) : (a - disc) / (2.0 * c);
  } else {
    base = j + 1;
    lo = -mid;
    hi = 0.0;
    const double a = -c * gap + zl + zr;
    const double b = zr * gap;
    const double disc = std::sqrt(std::abs(a * a + 4.0 * b * c));
    tau = (a > 0.0) ? -2.0 * b / (a + disc) : (a - disc) / (2.0 * c);
  }
  if (!(tau > lo && tau < hi)) tau = 0.5 * (lo + hi);
  return iterate(p, j, base, lo, hi, tau, 1);
}

}  // namespace

std::vector<SecularRoot> solve_secular(const std::vector<double>& d,
                                       const std::vector<double>& z,
                                       double rho) {
  const index_t k = static_cast<index_t>(d.size());
  TDG_CHECK(k >= 1 && z.size() == d.size(), "solve_secular: size mismatch");
  TDG_CHECK(rho > 0.0, "solve_secular: rho must be positive");
  for (index_t i = 0; i + 1 < k; ++i) {
    TDG_CHECK(d[static_cast<std::size_t>(i)] < d[static_cast<std::size_t>(i + 1)],
              "solve_secular: poles must be strictly increasing");
  }

  // The fault site is visited on the calling thread, once per root in root
  // order, before dispatch: "secular_root:N" fails root N-1 at any thread
  // count.
  for (index_t j = 0; j < k; ++j) {
    if (fault::should_fire("secular_root")) {
      // Typed as kNoConvergence (a real secular solver can fail to bracket
      // a root) so the D&C driver's solver fallback chain engages.
      throw Error(ErrorCode::kNoConvergence,
                  "secular: fault 'secular_root' forced failure at root " +
                      std::to_string(j),
                  {"secular", j, 0});
    }
  }

  const Problem p{d, z, rho, 1.0 / rho};
  std::vector<SecularRoot> roots(static_cast<std::size_t>(k));
  parallel_chunks(k, kSecularChunk, [&](index_t lo, index_t hi) {
    long long evals = 0;
    for (index_t j = lo; j < hi; ++j) {
      roots[static_cast<std::size_t>(j)] = solve_root(p, j);
      evals += roots[static_cast<std::size_t>(j)].evals;
    }
    SecularMetrics& m = SecularMetrics::get();
    m.roots->inc(hi - lo);
    m.evals->inc(evals);
  });
  return roots;
}

std::vector<double> recompute_z(const std::vector<double>& d,
                                const std::vector<double>& z, double rho,
                                const std::vector<SecularRoot>& roots) {
  const index_t k = static_cast<index_t>(d.size());
  std::vector<double> zhat(static_cast<std::size_t>(k));
  parallel_chunks(k, kSecularChunk, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      // From the characteristic polynomial of D + rho z z^T evaluated at
      // d_i: zhat_i^2 = prod_j (lambda_j - d_i) / (rho * prod_{j != i}
      // (d_j - d_i)), evaluated as O(1)-magnitude ratio pairs for stability.
      double prod = pole_minus_root(d, roots[static_cast<std::size_t>(i)], i) *
                    -1.0 / rho;  // (lambda_i - d_i) / rho
      for (index_t j = 0; j < k; ++j) {
        if (j == i) continue;
        const double num =
            -pole_minus_root(d, roots[static_cast<std::size_t>(j)], i);
        const double den =
            d[static_cast<std::size_t>(j)] - d[static_cast<std::size_t>(i)];
        prod *= num / den;
      }
      // Roundoff can push prod slightly negative when z_i is tiny.
      prod = std::max(prod, 0.0);
      zhat[static_cast<std::size_t>(i)] =
          std::copysign(std::sqrt(prod), z[static_cast<std::size_t>(i)]);
    }
  });
  return zhat;
}

void secular_eigenvector(const std::vector<double>& d,
                         const std::vector<double>& zhat,
                         const std::vector<SecularRoot>& roots, index_t j,
                         double* v) {
  const index_t k = static_cast<index_t>(d.size());
  double norm2 = 0.0;
  for (index_t i = 0; i < k; ++i) {
    const double diff = pole_minus_root(d, roots[static_cast<std::size_t>(j)], i);
    const double vi = zhat[static_cast<std::size_t>(i)] / diff;
    v[i] = vi;
    norm2 += vi * vi;
  }
  const double inv = 1.0 / std::sqrt(norm2);
  for (index_t i = 0; i < k; ++i) v[i] *= inv;
}

}  // namespace tdg::eig
