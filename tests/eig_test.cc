// Tests for the tridiagonal eigensolvers (steqr, secular solver, stedc) and
// the end-to-end EVD drivers.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "eig/drivers.h"
#include "eig/eig.h"
#include "eig/secular.h"
#include "la/blas.h"
#include "la/generate.h"

namespace tdg {
namespace {

Matrix tridiag_dense(const std::vector<double>& d,
                     const std::vector<double>& e) {
  const index_t n = static_cast<index_t>(d.size());
  Matrix t(n, n);
  for (index_t i = 0; i < n; ++i) {
    t(i, i) = d[static_cast<size_t>(i)];
    if (i + 1 < n) {
      t(i + 1, i) = e[static_cast<size_t>(i)];
      t(i, i + 1) = e[static_cast<size_t>(i)];
    }
  }
  return t;
}

// || T Z - Z diag(w) ||_max — residual of the eigen decomposition.
double eigen_residual(ConstMatrixView t, ConstMatrixView z,
                      const std::vector<double>& w) {
  Matrix tz(t.rows, t.cols);
  la::gemm(Trans::kNo, Trans::kNo, 1.0, t, z, 0.0, tz.view());
  double m = 0.0;
  for (index_t j = 0; j < t.cols; ++j) {
    for (index_t i = 0; i < t.rows; ++i) {
      m = std::max(m, std::abs(tz(i, j) - z(i, j) * w[static_cast<size_t>(j)]));
    }
  }
  return m;
}

TEST(Steqr, LaplacianEigenvaluesAnalytic) {
  const index_t n = 64;
  std::vector<double> d(static_cast<size_t>(n), 2.0);
  std::vector<double> e(static_cast<size_t>(n - 1), -1.0);
  eig::steqr(d, e, nullptr);
  const auto exact = laplacian_1d_eigenvalues(n);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(d[static_cast<size_t>(i)], exact[static_cast<size_t>(i)],
                1e-12 * n);
  }
}

TEST(Steqr, EigenvectorsResidualAndOrthogonality) {
  Rng rng(1);
  const index_t n = 40;
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n - 1));
  for (auto& x : d) x = rng.normal();
  for (auto& x : e) x = rng.normal();
  const Matrix t = tridiag_dense(d, e);

  Matrix z = Matrix::identity(n);
  MatrixView zv = z.view();
  eig::steqr(d, e, &zv);

  EXPECT_TRUE(std::is_sorted(d.begin(), d.end()));
  EXPECT_LT(orthogonality_error(z.view()), 1e-12 * n);
  EXPECT_LT(eigen_residual(t.view(), z.view(), d), 1e-12 * n);
}

TEST(Steqr, HandlesZeroAndSingleAndDiagonal) {
  std::vector<double> d0, e0;
  eig::steqr(d0, e0, nullptr);  // n == 0: no-op
  std::vector<double> d1{5.0}, e1;
  eig::steqr(d1, e1, nullptr);
  EXPECT_DOUBLE_EQ(d1[0], 5.0);
  // Already diagonal: e = 0.
  std::vector<double> d{3.0, 1.0, 2.0}, e{0.0, 0.0};
  eig::steqr(d, e, nullptr);
  EXPECT_DOUBLE_EQ(d[0], 1.0);
  EXPECT_DOUBLE_EQ(d[1], 2.0);
  EXPECT_DOUBLE_EQ(d[2], 3.0);
}

TEST(Secular, RootsInterlaceAndSolveExactly) {
  // Small problem with known structure: D = diag(0,1,2), z = (1,1,1)/sqrt 3,
  // rho = 1. Roots interlace: d_j < lambda_j < d_{j+1}, last < d_max+rho.
  const std::vector<double> d{0.0, 1.0, 2.0};
  const double s = 1.0 / std::sqrt(3.0);
  const std::vector<double> z{s, s, s};
  const auto roots = eig::solve_secular(d, z, 1.0);
  ASSERT_EQ(roots.size(), 3u);
  EXPECT_GT(roots[0].lambda, 0.0);
  EXPECT_LT(roots[0].lambda, 1.0);
  EXPECT_GT(roots[1].lambda, 1.0);
  EXPECT_LT(roots[1].lambda, 2.0);
  EXPECT_GT(roots[2].lambda, 2.0);
  EXPECT_LT(roots[2].lambda, 3.0 + 1e-12);
  // f(lambda) ~ 0 at each root.
  for (const auto& r : roots) {
    double f = 1.0;
    for (int i = 0; i < 3; ++i)
      f += z[static_cast<size_t>(i)] * z[static_cast<size_t>(i)] /
           (d[static_cast<size_t>(i)] - r.lambda);
    EXPECT_LT(std::abs(f), 1e-10);
  }
  // Eigenvalue sum: trace(D + rho z z^T) = 0+1+2 + 1 = 4.
  EXPECT_NEAR(roots[0].lambda + roots[1].lambda + roots[2].lambda, 4.0, 1e-12);
}

TEST(Secular, TinyGapsStayBracketed) {
  const std::vector<double> d{0.0, 1e-14, 1.0};
  const std::vector<double> z{0.5, 0.5, 0.7};
  const auto roots = eig::solve_secular(d, z, 2.0);
  EXPECT_GT(roots[0].lambda, d[0]);
  EXPECT_LT(roots[0].lambda, d[1]);
  EXPECT_GT(roots[1].lambda, d[1]);
  EXPECT_LT(roots[1].lambda, d[2]);
}

TEST(Secular, RecomputedZReproducesOriginalOnExactData) {
  // On a well-separated problem zhat ~ z.
  const std::vector<double> d{0.0, 2.0, 5.0, 9.0};
  std::vector<double> z{0.3, -0.4, 0.5, 0.6};
  const auto roots = eig::solve_secular(d, z, 1.7);
  const auto zhat = eig::recompute_z(d, z, 1.7, roots);
  for (std::size_t i = 0; i < z.size(); ++i) {
    EXPECT_NEAR(zhat[i], z[i], 1e-10) << i;
  }
}

// ---- adversarial secular equations ----------------------------------------

// Every root strictly inside its interval (checked in the accurate
// (base, mu) representation: a root within an ulp of a pole rounds onto it
// as a plain double) and a secular residual within the 1e-10 bound of
// RootsInterlaceAndSolveExactly, relative to 1 + rho * sum |z_i^2 / (d_i -
// lambda)| — the magnitude of the terms, O(1) on well-separated poles; in a
// cluster the two nearest terms cancel and no root in floating point can do
// better than eps times it.
void expect_secular_solved(const std::vector<double>& d,
                           const std::vector<double>& z, double rho) {
  const index_t k = static_cast<index_t>(d.size());
  const auto roots = eig::solve_secular(d, z, rho);
  ASSERT_EQ(static_cast<index_t>(roots.size()), k);
  double zz = 0.0;
  for (double zi : z) zz += zi * zi;
  for (index_t j = 0; j < k; ++j) {
    const eig::SecularRoot& r = roots[static_cast<size_t>(j)];
    EXPECT_LT(eig::pole_minus_root(d, r, j), 0.0) << "root " << j;
    EXPECT_GE(r.lambda, d[static_cast<size_t>(j)]) << "root " << j;
    if (j + 1 < k) {
      EXPECT_GT(eig::pole_minus_root(d, r, j + 1), 0.0) << "root " << j;
      EXPECT_LE(r.lambda, d[static_cast<size_t>(j + 1)]) << "root " << j;
    } else {
      EXPECT_LE(-eig::pole_minus_root(d, r, k - 1), rho * zz * (1.0 + 1e-15))
          << "last root";
    }
    double f = 1.0;
    double mag = 1.0;
    for (index_t i = 0; i < k; ++i) {
      const double t = rho * z[static_cast<size_t>(i)] *
                       z[static_cast<size_t>(i)] /
                       eig::pole_minus_root(d, r, i);
      f += t;
      mag += std::abs(t);
    }
    EXPECT_LT(std::abs(f), 1e-10 * mag) << "root " << j;
  }
}

std::vector<double> unit_weights(index_t k, Rng& rng) {
  std::vector<double> z(static_cast<size_t>(k));
  double zz = 0.0;
  for (auto& x : z) {
    x = rng.normal();
    zz += x * x;
  }
  for (auto& x : z) x /= std::sqrt(zz);
  return z;
}

TEST(Secular, PoleClustersWithRelativeGapsNear1em13) {
  // Triples of poles 1e-13 apart (relative) around 1, 2, ..., with the
  // isolated poles between them.
  std::vector<double> d;
  for (int c = 1; c <= 6; ++c) {
    const double x = static_cast<double>(c);
    d.push_back(x - 0.5);
    d.push_back(x);
    d.push_back(x * (1.0 + 1e-13));
    d.push_back(x * (1.0 + 2e-13));
  }
  Rng rng(91);
  const auto z = unit_weights(static_cast<index_t>(d.size()), rng);
  expect_secular_solved(d, z, 1.0);
}

TEST(Secular, GradedWeightsSpanning1em150To1) {
  const index_t k = 31;
  std::vector<double> d(static_cast<size_t>(k)), z(static_cast<size_t>(k));
  for (index_t i = 0; i < k; ++i) {
    d[static_cast<size_t>(i)] = static_cast<double>(i) * 0.37 - 2.0;
    const double t = static_cast<double>(i) / static_cast<double>(k - 1);
    // Alternate the ends so tiny and O(1) weights sit next to each other.
    const double e = (i % 2 == 0) ? -150.0 * t : -150.0 * (1.0 - t);
    z[static_cast<size_t>(i)] = std::pow(10.0, e);
  }
  expect_secular_solved(d, z, 1.0);
}

TEST(Secular, ExtremeCouplingRho) {
  Rng rng(92);
  const index_t k = 40;
  std::vector<double> d(static_cast<size_t>(k));
  for (auto& x : d) x = rng.normal();
  std::sort(d.begin(), d.end());
  const auto z = unit_weights(k, rng);
  for (double rho : {1e-12, 1e12}) {
    SCOPED_TRACE(rho);
    expect_secular_solved(d, z, rho);
  }
}

TEST(Secular, LastRootFarBeyondTheLargestPole) {
  // rho * |z|^2 = 1e8 against poles in [0, 1]: the last root sits near
  // 1e8, every other root near a pole.
  Rng rng(93);
  const index_t k = 24;
  std::vector<double> d(static_cast<size_t>(k));
  for (index_t i = 0; i < k; ++i)
    d[static_cast<size_t>(i)] = static_cast<double>(i) / (k - 1);
  const auto z = unit_weights(k, rng);
  expect_secular_solved(d, z, 1e8);
  const auto roots = eig::solve_secular(d, z, 1e8);
  EXPECT_GT(roots.back().lambda, 0.99e8);
}

class StedcTest : public ::testing::TestWithParam<int> {};

TEST_P(StedcTest, MatchesSteqrAndIsOrthogonal) {
  const index_t n = GetParam();
  Rng rng(10 + static_cast<uint64_t>(n));
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n - 1));
  for (auto& x : d) x = rng.normal();
  for (auto& x : e) x = rng.normal();
  const Matrix t = tridiag_dense(d, e);

  std::vector<double> d1 = d, e1 = e;
  eig::steqr(d1, e1, nullptr);

  std::vector<double> d2 = d, e2 = e;
  Matrix q(n, n);
  eig::stedc(d2, e2, q.view(), 8);

  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(d1[static_cast<size_t>(i)], d2[static_cast<size_t>(i)],
                1e-11 * n)
        << i;
  }
  EXPECT_LT(orthogonality_error(q.view()), 1e-11 * n);
  EXPECT_LT(eigen_residual(t.view(), q.view(), d2), 1e-11 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, StedcTest,
                         ::testing::Values(1, 2, 3, 7, 8, 9, 16, 17, 33, 64,
                                           100, 129));

TEST(Stedc, HeavyDeflationClusteredSpectrum) {
  // A matrix engineered to deflate heavily: many equal diagonal entries and
  // tiny couplings.
  const index_t n = 50;
  std::vector<double> d(static_cast<size_t>(n), 1.0);
  std::vector<double> e(static_cast<size_t>(n - 1), 1e-18);
  e[10] = 0.5;
  e[30] = -0.25;
  const Matrix t = tridiag_dense(d, e);

  std::vector<double> dd = d, ee = e;
  Matrix q(n, n);
  eig::stedc(dd, ee, q.view(), 8);
  EXPECT_LT(orthogonality_error(q.view()), 1e-11 * n);
  EXPECT_LT(eigen_residual(t.view(), q.view(), dd), 1e-11 * n);
}

TEST(Stedc, ZeroCouplingSplitsCleanly) {
  const index_t n = 16;
  Rng rng(77);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n - 1));
  for (auto& x : d) x = rng.normal();
  for (auto& x : e) x = rng.normal();
  e[7] = 0.0;  // rho == 0 at the top-level merge
  const Matrix t = tridiag_dense(d, e);

  std::vector<double> dd = d, ee = e;
  Matrix q(n, n);
  eig::stedc(dd, ee, q.view(), 4);
  EXPECT_LT(eigen_residual(t.view(), q.view(), dd), 1e-12 * n);
}

// ---- adversarial stedc inputs ---------------------------------------------

// Orthogonality and residual within the 1e-11 * n bounds of StedcTest, and
// the result bitwise equal at 1, 2 and 4 threads (the merge's per-root
// loops run on the pool).
void expect_stedc_exact_and_thread_invariant(const std::vector<double>& d,
                                             const std::vector<double>& e,
                                             index_t smlsiz) {
  const index_t n = static_cast<index_t>(d.size());
  const Matrix t = tridiag_dense(d, e);
  std::vector<double> d1;
  Matrix q1;
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    ThreadLimit limit(threads);
    std::vector<double> dd = d, ee = e;
    Matrix q(n, n);
    eig::stedc(dd, ee, q.view(), smlsiz);
    if (threads == 1) {
      EXPECT_TRUE(std::is_sorted(dd.begin(), dd.end()));
      EXPECT_LT(orthogonality_error(q.view()), 1e-11 * n);
      EXPECT_LT(eigen_residual(t.view(), q.view(), dd), 1e-11 * n);
      d1 = dd;
      q1 = q;
      continue;
    }
    EXPECT_EQ(dd, d1);
    EXPECT_TRUE(std::equal(q.data(), q.data() + n * n, q1.data()));
  }
}

// Wilkinson W21+ (diagonal |i - 10|, off-diagonal 1) glued `copies` times
// with off-diagonal `glue`: clusters of nearly equal eigenvalues.
void glued_wilkinson(int copies, double glue, std::vector<double>* d,
                     std::vector<double>* e) {
  d->clear();
  e->clear();
  for (int c = 0; c < copies; ++c) {
    for (int i = 0; i < 21; ++i) {
      d->push_back(std::abs(i - 10.0));
      if (i < 20) e->push_back(1.0);
    }
    if (c + 1 < copies) e->push_back(glue);
  }
}

TEST(Stedc, GluedWilkinsonW21Plus) {
  for (double glue : {1e-10, 1e-14}) {
    SCOPED_TRACE(glue);
    std::vector<double> d, e;
    glued_wilkinson(6, glue, &d, &e);
    expect_stedc_exact_and_thread_invariant(d, e, 8);
  }
}

TEST(Stedc, HalvesWithSpectraOffsetBy1em13) {
  // T = [T1, c; c, T1 + 1e-13 |T1|]: at the top merge every pole has a
  // partner at a relative gap of about 1e-13, above the deflation
  // tolerance.
  const index_t h = 48;
  Rng rng(94);
  std::vector<double> d(static_cast<size_t>(2 * h)),
      e(static_cast<size_t>(2 * h - 1));
  for (index_t i = 0; i < h; ++i) {
    const double di = 1.0 + 0.5 * rng.normal();
    d[static_cast<size_t>(i)] = di;
    d[static_cast<size_t>(h + i)] = di * (1.0 + 1e-13);
  }
  for (index_t i = 0; i + 1 < h; ++i) {
    const double ei = 0.3 * rng.normal();
    e[static_cast<size_t>(i)] = ei;
    e[static_cast<size_t>(h + i)] = ei;
  }
  e[static_cast<size_t>(h - 1)] = 0.5;
  expect_stedc_exact_and_thread_invariant(d, e, 8);
}

TEST(Stedc, GradedCouplingsSpanning1em150To1) {
  const index_t n = 96;
  Rng rng(95);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n - 1));
  for (auto& x : d) x = rng.normal();
  for (index_t i = 0; i + 1 < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n - 2);
    e[static_cast<size_t>(i)] = std::pow(10.0, -150.0 * t);
  }
  expect_stedc_exact_and_thread_invariant(d, e, 8);
}

TEST(Stedc, ExtremeCouplings) {
  const index_t n = 96;
  Rng rng(96);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n - 1));
  // rho = 1e-12 at every merge: roots within ~1e-12 of their poles.
  for (auto& x : d) x = rng.normal();
  for (auto& x : e) x = 1e-12 * (1.0 + rng.uniform());
  expect_stedc_exact_and_thread_invariant(d, e, 8);
  // Couplings 1e12 times the diagonal spread: rho |z|^2 far beyond the
  // poles, the last root of each merge far beyond the largest pole.
  for (auto& x : d) x = 1e-12 * rng.normal();
  for (auto& x : e) x = 1.0 + rng.uniform();
  expect_stedc_exact_and_thread_invariant(d, e, 8);
}

TEST(Eigh, DirectMatchesSpectrumGenerator) {
  Rng rng(20);
  std::vector<double> evals(32);
  for (std::size_t i = 0; i < evals.size(); ++i)
    evals[i] = static_cast<double>(i) - 7.5;
  const Matrix a = symmetric_with_spectrum(evals, rng);

  eig::EvdOptions opts;
  opts.tridiag.method = TridiagMethod::kDirect;
  const eig::EvdResult r = eig::eigh(a.view(), opts);
  for (std::size_t i = 0; i < evals.size(); ++i) {
    EXPECT_NEAR(r.eigenvalues[i], evals[i], 1e-10);
  }
}

class EighPipelineTest
    : public ::testing::TestWithParam<std::tuple<int, TridiagMethod, bool>> {};

TEST_P(EighPipelineTest, ResidualAndOrthogonality) {
  const auto [n, method, vectors] = GetParam();
  Rng rng(30 + static_cast<uint64_t>(n));
  const Matrix a = random_symmetric(n, rng);

  eig::EvdOptions opts;
  opts.vectors = vectors;
  opts.tridiag.method = method;
  opts.tridiag.b = 4;
  opts.tridiag.k = 8;
  opts.tridiag.bc_threads = 3;
  opts.knobs.bt_kw = 8;
  const eig::EvdResult r = eig::eigh(a.view(), opts);

  EXPECT_TRUE(std::is_sorted(r.eigenvalues.begin(), r.eigenvalues.end()));

  // Cross-validate eigenvalues against the direct method with QL.
  eig::EvdOptions ref;
  ref.vectors = false;
  ref.tridiag.method = TridiagMethod::kDirect;
  const eig::EvdResult rr = eig::eigh(a.view(), ref);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(r.eigenvalues[static_cast<size_t>(i)],
                rr.eigenvalues[static_cast<size_t>(i)], 1e-10 * n)
        << i;
  }

  if (vectors) {
    EXPECT_LT(orthogonality_error(r.eigenvectors.view()), 1e-10 * n);
    // || A V - V diag(w) ||.
    EXPECT_LT(eigen_residual(a.view(), r.eigenvectors.view(), r.eigenvalues),
              1e-10 * n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pipelines, EighPipelineTest,
    ::testing::Values(
        std::tuple{24, TridiagMethod::kDirect, true},
        std::tuple{24, TridiagMethod::kTwoStageClassic, true},
        std::tuple{24, TridiagMethod::kTwoStageDbbr, true},
        std::tuple{45, TridiagMethod::kTwoStageDbbr, true},
        std::tuple{45, TridiagMethod::kTwoStageClassic, true},
        std::tuple{45, TridiagMethod::kTwoStageDbbr, false},
        std::tuple{64, TridiagMethod::kTwoStageDbbr, true},
        std::tuple{7, TridiagMethod::kTwoStageDbbr, true},
        std::tuple{2, TridiagMethod::kTwoStageDbbr, true},
        std::tuple{1, TridiagMethod::kDirect, true}));

TEST(Eigh, QlSolverAgreesWithDivideConquer) {
  Rng rng(40);
  const index_t n = 32;
  const Matrix a = random_symmetric(n, rng);

  eig::EvdOptions o1;
  o1.solver = eig::TridiagSolver::kDivideConquer;
  o1.tridiag.b = 4;
  o1.tridiag.k = 8;
  const auto r1 = eig::eigh(a.view(), o1);

  eig::EvdOptions o2 = o1;
  o2.solver = eig::TridiagSolver::kImplicitQl;
  const auto r2 = eig::eigh(a.view(), o2);

  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(r1.eigenvalues[static_cast<size_t>(i)],
                r2.eigenvalues[static_cast<size_t>(i)], 1e-11 * n);
  }
  EXPECT_LT(eigen_residual(a.view(), r2.eigenvectors.view(), r2.eigenvalues),
            1e-10 * n);
}

TEST(Tridiagonalize, AllMethodsProduceSameSpectrum) {
  Rng rng(50);
  const index_t n = 40;
  const Matrix a = random_symmetric(n, rng);

  auto values = [&](TridiagMethod m) {
    TridiagOptions o;
    o.method = m;
    o.b = 4;
    o.k = 8;
    o.want_factors = false;
    TridiagResult t = tridiagonalize(a.view(), o);
    eig::steqr(t.d, t.e, nullptr);
    return t.d;
  };
  const auto v1 = values(TridiagMethod::kDirect);
  const auto v2 = values(TridiagMethod::kTwoStageClassic);
  const auto v3 = values(TridiagMethod::kTwoStageDbbr);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(v1[static_cast<size_t>(i)], v2[static_cast<size_t>(i)],
                1e-10 * n);
    EXPECT_NEAR(v1[static_cast<size_t>(i)], v3[static_cast<size_t>(i)],
                1e-10 * n);
  }
}

}  // namespace
}  // namespace tdg
