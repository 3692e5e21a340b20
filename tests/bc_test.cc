// Tests for stage 2: bulge chasing (sequential and pipelined parallel).

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "bc/bulge_chase.h"
#include "bc/bulge_chase_parallel.h"
#include "common/rng.h"
#include "la/blas.h"
#include "la/generate.h"
#include "lapack/lapack.h"

namespace tdg {
namespace {

// Reference eigenvalues via direct tridiagonalization of the dense matrix +
// comparison of the characteristic data is overkill; instead compare the
// tridiagonal results through similarity invariants (trace, Frobenius norm)
// and through full reconstruction with the logged Q2.

std::vector<double> sorted_copy(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

double trace_of(ConstMatrixView a) {
  double t = 0.0;
  for (index_t i = 0; i < a.rows; ++i) t += a(i, i);
  return t;
}

class ChaseDenseTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ChaseDenseTest, ReducesToTridiagonalPreservingSimilarity) {
  const auto [n, b] = GetParam();
  Rng rng(100 + n * 3 + b);
  const Matrix a0 = random_symmetric_band(n, b, rng);
  Matrix a = a0;

  bc::ChaseLog log;
  bc::chase_dense(a.view(), b, &log);

  // Tridiagonal: nothing below the first sub-diagonal.
  EXPECT_LT(off_band_max(a.view(), 1), 1e-11 * n);

  // Reconstruction: A0 = Q2 T Q2^T.
  std::vector<double> d, e;
  bc::extract_tridiag(a.view(), d, e);
  Matrix t(n, n);
  for (index_t i = 0; i < n; ++i) {
    t(i, i) = d[static_cast<size_t>(i)];
    if (i + 1 < n) {
      t(i + 1, i) = e[static_cast<size_t>(i)];
      t(i, i + 1) = e[static_cast<size_t>(i)];
    }
  }
  Matrix qt = t;
  bc::apply_q2_left(log, qt.view());        // Q2 T
  Matrix qtq = transposed(qt.view());       // T Q2^T
  bc::apply_q2_left(log, qtq.view());       // Q2 T Q2^T
  EXPECT_LT(max_abs_diff(qtq.view(), a0.view()), 1e-10 * n);

  // Q2 orthogonal.
  Matrix q = Matrix::identity(n);
  bc::apply_q2_left(log, q.view());
  EXPECT_LT(orthogonality_error(q.view()), 1e-11 * n);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ChaseDenseTest,
    ::testing::Values(std::tuple{8, 2}, std::tuple{16, 4}, std::tuple{17, 4},
                      std::tuple{32, 8}, std::tuple{33, 5}, std::tuple{40, 3},
                      std::tuple{64, 16}, std::tuple{20, 19},
                      std::tuple{3, 2}, std::tuple{50, 7}));

class ChasePackedTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ChasePackedTest, MatchesDenseChaseBitwise) {
  const auto [n, b] = GetParam();
  Rng rng(300 + n * 5 + b);
  const Matrix a0 = random_symmetric_band(n, b, rng);

  Matrix adense = a0;
  bc::chase_dense(adense.view(), b, nullptr);

  SymBandMatrix band = extract_band(a0.view(), b, std::min<index_t>(2 * b, n - 1));
  bc::chase_packed(band, b, nullptr);

  // The packed chase runs the identical arithmetic on the packed layout, so
  // the tridiagonal output matches the dense chase exactly.
  std::vector<double> d1, e1, d2, e2;
  bc::extract_tridiag(adense.view(), d1, e1);
  bc::extract_tridiag(band, d2, e2);
  for (index_t i = 0; i < n; ++i)
    EXPECT_EQ(d1[static_cast<size_t>(i)], d2[static_cast<size_t>(i)]) << i;
  for (index_t i = 0; i + 1 < n; ++i)
    EXPECT_EQ(e1[static_cast<size_t>(i)], e2[static_cast<size_t>(i)]) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ChasePackedTest,
    ::testing::Values(std::tuple{12, 3}, std::tuple{16, 4}, std::tuple{31, 4},
                      std::tuple{48, 8}, std::tuple{33, 2},
                      std::tuple{64, 12}));

class ChaseParallelTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

// The packed chase runs at double and at float; both must hold the
// bitwise contract.
template <class T>
void chase_parallel_matches_sequential(index_t n, index_t b, int threads,
                                       index_t cap) {
  SCOPED_TRACE(sizeof(T) == sizeof(double) ? "double" : "float");
  Rng rng(700 + n + b + threads);
  const MatrixT<T> a0 = converted<T>(random_symmetric_band(n, b, rng).view());
  const index_t kd = std::min<index_t>(2 * b, n - 1);

  SymBandMatrixT<T> seq = extract_band<T>(a0.view(), b, kd);
  bc::ChaseLogT<T> seqlog;
  bc::chase_packed(seq, b, &seqlog);

  SymBandMatrixT<T> par = extract_band<T>(a0.view(), b, kd);
  bc::ParallelChaseOptions opts;
  opts.threads = threads;
  opts.max_parallel_sweeps = cap;
  bc::ChaseLogT<T> parlog;
  bc::chase_packed_parallel(par, b, opts, &parlog);

  // The dependency protocol linearises all conflicting block steps into the
  // sequential order, so the result must be bitwise identical.
  std::vector<double> d1, e1, d2, e2;
  bc::extract_tridiag(seq, d1, e1);
  bc::extract_tridiag(par, d2, e2);
  for (index_t i = 0; i < n; ++i)
    EXPECT_EQ(d1[static_cast<size_t>(i)], d2[static_cast<size_t>(i)]) << i;
  for (index_t i = 0; i + 1 < n; ++i)
    EXPECT_EQ(e1[static_cast<size_t>(i)], e2[static_cast<size_t>(i)]) << i;

  // Reflector logs identical too (same reflectors, same order).
  ASSERT_EQ(seqlog.sweeps.size(), parlog.sweeps.size());
  for (std::size_t s = 0; s < seqlog.sweeps.size(); ++s) {
    ASSERT_EQ(seqlog.sweeps[s].steps.size(), parlog.sweeps[s].steps.size());
    EXPECT_EQ(seqlog.sweeps[s].vpool, parlog.sweeps[s].vpool);
  }
}

TEST_P(ChaseParallelTest, BitwiseEqualToSequential) {
  const auto [n, b, threads, cap] = GetParam();
  chase_parallel_matches_sequential<double>(n, b, threads, cap);
  chase_parallel_matches_sequential<float>(n, b, threads, cap);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ChaseParallelTest,
    ::testing::Values(std::tuple{32, 4, 2, 0}, std::tuple{32, 4, 4, 0},
                      std::tuple{48, 8, 3, 0}, std::tuple{48, 8, 8, 2},
                      std::tuple{64, 4, 4, 4}, std::tuple{33, 2, 5, 0},
                      std::tuple{96, 8, 6, 3}, std::tuple{40, 16, 4, 0}));

TEST(ChaseParallel, DenseLayoutAlsoMatchesSequential) {
  Rng rng(900);
  const index_t n = 40, b = 4;
  const Matrix a0 = random_symmetric_band(n, b, rng);

  Matrix seq = a0;
  bc::chase_dense(seq.view(), b, nullptr);

  Matrix par = a0;
  bc::ParallelChaseOptions opts;
  opts.threads = 4;
  bc::chase_dense_parallel(par.view(), b, opts, nullptr);

  std::vector<double> d1, e1, d2, e2;
  bc::extract_tridiag(seq.view(), d1, e1);
  bc::extract_tridiag(par.view(), d2, e2);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(e1, e2);
}

TEST(Chase, PreservesTraceAndFrobenius) {
  Rng rng(1000);
  const index_t n = 50, b = 6;
  const Matrix a0 = random_symmetric_band(n, b, rng);
  Matrix a = a0;
  bc::chase_dense(a.view(), b, nullptr);

  std::vector<double> d, e;
  bc::extract_tridiag(a.view(), d, e);
  double tr = 0.0, fro = 0.0;
  for (index_t i = 0; i < n; ++i) {
    tr += d[static_cast<size_t>(i)];
    fro += d[static_cast<size_t>(i)] * d[static_cast<size_t>(i)];
  }
  for (index_t i = 0; i + 1 < n; ++i)
    fro += 2.0 * e[static_cast<size_t>(i)] * e[static_cast<size_t>(i)];
  EXPECT_NEAR(tr, trace_of(a0.view()), 1e-10 * n);
  EXPECT_NEAR(std::sqrt(fro), frobenius_norm(a0.view()), 1e-10 * n);
}

TEST(Chase, BandwidthOneIsNoop) {
  Rng rng(1100);
  const index_t n = 10;
  const Matrix a0 = random_symmetric_band(n, 1, rng);
  Matrix a = a0;
  bc::ChaseLog log;
  bc::chase_dense(a.view(), 1, &log);
  EXPECT_LT(max_abs_diff(a.view(), a0.view()), 1e-16);
  // Q2 is the identity.
  Matrix q = Matrix::identity(n);
  bc::apply_q2_left(log, q.view());
  EXPECT_LT(orthogonality_error(q.view()), 1e-16);
}

TEST(Chase, PackedRequiresBulgeRoom) {
  SymBandMatrix band(16, 4);  // kd = 4 < 2b = 8
  EXPECT_THROW(bc::chase_packed(band, 4, nullptr), Error);
}

TEST(Chase, FullBandwidthEqualsDirectTridiagonalization) {
  // b = n-1 makes the band matrix dense; bulge chasing must still reduce it
  // and agree with sytd2 on the spectrum-defining invariants.
  Rng rng(1200);
  const index_t n = 12;
  const Matrix a0 = random_symmetric(n, rng);

  Matrix a = a0;
  bc::chase_dense(a.view(), n - 1, nullptr);
  EXPECT_LT(off_band_max(a.view(), 1), 1e-12 * n);

  std::vector<double> d, e;
  bc::extract_tridiag(a.view(), d, e);
  double tr = 0.0;
  for (double x : d) tr += x;
  EXPECT_NEAR(tr, trace_of(a0.view()), 1e-11 * n);
}

TEST(Chase, SortedDiagonalInvariantUnderLayouts) {
  // Sanity property sweep: both layouts and several (n, b) combos keep the
  // multiset of diagonal entries' sum-of-squares consistent.
  for (index_t n : {10, 23, 36}) {
    for (index_t b : {2, 3, 5}) {
      Rng rng(static_cast<uint64_t>(n * 100 + b));
      const Matrix a0 = random_symmetric_band(n, b, rng);
      Matrix a = a0;
      bc::chase_dense(a.view(), b, nullptr);
      std::vector<double> d, e;
      bc::extract_tridiag(a.view(), d, e);
      EXPECT_EQ(sorted_copy(d).size(), static_cast<size_t>(n));
    }
  }
}

}  // namespace
}  // namespace tdg
