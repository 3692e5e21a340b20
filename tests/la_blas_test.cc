// Unit tests for the dense BLAS substrate (src/la).

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "la/blas.h"
#include "la/generate.h"
#include "la/matrix.h"

namespace tdg {
namespace {

// FP64 reference, also for float operands (widened exactly).
template <class T>
Matrix naive_gemm(Trans ta, Trans tb, double alpha, InView<T> a, InView<T> b,
                  double beta, InView<T> c0) {
  const index_t m = (ta == Trans::kNo) ? a.rows : a.cols;
  const index_t k = (ta == Trans::kNo) ? a.cols : a.rows;
  const index_t n = (tb == Trans::kNo) ? b.cols : b.rows;
  Matrix c(m, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      double s = 0.0;
      for (index_t l = 0; l < k; ++l) {
        const double av = (ta == Trans::kNo) ? a(i, l) : a(l, i);
        const double bv = (tb == Trans::kNo) ? b(l, j) : b(j, l);
        s += av * bv;
      }
      c(i, j) = alpha * s + beta * c0(i, j);
    }
  }
  return c;
}

// The kernels run at double and at float. An accuracy bound is written for
// FP64; at float the same number of machine epsilons applies.
template <class T>
double tol(double fp64_bound) {
  return fp64_bound / std::numeric_limits<double>::epsilon() *
         std::numeric_limits<T>::epsilon();
}

template <class T>
const char* scalar_name() {
  return sizeof(T) == sizeof(double) ? "double" : "float";
}

TEST(Blas1, DotAxpyScalNrm2) {
  std::vector<double> x{1.0, 2.0, -3.0};
  std::vector<double> y{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(la::dot(3, x.data(), y.data()), 4.0 - 10.0 - 18.0);
  la::axpy(3, 2.0, x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(y[2], 0.0);
  la::scal(3, -1.0, y.data());
  EXPECT_DOUBLE_EQ(y[0], -6.0);
  EXPECT_NEAR(la::nrm2(3, x.data()), std::sqrt(14.0), 1e-15);
}

TEST(Blas1, Nrm2OverflowSafe) {
  std::vector<double> x{1e300, 1e300};
  EXPECT_NEAR(la::nrm2(2, x.data()) / (std::sqrt(2.0) * 1e300), 1.0, 1e-14);
  std::vector<double> z{0.0, 0.0};
  EXPECT_EQ(la::nrm2(2, z.data()), 0.0);
}

TEST(Blas2, GemvMatchesNaive) {
  Rng rng(1);
  const Matrix a = random_matrix(13, 7, rng);
  std::vector<double> x(13), y(13), xn(7);
  for (auto& v : x) v = rng.normal();
  for (auto& v : xn) v = rng.normal();

  // y = A * xn
  y.assign(13, 0.5);
  std::vector<double> yref = y;
  la::gemv(Trans::kNo, 2.0, a.view(), xn.data(), 3.0, y.data());
  for (index_t i = 0; i < 13; ++i) {
    double s = 0.0;
    for (index_t j = 0; j < 7; ++j) s += a(i, j) * xn[static_cast<size_t>(j)];
    yref[static_cast<size_t>(i)] = 2.0 * s + 3.0 * yref[static_cast<size_t>(i)];
  }
  for (index_t i = 0; i < 13; ++i)
    EXPECT_NEAR(y[static_cast<size_t>(i)], yref[static_cast<size_t>(i)], 1e-12);

  // y2 = A^T * x
  std::vector<double> y2(7, 0.0);
  la::gemv(Trans::kTrans, 1.0, a.view(), x.data(), 0.0, y2.data());
  for (index_t j = 0; j < 7; ++j) {
    double s = 0.0;
    for (index_t i = 0; i < 13; ++i) s += a(i, j) * x[static_cast<size_t>(i)];
    EXPECT_NEAR(y2[static_cast<size_t>(j)], s, 1e-12);
  }
}

TEST(Blas2, SymvLowerUsesOnlyLowerTriangle) {
  Rng rng(2);
  const index_t n = 9;
  Matrix a = random_symmetric(n, rng);
  Matrix poisoned = a;
  // Poison the strict upper triangle; symv_lower must ignore it.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < j; ++i) poisoned(i, j) = 1e9;

  std::vector<double> x(static_cast<size_t>(n)), y1(static_cast<size_t>(n), 0.0),
      y2(static_cast<size_t>(n), 0.0);
  for (auto& v : x) v = rng.normal();
  la::symv_lower(1.0, poisoned.view(), x.data(), 0.0, y1.data());
  la::gemv(Trans::kNo, 1.0, a.view(), x.data(), 0.0, y2.data());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(y1[static_cast<size_t>(i)], y2[static_cast<size_t>(i)], 1e-12);
}

TEST(Blas2, Syr2LowerMatchesDense) {
  Rng rng(3);
  const index_t n = 8;
  Matrix a = random_symmetric(n, rng);
  Matrix ref = a;
  std::vector<double> x(static_cast<size_t>(n)), y(static_cast<size_t>(n));
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();

  la::syr2_lower(-1.0, x.data(), y.data(), a.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i)
      ref(i, j) -= x[static_cast<size_t>(i)] * y[static_cast<size_t>(j)] +
                   y[static_cast<size_t>(i)] * x[static_cast<size_t>(j)];
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) EXPECT_NEAR(a(i, j), ref(i, j), 1e-12);
}

class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

template <class T>
void gemm_matches_naive(int m, int n, int k) {
  SCOPED_TRACE(scalar_name<T>());
  Rng rng(17 + m + 31 * n + 101 * k);
  for (const Trans ta : {Trans::kNo, Trans::kTrans}) {
    for (const Trans tb : {Trans::kNo, Trans::kTrans}) {
      const MatrixT<T> a = converted<T>(
          ((ta == Trans::kNo) ? random_matrix(m, k, rng)
                              : random_matrix(k, m, rng)).view());
      const MatrixT<T> b = converted<T>(
          ((tb == Trans::kNo) ? random_matrix(k, n, rng)
                              : random_matrix(n, k, rng)).view());
      MatrixT<T> c = converted<T>(random_matrix(m, n, rng).view());
      const Matrix ref =
          naive_gemm<T>(ta, tb, 1.7, a.view(), b.view(), -0.3, c.view());
      la::gemm(ta, tb, 1.7, a.view(), b.view(), -0.3, c.view());
      EXPECT_LT(max_abs_diff(converted<double, T>(c.view()).view(),
                             ref.view()),
                tol<T>(1e-10))
          << "ta=" << (ta == Trans::kTrans) << " tb=" << (tb == Trans::kTrans);
    }
  }
}

TEST_P(GemmShapeTest, AllTransposeCombosMatchNaive) {
  const auto [m, n, k] = GetParam();
  gemm_matches_naive<double>(m, n, k);
  gemm_matches_naive<float>(m, n, k);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmShapeTest,
                         ::testing::Values(std::tuple{1, 1, 1},
                                           std::tuple{5, 3, 4},
                                           std::tuple{8, 8, 8},
                                           std::tuple{17, 9, 23},
                                           std::tuple{33, 65, 7},
                                           std::tuple{64, 64, 64},
                                           std::tuple{3, 40, 2},
                                           // Shapes crossing the packed
                                           // MC/KC/NC cache-block edges,
                                           // none a block multiple.
                                           std::tuple{130, 70, 260},
                                           std::tuple{129, 17, 300},
                                           std::tuple{40, 530, 70}));

// The packed engine must agree with the naive reference for every transpose
// combination and every beta class (overwrite, accumulate, scale), at
// thread counts 1 and 4 — and the two thread counts must agree bitwise,
// since the block schedule is thread-count invariant.
class GemmBetaThreadsTest : public ::testing::TestWithParam<double> {};

template <class T>
void gemm_beta_threads(double beta, index_t k) {
  SCOPED_TRACE(scalar_name<T>());
  const index_t m = 130, n = 75;
  Rng rng(91 + static_cast<int>(10 * beta));
  for (const Trans ta : {Trans::kNo, Trans::kTrans}) {
    for (const Trans tb : {Trans::kNo, Trans::kTrans}) {
      const MatrixT<T> a = converted<T>(
          ((ta == Trans::kNo) ? random_matrix(m, k, rng)
                              : random_matrix(k, m, rng)).view());
      const MatrixT<T> b = converted<T>(
          ((tb == Trans::kNo) ? random_matrix(k, n, rng)
                              : random_matrix(n, k, rng)).view());
      const MatrixT<T> c0 = converted<T>(random_matrix(m, n, rng).view());
      const Matrix ref = naive_gemm<T>(ta, tb, 1.3, a.view(), b.view(), beta,
                                       c0.view());
      MatrixT<T> c1 = c0;
      {
        ThreadLimit serial(1);
        la::gemm(ta, tb, 1.3, a.view(), b.view(), beta, c1.view());
      }
      MatrixT<T> c4 = c0;
      {
        ThreadLimit parallel(4);
        la::gemm(ta, tb, 1.3, a.view(), b.view(), beta, c4.view());
      }
      EXPECT_LT(max_abs_diff(converted<double, T>(c1.view()).view(),
                             ref.view()),
                tol<T>(1e-10))
          << "beta=" << beta << " ta=" << (ta == Trans::kTrans)
          << " tb=" << (tb == Trans::kTrans);
      // Bitwise: disjoint output blocks, fixed accumulation order.
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < m; ++i)
          ASSERT_EQ(c1(i, j), c4(i, j))
              << "thread-count variance at (" << i << "," << j << ")";
    }
  }
}

TEST_P(GemmBetaThreadsTest, PackedMatchesNaiveAndIsThreadInvariant) {
  // Inner dimensions crossing the K cache block of each scalar (256 doubles,
  // 512 floats) as well as kMC.
  gemm_beta_threads<double>(GetParam(), 280);
  gemm_beta_threads<float>(GetParam(), 540);
}

INSTANTIATE_TEST_SUITE_P(Betas, GemmBetaThreadsTest,
                         ::testing::Values(0.0, 1.0, 0.5));

// BLAS rule: beta == 0 overwrites C, so NaN/Inf already in C must not
// survive — also on the k == 0 and alpha == 0 early-outs and in syr2k.
TEST(Gemm, BetaZeroOverwritesNanFreeAndKZeroScales) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix a(4, 0), b(0, 5);
  Matrix c(4, 5);
  fill(c.view(), 2.0);
  la::gemm(Trans::kNo, Trans::kNo, 1.0, a.view(), b.view(), 0.5, c.view());
  EXPECT_DOUBLE_EQ(c(2, 3), 1.0);  // k == 0: only the beta scaling applies
  fill(c.view(), nan);
  la::gemm(Trans::kNo, Trans::kNo, 1.0, a.view(), b.view(), 0.0, c.view());
  for (index_t j = 0; j < 5; ++j)
    for (index_t i = 0; i < 4; ++i) EXPECT_EQ(c(i, j), 0.0) << "k == 0";

  Rng rng(6);
  const Matrix a2 = random_matrix(4, 3, rng);
  const Matrix b2 = random_matrix(3, 5, rng);
  fill(c.view(), nan);
  la::gemm(Trans::kNo, Trans::kNo, 0.0, a2.view(), b2.view(), 0.0, c.view());
  for (index_t j = 0; j < 5; ++j)
    for (index_t i = 0; i < 4; ++i) EXPECT_EQ(c(i, j), 0.0) << "alpha == 0";

  // Both the small unpacked path and the packed path.
  for (const index_t n : {8, 70}) {
    const Matrix x = random_matrix(n, n, rng);
    Matrix y(n, n);
    fill(y.view(), nan);
    la::gemm(Trans::kNo, Trans::kNo, 1.0, x.view(), x.view(), 0.0, y.view());
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < n; ++i)
        ASSERT_FALSE(std::isnan(y(i, j))) << "n=" << n;
  }

  const index_t n = 40, k = 3;
  const Matrix sa = random_matrix(n, k, rng);
  const Matrix sb = random_matrix(n, k, rng);
  Matrix sc(n, n);
  fill(sc.view(), nan);
  la::syr2k_lower(1.0, sa.view(), sb.view(), 0.0, sc.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i)
      ASSERT_FALSE(std::isnan(sc(i, j))) << "syr2k (" << i << "," << j << ")";
  fill(sc.view(), nan);
  la::syr2k_lower_square(1.0, sa.view(), sb.view(), 0.0, sc.view(), 16);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i)
      ASSERT_FALSE(std::isnan(sc(i, j)))
          << "syr2k_square (" << i << "," << j << ")";
}

// Every compiled micro-kernel variant must reproduce the portable baseline
// bitwise: same packing, same per-element c + (alpha*b)*a order, no FMA.
// The shapes avoid multiples of every MR (2..16), kNR = 12, the 96 x 192
// task block and kKC (256 doubles, 512 floats), and k crosses kKC.
template <class T>
void variants_match_baseline(const la::detail::GemmVariant& variant,
                             std::size_t v) {
  SCOPED_TRACE(scalar_name<T>());
  const int shapes[][3] = {{197, 203, 530}, {131, 77, 300}, {13, 389, 41},
                           {1, 30, 600}};
  for (const auto& s : shapes) {
    const index_t m = s[0], n = s[1], k = s[2];
    Rng rng(5 + m + 7 * n + 11 * k);
    for (const Trans ta : {Trans::kNo, Trans::kTrans}) {
      for (const Trans tb : {Trans::kNo, Trans::kTrans}) {
        const MatrixT<T> a = converted<T>(
            ((ta == Trans::kNo) ? random_matrix(m, k, rng)
                                : random_matrix(k, m, rng)).view());
        const MatrixT<T> b = converted<T>(
            ((tb == Trans::kNo) ? random_matrix(k, n, rng)
                                : random_matrix(n, k, rng)).view());
        const MatrixT<T> c0 = converted<T>(random_matrix(m, n, rng).view());
        for (const T alpha : {T(1), T(-0.7)}) {
          for (const T beta : {T(0), T(1), T(0.3)}) {
            MatrixT<T> ref = c0, got = c0;
            la::detail::gemm_variant_notrace<T>(0, ta, tb, alpha, a.view(),
                                                b.view(), beta, ref.view());
            la::detail::gemm_variant_notrace<T>(v, ta, tb, alpha, a.view(),
                                                b.view(), beta, got.view());
            for (index_t j = 0; j < n; ++j)
              for (index_t i = 0; i < m; ++i)
                ASSERT_EQ(ref(i, j), got(i, j))
                    << variant.isa << " " << m << "x" << n << "x" << k
                    << " ta=" << (ta == Trans::kTrans)
                    << " tb=" << (tb == Trans::kTrans) << " alpha=" << alpha
                    << " beta=" << beta << " at (" << i << "," << j << ")";
          }
        }
      }
    }
  }
}

TEST(GemmMicroKernel, EveryVariantMatchesBaselineBitwise) {
  const std::vector<la::detail::GemmVariant> variants =
      la::detail::gemm_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_STREQ(variants[0].isa, "baseline");
  EXPECT_TRUE(variants[0].supported);
  std::string skipped;
  for (std::size_t v = 1; v < variants.size(); ++v) {
    if (!variants[v].supported) {
      skipped += std::string(" ") + variants[v].isa;
      continue;
    }
    variants_match_baseline<double>(variants[v], v);
    variants_match_baseline<float>(variants[v], v);
  }
  if (!skipped.empty()) GTEST_SKIP() << "CPU lacks:" << skipped;
}

// The production pick agrees with the baseline too, at 1 and 4 threads, on
// a shape whose task grid (3 x 2 blocks of 96 x 192) has more tasks than
// threads.
template <class T>
void threads_match_baseline() {
  SCOPED_TRACE(scalar_name<T>());
  const index_t m = 197, n = 203, k = 300;
  Rng rng(77);
  const MatrixT<T> a = converted<T>(random_matrix(k, m, rng).view());
  const MatrixT<T> b = converted<T>(random_matrix(k, n, rng).view());
  const MatrixT<T> c0 = converted<T>(random_matrix(m, n, rng).view());
  MatrixT<T> ref = c0, c1 = c0, c4 = c0;
  la::detail::gemm_variant_notrace<T>(0, Trans::kTrans, Trans::kNo, T(-0.7),
                                      a.view(), b.view(), T(0.3), ref.view());
  {
    ThreadLimit serial(1);
    la::gemm(Trans::kTrans, Trans::kNo, T(-0.7), a.view(), b.view(), T(0.3),
             c1.view());
  }
  {
    ThreadLimit parallel(4);
    la::gemm(Trans::kTrans, Trans::kNo, T(-0.7), a.view(), b.view(), T(0.3),
             c4.view());
  }
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      ASSERT_EQ(c1(i, j), c4(i, j)) << "(" << i << "," << j << ")";
      ASSERT_EQ(c1(i, j), ref(i, j)) << "(" << i << "," << j << ")";
    }
}

TEST(GemmMicroKernel, ThreadCountsAgreeBitwise) {
  threads_match_baseline<double>();
  threads_match_baseline<float>();
}

TEST(Syr2k, ReferenceMatchesDenseFormula) {
  Rng rng(4);
  const index_t n = 21, k = 6;
  const Matrix a = random_matrix(n, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  Matrix c = random_symmetric(n, rng);
  Matrix ref = c;

  la::syr2k_lower(1.5, a.view(), b.view(), 0.25, c.view());
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      double s = 0.0;
      for (index_t l = 0; l < k; ++l) s += a(i, l) * b(j, l) + b(i, l) * a(j, l);
      ref(i, j) = 1.5 * s + 0.25 * ref(i, j);
    }
  }
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) EXPECT_NEAR(c(i, j), ref(i, j), 1e-11);
}

class Syr2kSquareTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

template <class T>
void syr2k_square_matches_reference(int n, int k, int block) {
  SCOPED_TRACE(scalar_name<T>());
  Rng rng(7 + n + k);
  const MatrixT<T> a = converted<T>(random_matrix(n, k, rng).view());
  const MatrixT<T> b = converted<T>(random_matrix(n, k, rng).view());
  MatrixT<T> c1 = converted<T>(random_symmetric(n, rng).view());
  MatrixT<T> c2 = c1;

  la::syr2k_lower(-1.0, a.view(), b.view(), 1.0, c1.view());
  la::syr2k_lower_square(-1.0, a.view(), b.view(), 1.0, c2.view(), block);
  double maxd = 0.0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i)
      maxd = std::max<double>(maxd, std::abs(c1(i, j) - c2(i, j)));
  EXPECT_LT(maxd, tol<T>(1e-10));
}

TEST_P(Syr2kSquareTest, MatchesReference) {
  const auto [n, k, block] = GetParam();
  syr2k_square_matches_reference<double>(n, k, block);
  syr2k_square_matches_reference<float>(n, k, block);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Syr2kSquareTest,
                         ::testing::Values(std::tuple{16, 4, 4},
                                           std::tuple{17, 5, 4},
                                           std::tuple{64, 16, 16},
                                           std::tuple{100, 32, 24},
                                           std::tuple{33, 8, 0},
                                           std::tuple{1, 1, 1}));

TEST(Syr2k, LowerAndSymmAreThreadCountInvariant) {
  Rng rng(57);
  const index_t n = 180, k = 48, w = 70;
  const Matrix a = random_matrix(n, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  const Matrix sym = random_symmetric(n, rng);
  const Matrix x = random_matrix(n, w, rng);
  const Matrix c0 = random_symmetric(n, rng);
  const Matrix y0 = random_matrix(n, w, rng);

  Matrix c1 = c0, c4 = c0, y1 = y0, y4 = y0;
  {
    ThreadLimit serial(1);
    la::syr2k_lower(-1.0, a.view(), b.view(), 0.5, c1.view());
    la::symm_lower(1.0, sym.view(), x.view(), 0.5, y1.view());
  }
  {
    ThreadLimit parallel(4);
    la::syr2k_lower(-1.0, a.view(), b.view(), 0.5, c4.view());
    la::symm_lower(1.0, sym.view(), x.view(), 0.5, y4.view());
  }
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) ASSERT_EQ(c1(i, j), c4(i, j));
  for (index_t j = 0; j < w; ++j)
    for (index_t i = 0; i < n; ++i) ASSERT_EQ(y1(i, j), y4(i, j));
}

// The Fig.-7 schedule dispatches independent anti-diagonal blocks to the
// pool; every block writes a disjoint C tile with a fixed inner order, so
// the parallel lower triangle must equal the serial one exactly.
template <class T>
void syr2k_square_parallel_matches_serial() {
  SCOPED_TRACE(scalar_name<T>());
  Rng rng(58);
  const index_t n = 200, k = 48, block = 64;
  const MatrixT<T> a = converted<T>(random_matrix(n, k, rng).view());
  const MatrixT<T> b = converted<T>(random_matrix(n, k, rng).view());
  const MatrixT<T> c0 = converted<T>(random_symmetric(n, rng).view());

  MatrixT<T> c1 = c0, c4 = c0;
  {
    ThreadLimit serial(1);
    la::syr2k_lower_square(-1.0, a.view(), b.view(), 1.0, c1.view(), block);
  }
  {
    ThreadLimit parallel(4);
    la::syr2k_lower_square(-1.0, a.view(), b.view(), 1.0, c4.view(), block);
  }
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i)
      ASSERT_EQ(c1(i, j), c4(i, j)) << "(" << i << "," << j << ")";
}

TEST(Syr2kSquare, ParallelMatchesSerialBitwise) {
  syr2k_square_parallel_matches_serial<double>();
  syr2k_square_parallel_matches_serial<float>();
}

TEST(Syr2kSquare, TraceIsThreadCountInvariant) {
  // Ops are recorded on the dispatching thread, so the recorded schedule
  // must not depend on the worker count.
  Rng rng(59);
  const index_t n = 96, k = 16, block = 32;
  const Matrix a = random_matrix(n, k, rng);
  const Matrix b = random_matrix(n, k, rng);

  auto run = [&](int threads) {
    Matrix c = random_symmetric(n, rng);
    trace::Recorder rec;
    ThreadLimit limit(threads);
    trace::Scope scope(rec);
    la::syr2k_lower_square(1.0, a.view(), b.view(), 1.0, c.view(), block);
    return rec.ops();
  };
  const auto ops1 = run(1);
  const auto ops4 = run(4);
  ASSERT_EQ(ops1.size(), ops4.size());
  for (std::size_t i = 0; i < ops1.size(); ++i) {
    EXPECT_EQ(ops1[i].kind, ops4[i].kind);
    EXPECT_EQ(ops1[i].m, ops4[i].m);
    EXPECT_EQ(ops1[i].n, ops4[i].n);
    EXPECT_EQ(ops1[i].k, ops4[i].k);
    EXPECT_EQ(ops1[i].batch, ops4[i].batch);
  }
}

TEST(Syr2kSquare, TraceContainsSquareGemms) {
  Rng rng(11);
  const index_t n = 64, k = 16, block = 16;
  const Matrix a = random_matrix(n, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  Matrix c = random_symmetric(n, rng);

  trace::Recorder rec;
  {
    trace::Scope scope(rec);
    la::syr2k_lower_square(1.0, a.view(), b.view(), 1.0, c.view(), block);
  }
  int square_gemms = 0;
  for (const auto& op : rec.ops()) {
    if (op.kind == trace::OpKind::kGemm && op.m == block && op.n == block)
      ++square_gemms;
  }
  // 4 block-columns -> 6 off-diagonal blocks, 2 GEMMs each.
  EXPECT_EQ(square_gemms, 12);
}

TEST(Trace, FlopCountsAndScoping) {
  trace::Recorder rec;
  {
    trace::Scope scope(rec);
    trace::record({trace::OpKind::kGemm, 10, 20, 30, 1});
    trace::record({trace::OpKind::kSyr2k, 8, 8, 4, 1});
  }
  trace::record({trace::OpKind::kGemm, 100, 100, 100, 1});  // outside scope
  ASSERT_EQ(rec.ops().size(), 2u);
  EXPECT_DOUBLE_EQ(trace::flops(rec.ops()[0]), 2.0 * 10 * 20 * 30);
  EXPECT_DOUBLE_EQ(trace::flops(rec.ops()[1]), 2.0 * 8 * 9 * 4);
  EXPECT_EQ(trace::to_string(rec.ops()[0]), "gemm(10x20x30)");
}

TEST(Generate, SpectrumGeneratorKeepsEigenvaluesOnDiagonalSum) {
  Rng rng(5);
  const std::vector<double> evals{-3.0, -1.0, 0.5, 2.0, 10.0};
  const Matrix a = symmetric_with_spectrum(evals, rng);
  // Trace is similarity-invariant.
  double tr = 0.0;
  for (index_t i = 0; i < 5; ++i) tr += a(i, i);
  EXPECT_NEAR(tr, 8.5, 1e-10);
  // Symmetric by construction.
  EXPECT_LT(max_abs_diff(a.view(), transposed(a.view()).view()), 1e-14);
}

TEST(Generate, Laplacian1dEigenvaluesFormula) {
  const auto ev = laplacian_1d_eigenvalues(4);
  EXPECT_NEAR(ev.front(), 2.0 - 2.0 * std::cos(std::numbers::pi / 5.0), 1e-15);
  EXPECT_EQ(ev.size(), 4u);
}

TEST(Matrix, ViewsAndBlocks) {
  Matrix a(4, 5);
  a(2, 3) = 7.0;
  MatrixView b = a.block(1, 2, 3, 3);
  EXPECT_DOUBLE_EQ(b(1, 1), 7.0);
  b(1, 1) = 9.0;
  EXPECT_DOUBLE_EQ(a(2, 3), 9.0);
  EXPECT_THROW(a.block(2, 2, 4, 1), Error);
  const Matrix i3 = Matrix::identity(3);
  EXPECT_NEAR(orthogonality_error(i3.view()), 0.0, 1e-16);
}

}  // namespace
}  // namespace tdg
