// Cache-blocked, pool-parallel BLAS-3 kernels.
//
// Structure (BLIS-style, sized for a laptop-class core):
//   * gemm packs op(A)/op(B) K-panels of depth kKC into contiguous buffers
//     — transposition is absorbed during the pack, so the Trans cases cost
//     one panel copy instead of a full-matrix transpose — then sweeps an
//     MC x NC block grid whose tiles run the 8-column register micro-kernel
//     and are distributed over the thread pool.
//   * syr2k_lower processes fixed-width column blocks of the lower triangle
//     in parallel, with the k loop hoisted so each A/B column is streamed
//     once per block instead of once per column.
//   * symm_lower parallelizes over output-column blocks.
//
// Determinism: the block grid depends only on the shape (never the thread
// count), every tile is computed by one thread with a fixed inner loop
// order, and the K dimension is always walked ascending per element —
// results are bitwise identical for any thread count, and bitwise identical
// to the original single-threaded column-sweep kernels.
//
// Tracing: the public entry points record one op on the calling thread;
// pool workers run the untraced detail:: kernels (common/trace.h is
// thread-local), so recorded traces are thread-count invariant.

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "la/blas.h"

namespace tdg::la {

namespace {

// Cache-block sizes: the packed A tile (kMC x kKC scalars, 256 KiB) targets
// L2, so kKC follows the scalar width (256 doubles, 512 floats); the
// 8-column C strip of a tile (kMC x 8 scalars) lives in L1 across the K
// sweep; kNC bounds the packed B panel working set per task.
constexpr index_t kMC = 128;
constexpr std::size_t kATileBytes = 256 * 1024;
template <class T>
constexpr index_t kKC = kATileBytes / (kMC * sizeof(T));
constexpr index_t kNC = 512;

// NN problems below this flop volume skip packing and dispatch entirely
// (the hot skinny panel-factor GEMMs in the band reduction).
constexpr index_t kSmallGemmVolume = 64 * 64 * 64;

// Column-block width for the syr2k / symm parallel sweeps.
constexpr index_t kJB = 32;

// Core kernel: C = alpha * A(m x k) * B(k x n) + beta * C, no transposes.
// Column-register blocking: 8 output columns per pass so each A column is
// read once per 8 C columns.
template <class T>
void gemm_nn_kernel(T alpha, ConstMatrixViewT<T> a, ConstMatrixViewT<T> b,
                    T beta, MatrixViewT<T> c) {
  const index_t m = c.rows;
  const index_t n = c.cols;
  const index_t k = a.cols;
  constexpr index_t kColBlock = 8;

  for (index_t jj = 0; jj < n; jj += kColBlock) {
    const index_t jb = std::min(kColBlock, n - jj);
    if (beta != T(1)) {
      for (index_t j = jj; j < jj + jb; ++j) {
        T* cj = c.col(j);
        if (beta == T(0)) {
          std::fill(cj, cj + m, T(0));
        } else {
          for (index_t i = 0; i < m; ++i) cj[i] *= beta;
        }
      }
    }
    for (index_t l = 0; l < k; ++l) {
      const T* al = a.col(l);
      T coef[kColBlock];
      T* ccol[kColBlock];
      for (index_t t = 0; t < jb; ++t) {
        coef[t] = alpha * b(l, jj + t);
        ccol[t] = c.col(jj + t);
      }
      if (jb == kColBlock) {
        for (index_t i = 0; i < m; ++i) {
          const T ai = al[i];
          ccol[0][i] += coef[0] * ai;
          ccol[1][i] += coef[1] * ai;
          ccol[2][i] += coef[2] * ai;
          ccol[3][i] += coef[3] * ai;
          ccol[4][i] += coef[4] * ai;
          ccol[5][i] += coef[5] * ai;
          ccol[6][i] += coef[6] * ai;
          ccol[7][i] += coef[7] * ai;
        }
      } else {
        for (index_t t = 0; t < jb; ++t) {
          const T ct = coef[t];
          T* cc = ccol[t];
          for (index_t i = 0; i < m; ++i) cc[i] += ct * al[i];
        }
      }
    }
  }
}

// Pack op(A)(:, pc:pc+kc) into dst (m x kc column-major, ld = m),
// parallel over disjoint row ranges.
template <class T>
void pack_a_panel(Trans ta, ConstMatrixViewT<T> a, index_t pc, index_t kc,
                  index_t m, T* dst) {
  parallel_chunks(m, kMC, [&](index_t lo, index_t hi) {
    if (ta == Trans::kNo) {
      for (index_t l = 0; l < kc; ++l) {
        std::memcpy(dst + lo + l * m, a.col(pc + l) + lo,
                    static_cast<std::size_t>(hi - lo) * sizeof(T));
      }
    } else {
      // op(A)(i, l) = a(pc + l, i): read each source column contiguously.
      for (index_t i = lo; i < hi; ++i) {
        const T* ai = a.col(i) + pc;
        for (index_t l = 0; l < kc; ++l) dst[i + l * m] = ai[l];
      }
    }
  });
}

// Pack op(B)(pc:pc+kc, :) into dst (kc x n column-major, ld = kc),
// parallel over disjoint column ranges.
template <class T>
void pack_b_panel(Trans tb, ConstMatrixViewT<T> b, index_t pc, index_t kc,
                  index_t n, T* dst) {
  parallel_chunks(n, kNC, [&](index_t lo, index_t hi) {
    if (tb == Trans::kNo) {
      for (index_t j = lo; j < hi; ++j) {
        std::memcpy(dst + j * kc, b.col(j) + pc,
                    static_cast<std::size_t>(kc) * sizeof(T));
      }
    } else {
      // op(B)(l, j) = b(j, pc + l): read each source column contiguously.
      for (index_t l = 0; l < kc; ++l) {
        const T* bl = b.col(pc + l);
        for (index_t j = lo; j < hi; ++j) dst[l + j * kc] = bl[j];
      }
    }
  });
}

template <class T>
void scale_columns(T beta, MatrixViewT<T> c) {
  if (beta == T(1)) return;
  for (index_t j = 0; j < c.cols; ++j) {
    T* cj = c.col(j);
    for (index_t i = 0; i < c.rows; ++i) cj[i] *= beta;
  }
}

// Packed MC x KC x NC loop nest. The K loop stays outermost and ascending,
// so each C element accumulates its k contributions in exactly the order
// the unblocked kernel used.
template <class T>
void gemm_packed(Trans ta, Trans tb, T alpha, ConstMatrixViewT<T> a,
                 ConstMatrixViewT<T> b, T beta, MatrixViewT<T> c) {
  const index_t m = c.rows;
  const index_t n = c.cols;
  const index_t k = (ta == Trans::kNo) ? a.cols : a.rows;

  const index_t kc_max = std::min(k, kKC<T>);
  std::vector<T> apack(static_cast<std::size_t>(m) * kc_max);
  std::vector<T> bpack(static_cast<std::size_t>(kc_max) * n);
  const index_t nmb = (m + kMC - 1) / kMC;
  const index_t nnb = (n + kNC - 1) / kNC;

  for (index_t pc = 0; pc < k; pc += kKC<T>) {
    const index_t kc = std::min(kKC<T>, k - pc);
    pack_a_panel(ta, a, pc, kc, m, apack.data());
    pack_b_panel(tb, b, pc, kc, n, bpack.data());
    const ConstMatrixViewT<T> ap{apack.data(), m, kc, m};
    const ConstMatrixViewT<T> bp{bpack.data(), kc, n, kc};
    const T beta_eff = (pc == 0) ? beta : T(1);

    ThreadPool::global().parallel_for(0, nmb * nnb, [&](index_t t) {
      const index_t bi = t % nmb;
      const index_t bj = t / nmb;
      const index_t i0 = bi * kMC;
      const index_t j0 = bj * kNC;
      const index_t mb = std::min(kMC, m - i0);
      const index_t nb = std::min(kNC, n - j0);
      gemm_nn_kernel(alpha, ap.block(i0, 0, mb, kc), bp.block(0, j0, kc, nb),
                     beta_eff, c.block(i0, j0, mb, nb));
    });
  }
}

}  // namespace

namespace detail {

template <class T>
void gemm_notrace(Trans ta, Trans tb, Scalar<T> alpha, InView<T> a,
                  InView<T> b, Scalar<T> beta, MatrixViewT<T> c) {
  const index_t m = c.rows;
  const index_t n = c.cols;
  const index_t k = (ta == Trans::kNo) ? a.cols : a.rows;
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == T(0)) {
    scale_columns(beta, c);
    return;
  }
  if (ta == Trans::kNo && tb == Trans::kNo && m * n * k <= kSmallGemmVolume) {
    gemm_nn_kernel(alpha, a, b, beta, c);
    return;
  }
  gemm_packed(ta, tb, alpha, a, b, beta, c);
}

template <class T>
void syr2k_lower_notrace(Scalar<T> alpha, InView<T> a, InView<T> b,
                         Scalar<T> beta, MatrixViewT<T> c) {
  const index_t n = c.rows;
  const index_t k = a.cols;
  // Fixed kJB-column blocks of the lower triangle, distributed over the
  // pool; within a block the k loop is hoisted so the streamed A/B columns
  // serve every block column. Each element still accumulates in ascending
  // l order — bitwise identical to the plain column sweep.
  parallel_chunks(n, kJB, [&](index_t lo, index_t hi) {
    if (beta != T(1)) {
      for (index_t j = lo; j < hi; ++j) {
        T* cj = c.col(j);
        for (index_t i = j; i < n; ++i) cj[i] *= beta;
      }
    }
    for (index_t l = 0; l < k; ++l) {
      const T* al = a.col(l);
      const T* bl = b.col(l);
      for (index_t j = lo; j < hi; ++j) {
        const T abj = alpha * b(j, l);
        const T aaj = alpha * a(j, l);
        T* cj = c.col(j);
        for (index_t i = j; i < n; ++i) {
          cj[i] += abj * al[i] + aaj * bl[i];
        }
      }
    }
  });
}

}  // namespace detail

template <class T>
void gemm(Trans ta, Trans tb, Scalar<T> alpha, InView<T> a, InView<T> b,
          Scalar<T> beta, MatrixViewT<T> c) {
  const index_t opa_rows = (ta == Trans::kNo) ? a.rows : a.cols;
  const index_t opa_cols = (ta == Trans::kNo) ? a.cols : a.rows;
  const index_t opb_rows = (tb == Trans::kNo) ? b.rows : b.cols;
  const index_t opb_cols = (tb == Trans::kNo) ? b.cols : b.rows;
  TDG_CHECK(opa_rows == c.rows && opb_cols == c.cols && opa_cols == opb_rows,
            "gemm: shape mismatch");
  trace::record({trace::OpKind::kGemm, c.rows, c.cols, opa_cols, 1});
  detail::gemm_notrace<T>(ta, tb, alpha, a, b, beta, c);
}

template <class T>
void syr2k_lower(Scalar<T> alpha, InView<T> a, InView<T> b, Scalar<T> beta,
                 MatrixViewT<T> c) {
  TDG_CHECK(c.rows == c.cols, "syr2k_lower: C must be square");
  TDG_CHECK(a.rows == c.rows && b.rows == c.rows && a.cols == b.cols,
            "syr2k_lower: shape mismatch");
  trace::record({trace::OpKind::kSyr2k, c.rows, c.rows, a.cols, 1});
  detail::syr2k_lower_notrace<T>(alpha, a, b, beta, c);
}

template <class T>
void symm_lower(Scalar<T> alpha, InView<T> a, InView<T> b, Scalar<T> beta,
                MatrixViewT<T> c) {
  TDG_CHECK(a.rows == a.cols, "symm_lower: A must be square");
  TDG_CHECK(a.rows == b.rows && b.rows == c.rows && b.cols == c.cols,
            "symm_lower: shape mismatch");
  trace::record({trace::OpKind::kGemm, c.rows, c.cols, a.cols, 1});

  const index_t n = a.rows;
  const index_t w = c.cols;
  // Output columns are independent; distribute fixed-width column blocks
  // over the pool, each running the one-pass lower-triangle sweep.
  parallel_chunks(w, kJB, [&](index_t lo, index_t hi) {
    if (beta != T(1)) {
      for (index_t j = lo; j < hi; ++j) {
        T* cj = c.col(j);
        if (beta == T(0)) {
          std::fill(cj, cj + n, T(0));
        } else {
          for (index_t i = 0; i < n; ++i) cj[i] *= beta;
        }
      }
    }
    // One pass over the stored (lower) columns of A; column l contributes
    // to rows l..n-1 directly and to row l via the mirrored entries.
    for (index_t l = 0; l < n; ++l) {
      const T* al = a.col(l);
      for (index_t j = lo; j < hi; ++j) {
        T* cj = c.col(j);
        const T* bj = b.col(j);
        const T abl = alpha * bj[l];
        cj[l] += abl * al[l];
        T s = 0;
        for (index_t i = l + 1; i < n; ++i) {
          cj[i] += abl * al[i];
          s += al[i] * bj[i];
        }
        cj[l] += alpha * s;
      }
    }
  });
}

#define TDG_INSTANTIATE(T)                                                 \
  template void gemm<T>(Trans, Trans, T, ConstMatrixViewT<T>,                \
                        ConstMatrixViewT<T>, T, MatrixViewT<T>);             \
  template void syr2k_lower<T>(T, ConstMatrixViewT<T>, ConstMatrixViewT<T>,  \
                               T, MatrixViewT<T>);                           \
  template void symm_lower<T>(T, ConstMatrixViewT<T>, ConstMatrixViewT<T>,   \
                              T, MatrixViewT<T>);                            \
  template void detail::gemm_notrace<T>(Trans, Trans, T, ConstMatrixViewT<T>, \
                                        ConstMatrixViewT<T>, T,              \
                                        MatrixViewT<T>);                     \
  template void detail::syr2k_lower_notrace<T>(                              \
      T, ConstMatrixViewT<T>, ConstMatrixViewT<T>, T, MatrixViewT<T>);
TDG_INSTANTIATE(double)
TDG_INSTANTIATE(float)

}  // namespace tdg::la
