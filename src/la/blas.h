// From-scratch BLAS subset (column-major) used by every algorithm in the
// library. This is the substrate standing in for cuBLAS: the algorithms
// above it call these kernels with exactly the shapes they would submit to a
// GPU, and each call is recorded in the active trace (common/trace.h).
//
// The kernels the two-stage pipeline runs are templated on the scalar T and
// instantiated for double and float (la/matrix.h); the rest are FP64.
#pragma once

#include <cstddef>
#include <vector>

#include "la/matrix.h"

namespace tdg {

enum class Trans { kNo, kTrans };

namespace la {

// ----- BLAS 1 (contiguous vectors) -----

/// sum_i x[i] * y[i]
template <class T>
T dot(index_t n, const T* x, const T* y);

/// y += alpha * x
template <class T>
void axpy(index_t n, Scalar<T> alpha, const T* x, T* y);

/// x *= alpha
template <class T>
void scal(index_t n, Scalar<T> alpha, T* x);

/// Euclidean norm with overflow-safe scaling.
template <class T>
T nrm2(index_t n, const T* x);

// ----- BLAS 2 -----

/// y = alpha * op(A) x + beta * y
template <class T>
void gemv(Trans ta, Scalar<T> alpha, InView<T> a, const T* x, Scalar<T> beta,
          T* y);

/// A += alpha * x y^T
template <class T>
void ger(Scalar<T> alpha, const T* x, const T* y, MatrixViewT<T> a);

/// y = alpha * A x + beta * y, A symmetric with data in the lower triangle.
void symv_lower(double alpha, ConstMatrixView a, const double* x, double beta,
                double* y);

/// A += alpha * (x y^T + y x^T), lower triangle only.
void syr2_lower(double alpha, const double* x, const double* y, MatrixView a);

// ----- BLAS 3 -----

/// C = alpha * op(A) op(B) + beta * C
template <class T>
void gemm(Trans ta, Trans tb, Scalar<T> alpha, InView<T> a, InView<T> b,
          Scalar<T> beta, MatrixViewT<T> c);

/// C = alpha * (A B^T + B A^T) + beta * C, lower triangle of C only.
/// Reference column-sweep implementation (the "cuBLAS syr2k" stand-in).
template <class T>
void syr2k_lower(Scalar<T> alpha, InView<T> a, InView<T> b, Scalar<T> beta,
                 MatrixViewT<T> c);

/// C(m x w) = alpha * A B + beta * C with A (m x m) symmetric, data in the
/// lower triangle only. Recorded in the trace as an m x w x m GEMM — on a
/// GPU a symm runs the same flops and tiles as the equivalent gemm.
template <class T>
void symm_lower(Scalar<T> alpha, InView<T> a, InView<T> b, Scalar<T> beta,
                MatrixViewT<T> c);

/// Same contract as syr2k_lower, but computed with the paper's Fig.-7
/// schedule: the lower triangle is tiled into square blocks which are
/// processed by anti-diagonal ("iteration 1: diagonal blocks, iteration 2:
/// first off-diagonal blocks, ..."), each block a square GEMM. All blocks
/// within one iteration are independent and are dispatched to the thread
/// pool (the CPU realization of the paper's streamed schedule).
/// `block` is the square tile size (0 = pick a default).
template <class T>
void syr2k_lower_square(Scalar<T> alpha, InView<T> a, InView<T> b,
                        Scalar<T> beta, MatrixViewT<T> c, index_t block = 0);

/// Effective square tile size the Fig.-7 schedule uses for an n x n update
/// when the caller passed `block` (0 = default). Exposed so the band
/// reductions' task graphs (src/sbr) build the exact tile grid
/// syr2k_lower_square iterates — the tile grid is part of the bitwise
/// contract.
index_t syr2k_square_block_size(index_t n, index_t block);

namespace detail {

// Untraced kernel entry points for schedulers that dispatch blocks onto the
// thread pool. Pool workers carry no trace recorder (common/trace.h is
// thread-local), so the scheduler records the per-block ops on its own
// thread and routes the arithmetic through these. Shapes must already be
// validated by the caller.
template <class T>
void gemm_notrace(Trans ta, Trans tb, Scalar<T> alpha, InView<T> a,
                  InView<T> b, Scalar<T> beta, MatrixViewT<T> c);
template <class T>
void syr2k_lower_notrace(Scalar<T> alpha, InView<T> a, InView<T> b,
                         Scalar<T> beta, MatrixViewT<T> c);

/// One compiled variant of the packed-GEMM micro-kernel (la/blas3.cc).
struct GemmVariant {
  const char* isa;  ///< "baseline" (portable), "avx2" or "avx512f"
  bool supported;   ///< the running CPU can execute it
};

/// Every compiled micro-kernel variant, the portable baseline first. gemm
/// always runs the widest supported one, picked once per process; this
/// table lets tests run each variant against the baseline (they must agree
/// bitwise) and lets measurements time the portable path. Not a knob.
std::vector<GemmVariant> gemm_variants();

/// gemm_notrace on variant `variant` (an index into gemm_variants(); it
/// must be supported) instead of the process-wide pick.
template <class T>
void gemm_variant_notrace(std::size_t variant, Trans ta, Trans tb,
                          Scalar<T> alpha, InView<T> a, InView<T> b,
                          Scalar<T> beta, MatrixViewT<T> c);

/// Record the ops of the square-block syr2k schedule over an n x n update
/// with inner dimension k and square tile size `block` (already resolved by
/// syr2k_square_block_size), in the schedule's anti-diagonal order: one
/// kSyr2k per diagonal tile, two kGemm per off-diagonal tile. With
/// block == n this is the single kSyr2k(n, n, k) that syr2k_lower records.
void record_syr2k_square(index_t n, index_t k, index_t block);

/// One tile (bi, bj), bi >= bj, of the square-block syr2k schedule over the
/// full lower-triangle update C += alpha (A B^T + B A^T): the diagonal tile
/// is a lower-triangle syr2k, an off-diagonal tile two square GEMMs.
/// Untraced — schedulers record the grid with record_syr2k_square. All
/// tiles write disjoint regions of C, so any execution order (or none of
/// the barrier structure) gives bitwise-identical results.
template <class T>
void syr2k_square_tile(Scalar<T> alpha, InView<T> a, InView<T> b,
                       Scalar<T> beta, MatrixViewT<T> c, index_t block,
                       index_t bi, index_t bj);

}  // namespace detail

}  // namespace la
}  // namespace tdg
