// The paper's custom SYR2K schedule (Section 5.1, Figure 7).
//
// cuBLAS' syr2k sweeps long skinny column panels of the lower triangle,
// which produces tall-and-thin GEMM shapes and (on H100) a sharp throughput
// drop for very large n. The paper instead tiles the lower triangle into
// square blocks and processes them by anti-diagonal distance: iteration 0
// computes all diagonal blocks, iteration 1 all first sub-diagonal blocks,
// and so on. Every block is a *square* GEMM of size (block x block x k), all
// blocks within an iteration are independent (reorderable / streamable), and
// the shape is friendly to modern GPU tensor pipes.
//
// Here the identical schedule runs on the CPU, with the paper's streaming
// realized on the thread pool: the independent blocks of each anti-diagonal
// are dispatched concurrently (disjoint C tiles, so any worker count gives
// bitwise-identical results). Each block still lands in the trace as a
// square GEMM — recorded on the dispatching thread by record_syr2k_square,
// since pool workers carry no recorder — which is what the device model
// prices.

#include <algorithm>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "la/blas.h"

namespace tdg::la {

index_t syr2k_square_block_size(index_t n, index_t block) {
  if (block <= 0) block = std::min<index_t>(512, std::max<index_t>(n, 1));
  return block;
}

namespace detail {

void record_syr2k_square(index_t n, index_t k, index_t block) {
  const index_t nblk = (n + block - 1) / block;
  // Iterate by sub-diagonal distance d; blocks (bi = bj + d, bj).
  for (index_t d = 0; d < nblk; ++d) {
    for (index_t bj = 0; bj + d < nblk; ++bj) {
      const index_t ib = std::min(block, n - (bj + d) * block);
      const index_t jb = std::min(block, n - bj * block);
      if (d == 0) {
        trace::record({trace::OpKind::kSyr2k, ib, ib, k, 1});
      } else {
        trace::record({trace::OpKind::kGemm, ib, jb, k, 1});
        trace::record({trace::OpKind::kGemm, ib, jb, k, 1});
      }
    }
  }
}

template <class T>
void syr2k_square_tile(Scalar<T> alpha, InView<T> a, InView<T> b,
                       Scalar<T> beta, MatrixViewT<T> c, index_t block,
                       index_t bi, index_t bj) {
  const index_t n = c.rows;
  const index_t j0 = bj * block;
  const index_t i0 = bi * block;
  const index_t jb = std::min(block, n - j0);
  const index_t ib = std::min(block, n - i0);
  if (bi == bj) {
    // Diagonal block: lower triangle only.
    syr2k_lower_notrace<T>(alpha, a.block(i0, 0, ib, a.cols),
                        b.block(i0, 0, ib, b.cols), beta,
                        c.block(i0, j0, ib, jb));
  } else {
    // Off-diagonal block: two square GEMMs,
    //   C_blk = beta C_blk + alpha A_i B_j^T + alpha B_i A_j^T.
    MatrixViewT<T> cblk = c.block(i0, j0, ib, jb);
    gemm_notrace<T>(Trans::kNo, Trans::kTrans, alpha,
                    a.block(i0, 0, ib, a.cols), b.block(j0, 0, jb, b.cols),
                    beta, cblk);
    gemm_notrace<T>(Trans::kNo, Trans::kTrans, alpha,
                    b.block(i0, 0, ib, b.cols), a.block(j0, 0, jb, a.cols),
                    T(1), cblk);
  }
}

}  // namespace detail

template <class T>
void syr2k_lower_square(Scalar<T> alpha, InView<T> a, InView<T> b,
                        Scalar<T> beta, MatrixViewT<T> c, index_t block) {
  TDG_CHECK(c.rows == c.cols, "syr2k_lower_square: C must be square");
  TDG_CHECK(a.rows == c.rows && b.rows == c.rows && a.cols == b.cols,
            "syr2k_lower_square: shape mismatch");
  const index_t n = c.rows;
  if (n == 0) return;
  block = syr2k_square_block_size(n, block);

  detail::record_syr2k_square(n, a.cols, block);

  // Iterate by sub-diagonal distance d; blocks (bi = bj + d, bj).
  const index_t nblk = (n + block - 1) / block;
  for (index_t d = 0; d < nblk; ++d) {
    const index_t nbd = nblk - d;  // independent blocks in this iteration
    ThreadPool::global().parallel_for(0, nbd, [&](index_t bj) {
      detail::syr2k_square_tile<T>(alpha, a, b, beta, c, block, bj + d, bj);
    });
  }
}

#define TDG_INSTANTIATE(T)                                                  \
  template void syr2k_lower_square<T>(T, ConstMatrixViewT<T>,                 \
                                      ConstMatrixViewT<T>, T, MatrixViewT<T>, \
                                      index_t);                               \
  template void detail::syr2k_square_tile<T>(T, ConstMatrixViewT<T>,          \
                                             ConstMatrixViewT<T>, T,          \
                                             MatrixViewT<T>, index_t, index_t, \
                                             index_t);
TDG_INSTANTIATE(double)
TDG_INSTANTIATE(float)

}  // namespace tdg::la
